// Package ecosystem generates the synthetic spam ecosystem that stands
// in for the paper's proprietary data: affiliate programs and their
// affiliates, spam-sending botnets, advertising campaigns with domain
// rotation, and the benign-domain universe (Alexa/ODP stand-ins,
// redirectors, chaff).
//
// The generator is purely structural: it decides who advertises what,
// when, with which domains, and how loudly. Turning that structure into
// observed feed entries — the collection-methodology biases that are
// the paper's actual subject — is the job of internal/mailflow.
//
// Everything is deterministic given Config.Seed.
package ecosystem

import (
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/symtab"
)

// Category classifies the goods an affiliate program sells. The paper
// tags storefronts in three categories (pharmaceuticals, replicas, OEM
// software); spam for anything else is "other" — its sites may be live
// but are never tagged.
type Category uint8

const (
	// CategoryPharma is online pharmacy spam, the dominant class.
	CategoryPharma Category = iota
	// CategoryReplica is counterfeit luxury goods spam.
	CategoryReplica
	// CategorySoftware is unlicensed "OEM" software spam.
	CategorySoftware
	// CategoryOther covers goods outside the tagged classes; the
	// paper's crawler finds these sites live but cannot tag them.
	CategoryOther
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CategoryPharma:
		return "pharma"
	case CategoryReplica:
		return "replica"
	case CategorySoftware:
		return "software"
	case CategoryOther:
		return "other"
	default:
		return "unknown"
	}
}

// Tagged reports whether storefronts in this category are tagged by the
// content classifier (the Click Trajectories signature set).
func (c Category) Tagged() bool { return c != CategoryOther }

// Program is an affiliate program: it hosts storefront sites, handles
// payment and fulfillment, and pays advertising commissions.
type Program struct {
	ID       int
	Name     string
	Category Category
	// RX marks the RX-Promotion-like program whose storefront pages
	// embed the advertising affiliate's identifier, making per-
	// affiliate analyses (paper §4.2.3, Figs 5–6) possible.
	RX bool
}

// AffiliateTier describes how an affiliate advertises, which determines
// which feeds can observe its campaigns.
type AffiliateTier uint8

const (
	// TierLoud affiliates rent botnets and blast high-volume spam from
	// brute-force and harvested address lists. Every honeypot sees
	// them; most of their mail is filtered before users do.
	TierLoud AffiliateTier = iota
	// TierQuiet affiliates run lower-volume, deliverability-focused
	// campaigns on purchased targeted lists. Mostly only the webmail
	// user base (and hence human-identified feeds) sees them.
	TierQuiet
	// TierTiny affiliates send very small campaigns; only an enormous
	// net catches them at all.
	TierTiny
)

// String returns the tier name.
func (t AffiliateTier) String() string {
	switch t {
	case TierLoud:
		return "loud"
	case TierQuiet:
		return "quiet"
	case TierTiny:
		return "tiny"
	default:
		return "unknown"
	}
}

// Affiliate is an advertiser working for a program on commission.
type Affiliate struct {
	ID      int
	Program int // Program.ID
	// Key is the identifier embedded in RX-program storefront pages
	// ("aff=..."), empty for non-RX programs.
	Key string
	// AnnualRevenue is the affiliate's yearly revenue in USD; only
	// populated for the RX program (the paper's leaked ledger covers
	// only RX-Promotion).
	AnnualRevenue float64
	Tier          AffiliateTier
}

// Botnet is a spam-sending botnet. A few are "monitored": researchers
// run captive bot instances and capture their outbound spam (the Bot
// feed).
type Botnet struct {
	ID        int
	Name      string
	Monitored bool
	// Poisoner marks the Rustock-like botnet that spends part of the
	// measurement period sending randomly generated, unregistered
	// domain names.
	Poisoner bool
	// Affiliates identifies the operator's affiliate registrations:
	// botnet operators typically advertise for a handful of programs
	// where they are themselves signed up.
	Affiliates []int
	// List-composition fractions: how the botnet's target address
	// lists were built. They need not sum to 1; each is an
	// independent reach coefficient used by mailflow.
	BruteForceFrac float64 // generated addresses; reaches MX honeypots
	HarvestedFrac  float64 // scraped addresses; reaches honey accounts
	WebmailFrac    float64 // fraction of list that is webmail users
}

// CampaignClass describes a campaign's sending strategy.
type CampaignClass uint8

const (
	// ClassLoud is botnet-delivered bulk spam.
	ClassLoud CampaignClass = iota
	// ClassQuiet is lower-volume targeted spam.
	ClassQuiet
	// ClassTiny is very low-volume targeted spam.
	ClassTiny
	// ClassWebOnly marks domains advertised through web/search spam
	// rather than e-mail; they reach only the hybrid feed's non-mail
	// sources.
	ClassWebOnly
)

// String returns the class name.
func (c CampaignClass) String() string {
	switch c {
	case ClassLoud:
		return "loud"
	case ClassQuiet:
		return "quiet"
	case ClassTiny:
		return "tiny"
	case ClassWebOnly:
		return "webonly"
	default:
		return "unknown"
	}
}

// AdDomain is one advertised domain within a campaign, active during
// [Start, End) and carrying Weight share of the campaign volume.
type AdDomain struct {
	Name   domain.Name
	Start  time.Time
	End    time.Time
	Weight float64
	// Redirector marks an abused benign redirection service (URL
	// shortener, free hosting): the advertised domain is benign and
	// popular, but its URLs redirect to the campaign storefront.
	Redirector bool
	// Landing marks a dedicated throwaway domain that redirects to a
	// separate storefront domain; the crawler still reaches (and
	// tags) the storefront.
	Landing bool
	// Alive reports whether the domain's web presence survived until
	// the crawler visited (dead sites fail the HTTP liveness check).
	Alive bool
	// Sym and URLSym are the interned IDs of Name and of the slot's
	// advertised URL (AdURL) in World.Syms, assigned by Generate so
	// the per-message hot path never touches the strings.
	Sym    symtab.ID
	URLSym symtab.ID
}

// Campaign is one advertising push by one affiliate: a set of rotated
// domains, a volume, and a sending window.
type Campaign struct {
	ID        int
	Affiliate int // Affiliate.ID
	Program   int // Program.ID, -1 for unbranded "other goods" spam
	Class     CampaignClass
	Botnet    int // sending botnet for ClassLoud, else -1
	Start     time.Time
	End       time.Time
	// Volume is the nominal number of messages the campaign sends
	// over its window (at the simulation's scale).
	Volume  float64
	Domains []AdDomain
}

// Duration returns the campaign's sending window length.
func (c *Campaign) Duration() time.Duration { return c.End.Sub(c.Start) }

// BenignDomain is a legitimate domain in the simulated Internet.
type BenignDomain struct {
	Name domain.Name
	// Rank is the popularity rank (0 = most popular), driving both
	// its Alexa standing and its volume in legitimate mail.
	Rank int
	// Alexa marks membership in the Alexa-top-1M stand-in list.
	Alexa bool
	// ODP marks membership in the Open Directory stand-in listing.
	ODP bool
	// Redirector marks redirection services spammers can abuse.
	Redirector bool
	// Sym and URLSym are the interned IDs of Name and of the derived
	// chaff URL "http://<name>/" in World.Syms.
	Sym    symtab.ID
	URLSym symtab.ID
}
