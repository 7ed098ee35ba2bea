package ecosystem

import (
	"fmt"
	"strconv"
	"strings"

	"tasterschoice/internal/dnszone"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// DomainKind classifies what a domain actually is, ground truth the
// crawler discovers (or fails to).
type DomainKind uint8

const (
	// KindUnknown is a domain the world knows nothing about — poison
	// output and junk reports resolve to this.
	KindUnknown DomainKind = iota
	// KindStorefront is a registered domain hosting a program
	// storefront (or unbranded goods site for other-goods spam).
	KindStorefront
	// KindLanding is a registered throwaway domain redirecting to a
	// storefront.
	KindLanding
	// KindWebOnly is a domain advertised via web/search spam only.
	KindWebOnly
	// KindBenign is a legitimate domain.
	KindBenign
	// KindObscure is a registered but unpopular legitimate domain,
	// the kind random name generation occasionally collides with.
	KindObscure
)

// String returns the kind name.
func (k DomainKind) String() string {
	switch k {
	case KindStorefront:
		return "storefront"
	case KindLanding:
		return "landing"
	case KindWebOnly:
		return "webonly"
	case KindBenign:
		return "benign"
	case KindObscure:
		return "obscure"
	default:
		return "unknown"
	}
}

// DomainInfo is the world's ground truth about one domain.
// The one-byte fields lead so the struct packs into 40 bytes: the
// world keeps one per symbol.
type DomainInfo struct {
	Kind     DomainKind
	Category Category
	// Alive reports whether an HTTP fetch during the measurement
	// period succeeds.
	Alive bool
	// Registered reports whether the domain was ever registered.
	Registered bool
	// Alexa, ODP and Redirector mirror the benign-universe flags.
	Alexa, ODP, Redirector bool

	Campaign  int // Campaign.ID, -1 if none
	Program   int // Program.ID, -1 if none
	Affiliate int // Affiliate.ID, -1 if none
	// BenignRank is the popularity rank for benign domains, -1
	// otherwise.
	BenignRank int
}

// World is a fully generated spam ecosystem.
type World struct {
	Config     Config
	Programs   []Program
	Affiliates []Affiliate
	Botnets    []Botnet
	Campaigns  []Campaign
	Benign     []BenignDomain
	// Obscure is the pool of registered-but-unpopular domains poison
	// names can collide with.
	Obscure []domain.Name
	// ObscureSyms holds the interned IDs of Obscure, index-aligned.
	ObscureSyms []symtab.ID
	// Registry records all domain registrations for zone-file checks.
	Registry *dnszone.Registry

	// Syms is the world's shared symbol table: Generate interns every
	// domain and advertised URL here as it mints them, and the
	// collection engine threads the IDs end-to-end so per-message code
	// never re-hashes a string. Engines also intern their synthesized
	// junk/poison names into it, always from serial code, keeping ID
	// assignment deterministic for every worker count.
	Syms *symtab.Table

	// infos is the ground truth, indexed by domain symbol; entries of
	// URL symbols, and symbols past its end (names engines interned
	// after generation), have Kind KindUnknown. It is written only
	// during Generate.
	infos          []DomainInfo
	redirectors    []domain.Name
	redirectorSyms []symtab.ID
}

// Info returns ground truth for a domain. ok is false for names the
// world has never heard of (poison output, junk). It hashes the name
// under the symbol table's lock; per-domain loops use InfoSym.
func (w *World) Info(d domain.Name) (*DomainInfo, bool) {
	id, ok := w.Syms.Find(string(d))
	if !ok {
		return nil, false
	}
	return w.InfoSym(id)
}

// InfoSym is Info for a symbol of w.Syms: one slice read, safe for
// concurrent use. Every name the world registered in its Registry has
// ground truth, so a symbol with ok == false never appears in a zone.
func (w *World) InfoSym(id symtab.ID) (*DomainInfo, bool) {
	if int(id) >= len(w.infos) || w.infos[id].Kind == KindUnknown {
		return nil, false
	}
	return &w.infos[id], true
}

// Redirectors returns the benign domains offering redirection services.
func (w *World) Redirectors() []domain.Name { return w.redirectors }

// RXProgram returns the RX-Promotion-like program.
func (w *World) RXProgram() *Program {
	for i := range w.Programs {
		if w.Programs[i].RX {
			return &w.Programs[i]
		}
	}
	return nil
}

// PoisonWindow returns the period during which the poisoner botnet
// sends random unregistered domains.
func (w *World) PoisonWindow() simclock.Window {
	return simclock.Window{
		Start: w.Config.Window.Day(w.Config.PoisonStartDay),
		End:   w.Config.Window.Day(w.Config.PoisonEndDay),
	}
}

// Poisoner returns the poisoning botnet, or nil if none.
func (w *World) Poisoner() *Botnet {
	for i := range w.Botnets {
		if w.Botnets[i].Poisoner {
			return &w.Botnets[i]
		}
	}
	return nil
}

// TaggedUniverse returns the number of domains whose crawl would yield
// a storefront tag (alive, tagged category, not benign) — a generation
// sanity metric used by tests.
func (w *World) TaggedUniverse() int {
	n := 0
	for i := range w.infos {
		info := &w.infos[i]
		if info.Alive && info.Category.Tagged() && info.Program >= 0 &&
			(info.Kind == KindStorefront || info.Kind == KindLanding) {
			n++
		}
	}
	return n
}

// AdURL builds the spam-advertised URL for an ad slot of a campaign.
// The path carries the campaign id so the crawler can resolve
// redirections the way real crawlers follow HTTP redirects.
func AdURL(c *Campaign, d AdDomain) string {
	if d.Redirector {
		return fmt.Sprintf("http://%s/r/c%d", d.Name, c.ID)
	}
	return fmt.Sprintf("http://%s/p/c%d", d.Name, c.ID)
}

// ChaffURL builds a URL on a benign domain as embedded by spammers to
// dilute filters (image hosting, DTD references, phished brands).
func ChaffURL(d domain.Name) string {
	return fmt.Sprintf("http://%s/", d)
}

// DecodeCampaignToken extracts a campaign id from an ad URL path. ok is
// false if the URL carries no campaign token.
func DecodeCampaignToken(rawURL string) (id int, redirect bool, ok bool) {
	path := rawURL
	if i := strings.Index(path, "://"); i >= 0 {
		path = path[i+3:]
	}
	slash := strings.IndexByte(path, '/')
	if slash < 0 {
		return 0, false, false
	}
	path = path[slash:]
	var prefix string
	switch {
	case strings.HasPrefix(path, "/r/c"):
		prefix, redirect = "/r/c", true
	case strings.HasPrefix(path, "/p/c"):
		prefix = "/p/c"
	default:
		return 0, false, false
	}
	n, err := strconv.Atoi(strings.TrimPrefix(path, prefix))
	if err != nil || n < 0 {
		return 0, false, false
	}
	return n, redirect, true
}
