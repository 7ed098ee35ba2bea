// Package webcrawl simulates the full-fidelity web crawl the paper uses
// to classify feed domains (the Click Trajectories pipeline): visit a
// spam-advertised URL, follow redirections to the final storefront, and
// tag known storefronts with their affiliate program — plus, for the
// RX program, the affiliate identifier embedded in the page.
//
// The crawler consults ecosystem ground truth the way a real crawler
// consults the live web: through the URL it was given. Domain-only
// feeds lose redirection context (crawling a URL shortener's root page
// reaches only its homepage), exactly as in the paper.
//
// Visit takes the URL string, as a real crawler does; VisitSym takes
// the interned symbols a feed row already holds and reaches the same
// result with no parsing: ground truth is a slice read by domain
// symbol, and only a redirector's URL is read for its campaign token.
package webcrawl

import (
	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/symtab"
)

// Result is the outcome of one URL visit.
type Result struct {
	URL string
	// Domain is the registered domain of the visited URL.
	Domain domain.Name
	// OK reports whether the visit ended in an HTTP 200.
	OK bool
	// Final is the registered domain of the final page after
	// following redirects (equal to Domain if no redirect).
	Final domain.Name
	// Tagged reports whether the final page matched a storefront
	// content signature.
	Tagged bool
	// Program and Affiliate identify the storefront when tagged
	// (ecosystem IDs), else -1.
	Program   int
	Affiliate int
	// AffiliateKey is the embedded affiliate identifier, non-empty
	// only for RX-program storefronts.
	AffiliateKey string
	// Category is the goods category when tagged.
	Category ecosystem.Category
}

// Visitor abstracts URL crawling so analyses can be driven by either
// the in-process simulator (Crawler here) or the real-HTTP
// implementation in internal/webhost.
type Visitor interface {
	// Visit fetches a URL, following redirects, and classifies the
	// final page.
	Visit(rawURL string) Result
}

// Crawler visits URLs against a generated world.
type Crawler struct {
	World *ecosystem.World
	Rules *domain.Rules
	// Visits counts URL fetches (including redirect hops).
	Visits int64
}

// New returns a crawler over the world using default domain rules.
func New(w *ecosystem.World) *Crawler {
	return &Crawler{World: w, Rules: domain.DefaultRules}
}

// VisitDomain crawls a bare domain the way the paper handles
// domain-only feeds: prepend "http://" and visit the root.
func (c *Crawler) VisitDomain(d domain.Name) Result {
	return c.Visit("http://" + string(d) + "/")
}

// Visit fetches a URL, following any redirect to the storefront.
func (c *Crawler) Visit(rawURL string) Result {
	c.Visits++
	res := Result{URL: rawURL, Program: -1, Affiliate: -1}
	d, err := c.Rules.FromURL(rawURL)
	if err != nil {
		return res // unparseable host: no page
	}
	res.Domain = d
	res.Final = d
	if info, known := c.World.Info(d); known {
		c.fetch(&res, info)
	}
	return res // unknown: NXDOMAIN or dead host
}

// VisitSym is Visit on symbols of the world's table: u is the URL and
// d its registered domain under c.Rules, the pair a feed row records
// (d is 0, the empty name, for a URL with no parseable host). u == 0
// visits d's bare root, "http://d/", as VisitDomain does. Given that
// pairing, the result equals Visit's on u's string, field for field,
// and Visits advances the same; a domain the world does not know
// returns at once. Safe for concurrent use on separate Crawlers.
func (c *Crawler) VisitSym(d, u symtab.ID) Result {
	c.Visits++
	tab := c.World.Syms
	name := domain.Name(tab.Lookup(d))
	res := Result{Domain: name, Final: name, Program: -1, Affiliate: -1}
	if u != 0 {
		res.URL = tab.Lookup(u)
	} else {
		res.URL = "http://" + string(name) + "/"
	}
	if info, known := c.World.InfoSym(d); known {
		c.fetch(&res, info)
	}
	return res
}

// fetch classifies a visit to a domain the world knows; res carries
// the visited URL and its domain.
func (c *Crawler) fetch(res *Result, info *ecosystem.DomainInfo) {
	switch info.Kind {
	case ecosystem.KindBenign:
		res.OK = true
		// A redirection-service URL with a valid token forwards to
		// the campaign's storefront; anything else is just a benign
		// page, so only a redirector's URL is read for the token.
		if info.Redirector {
			if campaignID, redirect, ok := ecosystem.DecodeCampaignToken(res.URL); ok && redirect {
				c.followToStorefront(res, campaignID)
			}
		}
	case ecosystem.KindObscure, ecosystem.KindWebOnly:
		res.OK = info.Alive
	case ecosystem.KindStorefront:
		if info.Alive {
			res.OK = true
			c.tag(res, info)
		}
	case ecosystem.KindLanding:
		if info.Alive {
			// The landing page redirects to the program-hosted
			// storefront, which tags like the storefront itself.
			c.Visits++
			res.OK = true
			c.tag(res, info)
		}
	}
}

// followToStorefront resolves a redirector token to its campaign's
// storefront. Program-hosted storefront backends stay reachable even
// when individual advertised domains die.
func (c *Crawler) followToStorefront(res *Result, campaignID int) {
	if campaignID < 0 || campaignID >= len(c.World.Campaigns) {
		return
	}
	c.Visits++
	camp := &c.World.Campaigns[campaignID]
	if camp.Program < 0 {
		// Unbranded goods: live site, no signature match.
		return
	}
	info := &ecosystem.DomainInfo{
		Program:   camp.Program,
		Affiliate: camp.Affiliate,
		Category:  c.World.Programs[camp.Program].Category,
	}
	c.tag(res, info)
}

// tag applies the storefront content signatures.
func (c *Crawler) tag(res *Result, info *ecosystem.DomainInfo) {
	if info.Program < 0 || !info.Category.Tagged() {
		return
	}
	res.Tagged = true
	res.Program = info.Program
	res.Affiliate = info.Affiliate
	res.Category = info.Category
	if c.World.Programs[info.Program].RX && info.Affiliate >= 0 {
		res.AffiliateKey = c.World.Affiliates[info.Affiliate].Key
	}
}
