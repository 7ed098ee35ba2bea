// Package dnszone simulates TLD registries and their zone files.
//
// The paper's DNS purity indicator checks whether a feed domain appeared
// in the zone files of seven major TLDs (com, net, org, biz, us, aero,
// info) over a window bracketing the measurement period by 16 months on
// each side. This package provides the registry abstraction backing that
// check: domains are registered (and possibly dropped) at points in
// simulated time, and queries ask whether a name was present in a zone
// at an instant or at any point during a window.
package dnszone

import (
	"sort"
	"sync"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/simclock"
)

// PaperZoneTLDs are the TLDs whose zone files the paper checked.
var PaperZoneTLDs = []string{"com", "net", "org", "biz", "us", "aero", "info"}

// PaperZoneWindow returns the zone-check window: the measurement period
// bracketed by 16 months (≈487 days) before and after, matching the
// paper's April 2009 – March 2012 span.
func PaperZoneWindow() simclock.Window {
	return simclock.PaperWindow().Extend(487, 487)
}

// interval is a half-open registration interval [from, to); a zero `to`
// means still registered.
type interval struct {
	from time.Time
	to   time.Time
}

func (iv interval) activeAt(t time.Time) bool {
	if t.Before(iv.from) {
		return false
	}
	return iv.to.IsZero() || t.Before(iv.to)
}

func (iv interval) overlaps(w simclock.Window) bool {
	if !iv.from.Before(w.End) {
		return false
	}
	return iv.to.IsZero() || iv.to.After(w.Start)
}

// Registry is a collection of per-TLD zones with registration history.
// It is safe for concurrent use.
type Registry struct {
	// covered holds the TLDs with zone-file visibility. It is fixed at
	// construction, so it is read without the lock.
	covered map[string]bool
	mu      sync.RWMutex
	zones   map[string]map[domain.Name][]interval
}

// NewRegistry creates a registry with zone-file visibility into the
// given TLDs. Registrations in other TLDs are accepted but invisible to
// zone queries (CoversTLD reports false), mirroring the paper's partial
// TLD coverage.
func NewRegistry(coveredTLDs []string) *Registry {
	r := &Registry{
		covered: make(map[string]bool, len(coveredTLDs)),
		zones:   make(map[string]map[domain.Name][]interval),
	}
	for _, tld := range coveredTLDs {
		r.covered[tld] = true
	}
	return r
}

// NewPaperRegistry returns a registry covering the paper's seven TLDs.
func NewPaperRegistry() *Registry {
	return NewRegistry(PaperZoneTLDs)
}

// CoversTLD reports whether the registry has zone-file visibility into
// the given TLD. It takes no lock: coverage never changes after
// NewRegistry.
func (r *Registry) CoversTLD(tld string) bool {
	return r.covered[tld]
}

// Covers reports whether the registry's zone files would show the given
// domain's TLD at all.
func (r *Registry) Covers(d domain.Name) bool {
	return r.CoversTLD(d.TLD())
}

// Register records that d entered its TLD zone at time t. Registering
// an already-active domain is a no-op.
func (r *Registry) Register(d domain.Name, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tld := d.TLD()
	zone := r.zones[tld]
	if zone == nil {
		zone = make(map[domain.Name][]interval)
		r.zones[tld] = zone
	}
	ivs := zone[d]
	if n := len(ivs); n > 0 && ivs[n-1].to.IsZero() {
		return // already active
	}
	zone[d] = append(ivs, interval{from: t})
}

// Drop records that d left its zone at time t (expiry or takedown).
// Dropping an inactive domain is a no-op.
func (r *Registry) Drop(d domain.Name, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	zone := r.zones[d.TLD()]
	if zone == nil {
		return
	}
	ivs := zone[d]
	if n := len(ivs); n > 0 && ivs[n-1].to.IsZero() && !t.Before(ivs[n-1].from) {
		ivs[n-1].to = t
		zone[d] = ivs
	}
}

// ActiveAt reports whether d was in its zone file at instant t.
func (r *Registry) ActiveAt(d domain.Name, t time.Time) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, iv := range r.zones[d.TLD()][d] {
		if iv.activeAt(t) {
			return true
		}
	}
	return false
}

// AppearedDuring reports whether d appeared in its zone file at any
// point during the window — the paper's registration test.
func (r *Registry) AppearedDuring(d domain.Name, w simclock.Window) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.appearedLocked(d, w)
}

// appearedLocked is AppearedDuring for callers holding mu.
func (r *Registry) appearedLocked(d domain.Name, w simclock.Window) bool {
	for _, iv := range r.zones[d.TLD()][d] {
		if iv.overlaps(w) {
			return true
		}
	}
	return false
}

// AppearedDuringEach sets found[i] to AppearedDuring(names[i], w) for
// every name, under one read lock; found must be as long as names.
func (r *Registry) AppearedDuringEach(names []domain.Name, w simclock.Window, found []bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, d := range names {
		found[i] = r.appearedLocked(d, w)
	}
}

// Snapshot returns the sorted list of domains active in the given TLD's
// zone at instant t — a zone file as of t.
func (r *Registry) Snapshot(tld string, t time.Time) []domain.Name {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []domain.Name
	for d, ivs := range r.zones[tld] {
		for _, iv := range ivs {
			if iv.activeAt(t) {
				out = append(out, d)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Size returns the total number of domains with any registration
// history across all zones.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, zone := range r.zones {
		n += len(zone)
	}
	return n
}
