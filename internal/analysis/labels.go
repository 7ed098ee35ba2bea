// Package analysis implements the paper's four feed-quality analyses —
// purity, coverage, proportionality, and timing — plus the affiliate
// program and revenue views, each producing the data behind one of the
// paper's tables or figures.
//
// All analyses operate on a Dataset: the ten collected feeds, the
// incoming-mail oracle, and per-domain labels obtained by crawling
// every feed domain and checking zone files, exactly mirroring the
// paper's methodology (§3.4, §4.1.4):
//
//   - DNS: the domain appeared in a covered TLD zone file within the
//     window bracketing the measurement period.
//   - HTTP: some URL received for the domain answered 200.
//   - Tagged: the final page matched a storefront signature.
//   - live domains: HTTP minus (Alexa ∪ ODP).
//   - tagged domains: Tagged minus (Alexa ∪ ODP).
package analysis

import (
	"runtime"
	"slices"
	"sort"
	"sync"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
	"tasterschoice/internal/webcrawl"
)

// Label is the classification of one feed domain.
type Label struct {
	// InZoneTLD reports whether the domain's TLD has zone-file
	// visibility (the DNS indicator's denominator).
	InZoneTLD bool
	// DNS reports zone-file appearance during the bracketed window.
	DNS bool
	// HTTP reports a successful web visit.
	HTTP bool
	// Tagged reports a storefront signature match.
	Tagged bool
	// Program / Affiliate / AffiliateKey / Category describe the tag.
	Program      int
	Affiliate    int
	AffiliateKey string
	Category     ecosystem.Category
	// Alexa / ODP mark the benign-list memberships.
	Alexa, ODP bool
}

// Benignish reports Alexa-or-ODP membership (the paper's conservative
// exclusion set).
func (l *Label) Benignish() bool { return l.Alexa || l.ODP }

// Live implements the paper's "live domain" definition.
func (l *Label) Live() bool { return l.HTTP && !l.Benignish() }

// TaggedClean implements the paper's post-§4.1.4 "tagged domain"
// definition (tagged minus Alexa/ODP).
func (l *Label) TaggedClean() bool { return l.Tagged && !l.Benignish() }

// Labels is the dataset's one domain id space. Every domain occurring
// in any feed gets an id: its rank in ascending name order. Label rows,
// the Index's bitsets and every figure are indexed by these ids, so a
// walk over ids in ascending order visits domains in lexicographic
// order — the canonical order for tie-breaks and float accumulation.
// Feeds and the oracle store world-table symbols; syms and ids
// translate between the two.
type Labels struct {
	// Domains maps id → name, ascending.
	Domains []domain.Name
	rows    []Label
	// tab is the world symbol table the feeds are bound to; syms maps
	// id → symbol and ids inverts it (symbol → id+1, 0 for symbols in
	// no feed).
	tab  *symtab.Table
	syms []symtab.ID
	ids  []int32
}

// Get returns the label for d (nil if d was in no feed).
func (ls *Labels) Get(d domain.Name) *Label {
	sym, ok := ls.tab.Find(string(d))
	if !ok {
		return nil
	}
	if id, ok := ls.id(sym); ok {
		return &ls.rows[id]
	}
	return nil
}

// Len returns the number of labeled domains.
func (ls *Labels) Len() int { return len(ls.rows) }

// id returns the id of a world-table symbol (false if it is in no
// feed).
func (ls *Labels) id(sym symtab.ID) (int32, bool) {
	if int(sym) >= len(ls.ids) || ls.ids[sym] == 0 {
		return 0, false
	}
	return ls.ids[sym] - 1, true
}

// Dataset bundles everything the analyses consume. It is treated as
// immutable once built; the analyses lazily attach the feed-membership
// Index (see index.go) that the parallel table computations share.
type Dataset struct {
	World  *ecosystem.World
	Result *mailflow.Result
	Labels *Labels

	idxOnce sync.Once
	idx     *Index
}

// Feed returns the named feed.
func (ds *Dataset) Feed(name string) *feeds.Feed { return ds.Result.Feed(name) }

// BuildLabels crawls and zone-checks every domain occurring in any
// feed, using one crawler worker per CPU. For each domain it visits
// the sample URLs the feeds received (URL feeds preserve redirection
// context); domain-only feeds contribute a bare "http://domain/"
// visit, as in the paper.
func BuildLabels(w *ecosystem.World, res *mailflow.Result) *Labels {
	return BuildLabelsConcurrent(w, res, runtime.GOMAXPROCS(0))
}

// BuildLabelsConcurrent is BuildLabels with an explicit worker count.
// The result is identical for any worker count: each domain's label is
// computed independently.
func BuildLabelsConcurrent(w *ecosystem.World, res *mailflow.Result, workers int) *Labels {
	return BuildLabelsWith(w, res, workers, func() webcrawl.Visitor {
		return webcrawl.New(w)
	})
}

// BuildLabelsWith labels using caller-provided crawler instances — one
// per worker — so the crawl can run over the in-process simulator or a
// real-HTTP webhost crawler interchangeably. Every feed must be bound
// to the world's symbol table, as the collection engine binds them.
func BuildLabelsWith(w *ecosystem.World, res *mailflow.Result, workers int,
	newVisitor func() webcrawl.Visitor) *Labels {
	if workers < 1 {
		workers = 1
	}
	zoneWindow := zoneCheckWindow(w)
	ls := &Labels{tab: w.Syms, ids: make([]int32, w.Syms.Len())}

	// The id space: the union of feed symbols, ranked by name.
	for _, name := range res.Order {
		f := res.Feed(name)
		if f.Syms() != ls.tab {
			//lint:allow stringalloc -- fatal misuse path, reached at most once
			panic("analysis: feed " + name + " is not bound to the world symbol table")
		}
		f.EachIDUnordered(func(sym symtab.ID, _ int64) {
			if ls.ids[sym] == 0 {
				ls.ids[sym] = 1
				ls.syms = append(ls.syms, sym)
			}
		})
	}
	sort.Slice(ls.syms, func(i, j int) bool {
		return ls.tab.Lookup(ls.syms[i]) < ls.tab.Lookup(ls.syms[j])
	})
	n := len(ls.syms)
	ls.Domains = make([]domain.Name, n)
	ls.rows = make([]Label, n)
	for id, sym := range ls.syms {
		ls.Domains[id] = domain.Name(ls.tab.Lookup(sym))
		ls.ids[sym] = int32(id) + 1
		ls.rows[id].Program = -1
		ls.rows[id].Affiliate = -1
	}

	if workers > n {
		workers = n
	}
	// Shard the ids across workers; every label is written only by
	// its own worker, so no locking is needed.
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			crawler := newVisitor()
			for id := shard; id < n; id += workers {
				ls.labelOne(w, crawler, zoneWindow, res, int32(id))
			}
		}(wk)
	}
	wg.Wait()
	return ls
}

// labelOne fills in one domain's label. It visits the distinct sample
// URLs the feeds saw for the domain, deduplicated by symbol in
// canonical feed order (URL feeds preserve redirection context); a
// domain no feed attached a URL to gets the paper's bare
// "http://domain/" visit.
func (ls *Labels) labelOne(w *ecosystem.World, crawler webcrawl.Visitor,
	zoneWindow simclock.Window, res *mailflow.Result, id int32) {
	d, sym, label := ls.Domains[id], ls.syms[id], &ls.rows[id]
	label.InZoneTLD = w.Registry.Covers(d)
	if label.InZoneTLD {
		label.DNS = w.Registry.AppearedDuring(d, zoneWindow)
	}
	if info, ok := w.Info(d); ok {
		label.Alexa = info.Alexa
		label.ODP = info.ODP
	}
	var urlBuf [16]symtab.ID
	urls := urlBuf[:0]
	for _, name := range res.Order {
		if u, _ := res.Feed(name).SampleURLID(sym); u != 0 && !slices.Contains(urls, u) {
			urls = append(urls, u)
		}
	}
	for _, u := range urls {
		label.record(crawler.Visit(ls.tab.Lookup(u)))
	}
	if len(urls) == 0 {
		label.record(crawler.Visit("http://" + string(d) + "/"))
	}
}

// record folds one crawl result into the label: any successful visit
// marks HTTP, and the first tagged visit supplies the tag.
func (l *Label) record(r webcrawl.Result) {
	if r.OK {
		l.HTTP = true
	}
	if r.Tagged && !l.Tagged {
		l.Tagged = true
		l.Program = r.Program
		l.Affiliate = r.Affiliate
		l.AffiliateKey = r.AffiliateKey
		l.Category = r.Category
	}
}

// zoneCheckWindow brackets the measurement window by 16 months on each
// side, as the paper's zone-file checks do.
func zoneCheckWindow(w *ecosystem.World) simclock.Window {
	return w.Config.Window.Extend(487, 487)
}

// NewDataset labels a collection run and bundles it for analysis.
func NewDataset(w *ecosystem.World, res *mailflow.Result) *Dataset {
	return &Dataset{World: w, Result: res, Labels: BuildLabels(w, res)}
}
