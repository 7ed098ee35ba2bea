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
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/parallel"
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
// It crawls on symbols (webcrawl.Crawler.VisitSym), so no URL string is
// parsed. The result is identical for any worker count: each domain's
// label is computed independently.
func BuildLabelsConcurrent(w *ecosystem.World, res *mailflow.Result, workers int) *Labels {
	return buildLabels(w, res, workers, func() symVisitor { return webcrawl.New(w) })
}

// BuildLabelsWith labels using caller-provided crawler instances — one
// per worker — so the crawl can run over the in-process simulator or a
// real-HTTP webhost crawler interchangeably. Each visit passes the URL
// string to Visit, once per distinct URL, exactly as BuildLabels
// visits; everything else is shared with it. Every feed must be bound
// to the world's symbol table, as the collection engine binds them.
func BuildLabelsWith(w *ecosystem.World, res *mailflow.Result, workers int,
	newVisitor func() webcrawl.Visitor) *Labels {
	return buildLabels(w, res, workers, func() symVisitor {
		return stringVisitor{v: newVisitor(), tab: w.Syms}
	})
}

// symVisitor crawls a feed row's (domain, URL) symbol pair; URL 0 is
// the domain's bare root. *webcrawl.Crawler implements it.
type symVisitor interface {
	VisitSym(d, u symtab.ID) webcrawl.Result
}

// stringVisitor adapts a webcrawl.Visitor: each visit is one Visit
// call on the URL's string.
type stringVisitor struct {
	v   webcrawl.Visitor
	tab *symtab.Table
}

func (s stringVisitor) VisitSym(d, u symtab.ID) webcrawl.Result {
	if u == 0 {
		return s.v.Visit("http://" + s.tab.Lookup(d) + "/")
	}
	return s.v.Visit(s.tab.Lookup(u))
}

// labelChunk is the number of consecutive ids a label worker claims at
// a time: large enough that claiming and the chunk's one zone-file
// lock are free, small enough that the slow ids (known domains, many
// URLs) spread across workers.
const labelChunk = 512

func buildLabels(w *ecosystem.World, res *mailflow.Result, workers int,
	newVisitor func() symVisitor) *Labels {
	if workers < 1 {
		workers = 1
	}
	ls := &Labels{tab: w.Syms, ids: make([]int32, w.Syms.Len())}
	urls, off, end := ls.sampleURLs(res, ls.rank(w, res, workers))
	n := len(ls.syms)

	zoneWindow := zoneCheckWindow(w)
	chunks := (n + labelChunk - 1) / labelChunk
	// One visitor per worker: ForEach runs at most min(workers, chunks)
	// calls at once, so a call always finds a free visitor.
	visitors := make(chan symVisitor, min(workers, chunks))
	for range cap(visitors) {
		visitors <- newVisitor()
	}
	parallel.ForEach(workers, chunks, func(c int) {
		v := <-visitors
		lo, hi := c*labelChunk, min(n, (c+1)*labelChunk)
		for id := lo; id < hi; id++ {
			ls.labelOne(w, v, int32(id), urls[off[id]:end[id]])
		}
		ls.zoneCheck(w, zoneWindow, lo, hi)
		visitors <- v
	})
	return ls
}

// nameKey packs a name's first eight bytes big-endian, a missing byte
// counting as zero, so nameKey(a) < nameKey(b) implies a < b. Its top
// two bytes pick the name's bucket.
func nameKey(s string) uint64 {
	var k uint64
	for i := range 8 {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

// buckets is the number of two-byte name prefixes rank buckets the
// union by.
const buckets = 1 << 16

// rank builds the id space: the union of the feeds' symbols, ranked by
// name, with each id's InZoneTLD. One parallel pass reads each name
// once, for its sort key and its TLD's zone coverage; a parallel
// counting sort scatters the union into two-byte prefix buckets, and
// the buckets are sorted on parallel.ForEach, which leaves the whole
// union in order with no merge. rank returns, at [id+1], the number of
// the id's feed rows that carry a URL.
func (ls *Labels) rank(w *ecosystem.World, res *mailflow.Result, workers int) (urlRows []int32) {
	// The union, in first-seen order. ids[sym] is 1 plus the number of
	// the symbol's rows that carry a URL, until the symbol is ranked.
	var union []symtab.ID
	for _, name := range res.Order {
		f := res.Feed(name)
		if f.Syms() != ls.tab {
			//lint:allow stringalloc -- fatal misuse path, reached at most once
			panic("analysis: feed " + name + " is not bound to the world symbol table")
		}
		f.EachURLIDUnordered(func(sym, u symtab.ID) {
			if ls.ids[sym] == 0 {
				ls.ids[sym] = 1
				union = append(union, sym)
			}
			if u != 0 {
				ls.ids[sym]++
			}
		})
	}
	n := len(union)

	// Read each name once, in parallel segments of the union: its sort
	// key and zone coverage, and per segment, how many names fall in
	// each bucket.
	names := make([]string, n)
	keys := make([]uint64, n)
	covered := make([]bool, n)
	segs := min(workers, max(n, 1))
	counts := make([][]int32, segs)
	parallel.ForEach(workers, segs, func(g int) {
		count := make([]int32, buckets)
		for i := g * n / segs; i < (g+1)*n/segs; i++ {
			s := ls.tab.Lookup(union[i])
			names[i], keys[i] = s, nameKey(s)
			covered[i] = w.Registry.Covers(domain.Name(s))
			count[keys[i]>>48]++
		}
		counts[g] = count
	})
	// Bucket b holds ids [start[b], start[b+1]); each segment's names
	// land in it from counts[g][b] on, so the segments scatter in
	// parallel.
	start := make([]int32, buckets+1)
	var full []int32
	for b := range buckets {
		at := start[b]
		for _, count := range counts {
			at, count[b] = at+count[b], at
		}
		start[b+1] = at
		if at > start[b] {
			full = append(full, int32(b))
		}
	}
	order := make([]int32, n)
	parallel.ForEach(workers, segs, func(g int) {
		next := counts[g]
		for i := g * n / segs; i < (g+1)*n/segs; i++ {
			b := keys[i] >> 48
			order[next[b]] = int32(i)
			next[b]++
		}
	})

	// Sort each bucket and assign its ids.
	ls.Domains = make([]domain.Name, n)
	ls.syms = make([]symtab.ID, n)
	ls.rows = make([]Label, n)
	urlRows = make([]int32, n+1)
	scratch := make([]uint64, n)
	parallel.ForEach(workers, len(full), func(j int) {
		lo, hi := start[full[j]], start[full[j]+1]
		part := order[lo:hi]
		sortBucket(part, keys, names, scratch[lo:hi])
		for k, i := range part {
			id, sym := lo+int32(k), union[i]
			ls.Domains[id] = domain.Name(names[i])
			ls.syms[id] = sym
			ls.rows[id].InZoneTLD = covered[i]
			urlRows[id+1] = ls.ids[sym] - 1
			ls.ids[sym] = id + 1
		}
	})
	return urlRows
}

// sampleURLs gathers every id's distinct sample URLs in one walk over
// the feeds' rows, in res.Order, deduplicated by symbol: id's URLs are
// urls[off[id]:end[id]], in first-feed order. It turns rank's URL row
// counts, which bound each id's list, into off in place.
func (ls *Labels) sampleURLs(res *mailflow.Result, urlRows []int32) (urls []symtab.ID, off, end []int32) {
	n := len(ls.syms)
	off = urlRows
	for id := range n {
		off[id+1] += off[id]
	}
	urls = make([]symtab.ID, off[n])
	end = slices.Clone(off[:n])
	for _, name := range res.Order {
		res.Feed(name).EachURLIDUnordered(func(sym, u symtab.ID) {
			if u == 0 {
				return
			}
			id := ls.ids[sym] - 1
			if !slices.Contains(urls[off[id]:end[id]], u) {
				urls[end[id]] = u
				end[id]++
			}
		})
	}
	return urls, off, end
}

// sortBucket puts one bucket's union indexes in name order. Each
// index's position rides in the low bits of its name key (the bucket's
// two key bytes dropped), so a plain integer sort does the work; only
// names whose remaining key bits tie are compared as strings. scratch
// is as long as part.
func sortBucket(part []int32, keys []uint64, names []string, scratch []uint64) {
	mask := uint64(1)<<bits.Len(uint(len(part)-1)) - 1
	for j, i := range part {
		scratch[j] = keys[i]<<16&^mask | uint64(j)
	}
	slices.Sort(scratch)
	for lo := 0; lo < len(scratch); {
		hi := lo + 1
		for hi < len(scratch) && scratch[hi]&^mask == scratch[lo]&^mask {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(scratch[lo:hi], func(x, y uint64) int {
				return strings.Compare(names[part[x&mask]], names[part[y&mask]])
			})
		}
		lo = hi
	}
	for r, v := range scratch {
		scratch[r] = uint64(part[v&mask])
	}
	for r, v := range scratch {
		part[r] = int32(v)
	}
}

// labelOne crawls one domain and records its benign-list memberships.
// It visits the domain's distinct sample URLs (URL feeds preserve
// redirection context); a domain no feed attached a URL to gets the
// paper's bare "http://domain/" visit.
func (ls *Labels) labelOne(w *ecosystem.World, v symVisitor, id int32, urls []symtab.ID) {
	sym, label := ls.syms[id], &ls.rows[id]
	label.Program, label.Affiliate = -1, -1
	if info, ok := w.InfoSym(sym); ok {
		label.Alexa = info.Alexa
		label.ODP = info.ODP
	}
	for _, u := range urls {
		r := v.VisitSym(sym, u)
		label.record(&r)
	}
	if len(urls) == 0 {
		r := v.VisitSym(sym, 0)
		label.record(&r)
	}
}

// zoneCheck sets DNS for ids [lo, hi): whether each appeared in its
// zone during the window. Only names the world has ground truth for
// are ever registered, so only those in a covered TLD are looked up,
// all under one registry lock.
func (ls *Labels) zoneCheck(w *ecosystem.World, window simclock.Window, lo, hi int) {
	var names [labelChunk]domain.Name
	var at [labelChunk]int
	var found [labelChunk]bool
	k := 0
	for id := lo; id < hi; id++ {
		if _, ok := w.InfoSym(ls.syms[id]); ok && ls.rows[id].InZoneTLD {
			names[k], at[k] = ls.Domains[id], id
			k++
		}
	}
	w.Registry.AppearedDuringEach(names[:k], window, found[:k])
	for j, id := range at[:k] {
		ls.rows[id].DNS = found[j]
	}
}

// record folds one crawl result into the label: any successful visit
// marks HTTP, and the first tagged visit supplies the tag.
func (l *Label) record(r *webcrawl.Result) {
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
