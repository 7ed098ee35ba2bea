package analysis

import (
	"sort"
	"sync"

	"tasterschoice/internal/bitset"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/parallel"
)

// Index is the dataset's interned-domain view: every domain occurring
// in any feed gets a dense integer id (assigned in sorted order, so
// ids are stable across runs), and each feed's membership becomes a
// bitset over those ids. The paper's coverage and intersection tables
// — recomputed in full for every class, as list-comparison studies
// must be — then reduce to word-wise AND/popcount passes that shard
// across workers.
//
// The index is built lazily on first use and cached; it assumes the
// Dataset is immutable from that point on, which holds for every
// dataset produced by simulate/NewDataset.
type Index struct {
	ds *Dataset
	// Domains maps id → name, ascending; ByName inverts it.
	Domains []domain.Name
	ByName  map[domain.Name]int32
	// labels[id] mirrors ds.Labels.Get(Domains[id]).
	labels []*Label
	// feedIDs[name] holds the feed's member ids, ascending.
	feedIDs map[string][]int32
	// feedBits[name] is the feed's membership bitset (class-unfiltered).
	feedBits map[string]*bitset.Set

	classOnce [3]sync.Once
	classes   [3]*classView
}

// classView caches the per-class structures shared by Coverage and
// Intersections: each feed's class-filtered bitset plus the
// once/multi accumulators over the feed order.
type classView struct {
	bits *bitset.Set // ids in the class
	// feed[i] = feedBits[order[i]] ∩ bits, indexed like Result.Order.
	feed []*bitset.Set
	// once: ids in ≥1 feed (the class union); multi: ids in ≥2 feeds.
	once, multi *bitset.Set
	unionSize   int
}

// Index returns the dataset's interned-domain index, building it on
// first use with one worker per CPU.
func (ds *Dataset) Index() *Index {
	ds.idxOnce.Do(func() {
		ds.idx = buildIndex(ds, 0)
	})
	return ds.idx
}

// buildIndex interns the union of feed domains (which BuildLabels
// labels exhaustively); label-only domains absent from every feed get
// no id — they cannot appear in any table.
func buildIndex(ds *Dataset, workers int) *Index {
	order := ds.Result.Order
	ix := &Index{
		ds:       ds,
		feedIDs:  make(map[string][]int32, len(order)),
		feedBits: make(map[string]*bitset.Set, len(order)),
	}

	union := make(map[domain.Name]struct{}, ds.Labels.Len())
	for _, name := range order {
		ds.Feed(name).EachUnordered(func(d domain.Name, _ feeds.DomainStat) {
			union[d] = struct{}{}
		})
	}
	ix.Domains = make([]domain.Name, 0, len(union))
	for d := range union {
		ix.Domains = append(ix.Domains, d)
	}
	sort.Slice(ix.Domains, func(i, j int) bool { return ix.Domains[i] < ix.Domains[j] })

	n := len(ix.Domains)
	ix.ByName = make(map[domain.Name]int32, n)
	for i, d := range ix.Domains {
		ix.ByName[d] = int32(i)
	}
	ix.labels = make([]*Label, n)
	parallel.Ranges(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ix.labels[i] = ds.Labels.Get(ix.Domains[i])
		}
	})

	// Per-feed id lists and bitsets, one feed per worker.
	ids := make([][]int32, len(order))
	bits := make([]*bitset.Set, len(order))
	parallel.ForEach(workers, len(order), func(i int) {
		f := ds.Feed(order[i])
		list := make([]int32, 0, f.Unique())
		b := bitset.New(n)
		f.EachUnordered(func(d domain.Name, _ feeds.DomainStat) {
			id := ix.ByName[d]
			list = append(list, id)
			b.Set(int(id))
		})
		sort.Slice(list, func(a, c int) bool { return list[a] < list[c] })
		ids[i] = list
		bits[i] = b
	})
	for i, name := range order {
		ix.feedIDs[name] = ids[i]
		ix.feedBits[name] = bits[i]
	}
	return ix
}

// Label returns the label for id (nil if the domain was unlabeled).
func (ix *Index) Label(id int32) *Label { return ix.labels[id] }

// FeedIDs returns the feed's member ids in ascending order.
func (ix *Index) FeedIDs(name string) []int32 { return ix.feedIDs[name] }

// class returns the cached per-class view, building it on first use.
func (ix *Index) class(c DomainClass) *classView {
	ix.classOnce[c].Do(func() {
		ix.classes[c] = ix.buildClass(c, 0)
	})
	return ix.classes[c]
}

func (ix *Index) buildClass(c DomainClass, workers int) *classView {
	n := len(ix.Domains)
	cv := &classView{bits: bitset.New(n)}
	// Membership bits: word-sharded, so each worker owns whole 64-bit
	// words and no two workers read-modify-write the same one.
	parallel.Ranges(workers, len(cv.bits.Words()), func(lo, hi int) {
		for i := lo * 64; i < hi*64 && i < n; i++ {
			if c.member(ix.labels[i]) {
				cv.bits.Set(i)
			}
		}
	})
	order := ix.ds.Result.Order
	cv.feed = make([]*bitset.Set, len(order))
	parallel.ForEach(workers, len(order), func(i int) {
		fb := ix.feedBits[order[i]]
		fc := bitset.New(n)
		words, cw, fw := fc.Words(), cv.bits.Words(), fb.Words()
		for w := range words {
			words[w] = cw[w] & fw[w]
		}
		cv.feed[i] = fc
	})
	// once/multi accumulation: word-sharded; within each range the
	// feeds fold in canonical order, so the result is independent of
	// the worker count.
	cv.once, cv.multi = bitset.New(n), bitset.New(n)
	nw := len(cv.once.Words())
	parallel.Ranges(workers, nw, func(lo, hi int) {
		for _, f := range cv.feed {
			bitset.AccumulateOnceMulti(cv.once, cv.multi, f, lo, hi)
		}
	})
	cv.unionSize = cv.once.Count()
	return cv
}
