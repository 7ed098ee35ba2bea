package analysis

import (
	"slices"
	"sync"

	"tasterschoice/internal/bitset"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/symtab"
)

// Index is the dataset's feed-membership view over the Labels id
// space: each feed becomes a bitset over the ids. The paper's coverage
// and intersection tables — recomputed in full for every class, as
// list-comparison studies must be — then reduce to word-wise
// AND/popcount passes that shard across workers, and every per-feed
// walk visits ids (hence names) in ascending order.
//
// The index is built lazily on first use and cached; it assumes the
// Dataset is immutable from that point on, which holds for every
// dataset produced by simulate/NewDataset.
type Index struct {
	ds *Dataset
	// feedBits[name] is the feed's membership bitset (class-unfiltered).
	feedBits map[string]*bitset.Set

	classOnce [3]sync.Once
	classes   [3]*classView
}

// classView caches the per-class structures shared by the tables and
// figures: each feed's class-filtered bitset plus the once/multi
// accumulators over the feed order.
type classView struct {
	bits *bitset.Set // ids in the class
	// feed[i] = feedBits[order[i]] ∩ bits, indexed like Result.Order.
	feed []*bitset.Set
	// once: ids in ≥1 feed (the class union); multi: ids in ≥2 feeds.
	once, multi *bitset.Set
	unionSize   int
}

// Index returns the dataset's feed-membership index, building it on
// first use with one worker per CPU.
func (ds *Dataset) Index() *Index {
	ds.idxOnce.Do(func() {
		ds.idx = buildIndex(ds, 0)
	})
	return ds.idx
}

// buildIndex sets each feed's member ids, one feed per worker.
func buildIndex(ds *Dataset, workers int) *Index {
	order := ds.Result.Order
	ls := ds.Labels
	bits := make([]*bitset.Set, len(order))
	parallel.ForEach(workers, len(order), func(i int) {
		b := bitset.New(ls.Len())
		ds.Feed(order[i]).EachIDUnordered(func(sym symtab.ID, _ int64) {
			if id, ok := ls.id(sym); ok {
				b.Set(int(id))
			}
		})
		bits[i] = b
	})
	ix := &Index{ds: ds, feedBits: make(map[string]*bitset.Set, len(order))}
	for i, name := range order {
		ix.feedBits[name] = bits[i]
	}
	return ix
}

// label returns the label row for id.
func (ix *Index) label(id int) *Label { return &ix.ds.Labels.rows[id] }

// sym returns id's world-table symbol, the key feeds and the oracle
// store.
func (ix *Index) sym(id int) symtab.ID { return ix.ds.Labels.syms[id] }

// classFeed returns the named feed's members in class c.
func (ix *Index) classFeed(c DomainClass, name string) *bitset.Set {
	i := slices.Index(ix.ds.Result.Order, name)
	if i < 0 {
		panic(&mailflow.UnknownFeedError{Name: name})
	}
	return ix.class(c).feed[i]
}

// class returns the cached per-class view, building it on first use.
func (ix *Index) class(c DomainClass) *classView {
	ix.classOnce[c].Do(func() {
		ix.classes[c] = ix.buildClass(c, 0)
	})
	return ix.classes[c]
}

func (ix *Index) buildClass(c DomainClass, workers int) *classView {
	n := ix.ds.Labels.Len()
	cv := &classView{bits: bitset.New(n)}
	// Membership bits: word-sharded, so each worker owns whole 64-bit
	// words and no two workers read-modify-write the same one.
	parallel.Ranges(workers, len(cv.bits.Words()), func(lo, hi int) {
		for i := lo * 64; i < hi*64 && i < n; i++ {
			if c.member(ix.label(i)) {
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
