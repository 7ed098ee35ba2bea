package analysis

import (
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/stats"
)

// This file pins the original single-threaded map-based table
// computations. They are the reference implementations: the golden
// determinism tests assert the indexed/parallel paths produce
// identical rows, and cmd/bench measures speedup against them. Keep
// them dumb and sequential — their value is being obviously correct
// and stable while the fast paths evolve.

// feedDomainsSerial returns the feed's domains in the class as a set
// of plain strings, via the sorted Each walk and per-domain label
// lookups — the reference set builder.
func feedDomainsSerial(ds *Dataset, name string, class DomainClass) map[string]bool {
	out := make(map[string]bool)
	ds.Feed(name).Each(func(d domain.Name, _ feeds.DomainStat) {
		if class.member(ds.Labels.Get(d)) {
			out[string(d)] = true
		}
	})
	return out
}

// CoverageSerial computes Table 3 exactly as Coverage, one feed at a
// time over plain map sets.
func CoverageSerial(ds *Dataset, class DomainClass) []CoverageRow {
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		sets[i] = feedDomainsSerial(ds, name, class)
	}
	occurrences := make(map[string]int)
	for _, set := range sets {
		for d := range set {
			occurrences[d]++
		}
	}
	out := make([]CoverageRow, len(order))
	for i, name := range order {
		row := CoverageRow{Name: name, Total: len(sets[i])}
		for d := range sets[i] {
			if occurrences[d] == 1 {
				row.Exclusive++
			}
		}
		out[i] = row
	}
	return out
}

// IntersectionsSerial computes Figure 2 exactly as Intersections, via
// pairwise map walks.
func IntersectionsSerial(ds *Dataset, class DomainClass) *Matrix {
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		sets[i] = feedDomainsSerial(ds, name, class)
	}
	return newMatrixSerial(order, sets)
}

// newMatrixSerial is NewMatrix without the per-row worker fan-out.
func newMatrixSerial(names []string, sets []map[string]bool) *Matrix {
	n := len(names)
	union := make(map[string]bool)
	for _, s := range sets {
		for d := range s {
			union[d] = true
		}
	}
	m := &Matrix{
		Names:     append([]string(nil), names...),
		Count:     make([][]int, n),
		Frac:      make([][]float64, n),
		SetSizes:  make([]int, n),
		UnionSize: len(union),
	}
	for i := range sets {
		m.SetSizes[i] = len(sets[i])
	}
	for i := 0; i < n; i++ {
		m.Count[i] = make([]int, n+1)
		m.Frac[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			small, large := sets[i], sets[j]
			if len(small) > len(large) {
				small, large = large, small
			}
			c := 0
			for d := range small {
				if large[d] {
					c++
				}
			}
			m.Count[i][j] = c
			m.Frac[i][j] = stats.Fraction(c, len(sets[j]))
		}
		m.Count[i][n] = len(sets[i])
		m.Frac[i][n] = stats.Fraction(len(sets[i]), len(union))
	}
	return m
}

// PuritySerial computes Table 2 exactly as Purity, one feed at a time.
func PuritySerial(ds *Dataset) []PurityRow {
	out := make([]PurityRow, 0, len(ds.Result.Order))
	for _, name := range ds.Result.Order {
		out = append(out, purityRow(ds, name))
	}
	return out
}
