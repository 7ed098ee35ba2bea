package analysis

import (
	"tasterschoice/internal/bitset"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/stats"
	"tasterschoice/internal/symtab"
)

// VolumeFeeds returns the feeds whose per-domain counts carry volume
// information, in canonical order — the only feeds admissible to the
// proportionality analysis (the paper excludes Hu, Hyb and both
// blacklists here).
func VolumeFeeds(ds *Dataset) []string {
	var out []string
	for _, name := range ds.Result.Order {
		if ds.Feed(name).HasVolume {
			out = append(out, name)
		}
	}
	return out
}

// MailColumn is the label used for the incoming-mail oracle's column in
// the proportionality matrices.
const MailColumn = "Mail"

// feedTaggedDist returns a feed's empirical volume distribution over
// its tagged domains.
func feedTaggedDist(ds *Dataset, name string) stats.Dist {
	return volumeDist(ds, ds.Index().classFeed(ClassTagged, name), feedCount(ds.Feed(name)))
}

// mailTaggedDist returns the oracle's volume distribution over the
// tagged domains appearing in at least one feed (pi = 0 outside the
// union, per the paper).
func mailTaggedDist(ds *Dataset) stats.Dist {
	return volumeDist(ds, ds.Index().class(ClassTagged).bits, ds.Result.Oracle.VolumeID)
}

// volumeDist is the empirical distribution of volume over the ids,
// keyed by domain name.
func volumeDist(ds *Dataset, ids *bitset.Set, volume func(symtab.ID) int64) stats.Dist {
	ls := ds.Labels
	counts := make(map[string]int64)
	ids.Each(func(id int) {
		if c := volume(ls.syms[id]); c > 0 {
			counts[string(ls.Domains[id])] = c
		}
	})
	return stats.NewDistFromCounts(counts)
}

// feedCount returns a feed's per-symbol sample count.
func feedCount(f *feeds.Feed) func(symtab.ID) int64 {
	return func(sym symtab.ID) int64 {
		s, _ := f.StatID(sym)
		return s.Count
	}
}

// PairwiseDist holds a symmetric pairwise comparison over the volume
// feeds plus the Mail oracle column.
type PairwiseDist struct {
	// Names lists the compared feeds, Mail first (matching the
	// paper's Figures 7 and 8 layout).
	Names []string
	// Value[i][j] is the metric between feeds i and j; NaN-free: OK
	// reports whether the pair was comparable (Kendall needs >= 2
	// common domains).
	Value [][]float64
	OK    [][]bool
}

// VariationDistances computes Figure 7: pairwise variation distance of
// tagged-domain volume distributions, including the Mail oracle.
func VariationDistances(ds *Dataset) *PairwiseDist {
	names, dists := proportionInputs(ds)
	n := len(names)
	out := &PairwiseDist{Names: names, Value: make([][]float64, n), OK: make([][]bool, n)}
	parallel.ForEach(0, n, func(i int) {
		out.Value[i] = make([]float64, n)
		out.OK[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			out.Value[i][j] = stats.VariationDistance(dists[i], dists[j])
			out.OK[i][j] = true
		}
	})
	return out
}

// KendallTaus computes Figure 8: pairwise Kendall rank correlation
// (tau-b) of tagged-domain volumes, including the Mail oracle.
func KendallTaus(ds *Dataset) *PairwiseDist {
	names, dists := proportionInputs(ds)
	n := len(names)
	out := &PairwiseDist{Names: names, Value: make([][]float64, n), OK: make([][]bool, n)}
	parallel.ForEach(0, n, func(i int) {
		out.Value[i] = make([]float64, n)
		out.OK[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			tau, _, ok := stats.KendallTauB(dists[i], dists[j])
			out.Value[i][j] = tau
			out.OK[i][j] = ok
		}
	})
	return out
}

// proportionInputs assembles the Mail oracle distribution plus each
// volume feed's tagged distribution, one input per worker.
func proportionInputs(ds *Dataset) ([]string, []stats.Dist) {
	names := append([]string{MailColumn}, VolumeFeeds(ds)...)
	dists := make([]stats.Dist, len(names))
	parallel.ForEach(0, len(names), func(i int) {
		if i == 0 {
			dists[0] = mailTaggedDist(ds)
			return
		}
		dists[i] = feedTaggedDist(ds, names[i])
	})
	return names, dists
}
