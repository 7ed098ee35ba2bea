package analysis

import "tasterschoice/internal/bitset"

// Greedy feed selection: the paper's §5 advice — "when working with
// multiple feeds, the priority should be to obtain a set that is as
// diverse as possible; additional feeds of the same type offer reduced
// added value" — turned into an algorithm. Greedy set cover over the
// feeds' domain sets yields an acquisition order and shows exactly how
// fast marginal value decays (and that the second MX honeypot buys
// almost nothing).

// SelectionStep is one round of greedy feed acquisition.
type SelectionStep struct {
	// Feed is the feed chosen this round.
	Feed string
	// Marginal is the number of new domains it contributes beyond the
	// feeds already chosen.
	Marginal int
	// Cumulative is the union size after adding it; CumulativeFrac is
	// that union over the all-feeds union.
	Cumulative     int
	CumulativeFrac float64
}

// GreedySelection repeatedly picks the feed with the largest marginal
// contribution of domains in the given class, until every feed is
// chosen. Ties break toward the canonical feed order.
func GreedySelection(ds *Dataset, class DomainClass) []SelectionStep {
	cv := ds.Index().class(class)
	covered := bitset.New(ds.Labels.Len())
	nw := len(covered.Words())
	remaining := make([]int, len(ds.Result.Order))
	for i := range remaining {
		remaining[i] = i
	}
	steps := make([]SelectionStep, 0, len(remaining))
	cumulative := 0
	for len(remaining) > 0 {
		bestIdx, bestGain := 0, -1
		for i, f := range remaining {
			set := cv.feed[f]
			if gain := set.AndNotCountRange(set, covered, 0, nw); gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		f := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		covered.OrInRange(cv.feed[f], 0, nw)
		cumulative += bestGain
		frac := 0.0
		if cv.unionSize > 0 {
			frac = float64(cumulative) / float64(cv.unionSize)
		}
		steps = append(steps, SelectionStep{
			Feed:           ds.Result.Order[f],
			Marginal:       bestGain,
			Cumulative:     cumulative,
			CumulativeFrac: frac,
		})
	}
	return steps
}
