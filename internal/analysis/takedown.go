package analysis

import (
	"sort"

	"tasterschoice/internal/domain"
)

// Takedown prioritization: the paper motivates proportionality with
// "domain take-downs are best prioritized to target high-volume
// domains first" (§4.3). This extension measures directly how well
// each volume feed would prioritize: pick the feed's top-k tagged
// domains by its own counts and ask how many are in the oracle's true
// top-k.

// TakedownRow is one feed's top-k precision.
type TakedownRow struct {
	Name string
	// Hits is how many of the feed's top-K domains are in the true
	// (oracle) top-K; Precision = Hits/K.
	Hits      int
	K         int
	Precision float64
}

// TakedownPrecision computes top-k precision for every volume feed.
// The truth set is the oracle's top-k tagged domains (over the union
// of feeds' tagged domains).
func TakedownPrecision(ds *Dataset, k int) []TakedownRow {
	truth := topK(mailTaggedDist(ds), k)
	rows := make([]TakedownRow, 0, len(VolumeFeeds(ds)))
	for _, name := range VolumeFeeds(ds) {
		top := topK(feedTaggedDist(ds, name), k)
		hits := 0
		for d := range top {
			if truth[d] {
				hits++
			}
		}
		rows = append(rows, TakedownRow{
			Name: name, Hits: hits, K: k,
			Precision: float64(hits) / float64(k),
		})
	}
	return rows
}

// topK returns the k highest-probability keys of a distribution as a
// set; ties break lexicographically for determinism.
func topK(dist map[string]float64, k int) map[string]bool {
	type kv struct {
		key string
		p   float64
	}
	items := make([]kv, 0, len(dist))
	for key, p := range dist {
		items = append(items, kv{key, p})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].p != items[j].p {
			return items[i].p > items[j].p
		}
		return items[i].key < items[j].key
	})
	if k > len(items) {
		k = len(items)
	}
	out := make(map[string]bool, k)
	for _, it := range items[:k] {
		out[it.key] = true
	}
	return out
}

// TopDomains returns a feed's k highest-volume tagged domains in
// descending order — the list a take-down effort would work from.
func TopDomains(ds *Dataset, feedName string, k int) []domain.Name {
	dist := feedTaggedDist(ds, feedName)
	set := topK(dist, k)
	out := make([]domain.Name, 0, len(set))
	for d := range set {
		out = append(out, domain.Name(d))
	}
	sort.Slice(out, func(i, j int) bool {
		if dist[string(out[i])] != dist[string(out[j])] {
			return dist[string(out[i])] > dist[string(out[j])]
		}
		return out[i] < out[j]
	})
	return out
}
