package analysis

import (
	"fmt"
	"sort"
)

// taggedKeys returns, per feed in canonical order, the set of keys
// key yields over the feed's tagged domains ("" yields nothing).
func taggedKeys(ds *Dataset, key func(l *Label) string) []map[string]bool {
	ix := ds.Index()
	order := ds.Result.Order
	sets := make([]map[string]bool, len(order))
	for i, name := range order {
		set := make(map[string]bool)
		ix.classFeed(ClassTagged, name).Each(func(id int) {
			if k := key(ix.label(id)); k != "" {
				set[k] = true
			}
		})
		sets[i] = set
	}
	return sets
}

// programKey renders a tagged domain's affiliate program id as a set
// key (the Matrix machinery is string-set based).
func programKey(l *Label) string {
	if l.Program < 0 {
		return ""
	}
	return fmt.Sprintf("p%d", l.Program)
}

// affiliateKey is a tagged domain's RX affiliate identifier.
func affiliateKey(l *Label) string { return l.AffiliateKey }

// ProgramCoverage computes Figure 4: the pairwise affiliate-program
// coverage matrix.
func ProgramCoverage(ds *Dataset) *Matrix {
	return NewMatrix(ds.Result.Order, taggedKeys(ds, programKey))
}

// AffiliateCoverage computes Figure 5: the pairwise RX-Promotion
// affiliate-identifier coverage matrix.
func AffiliateCoverage(ds *Dataset) *Matrix {
	return NewMatrix(ds.Result.Order, taggedKeys(ds, affiliateKey))
}

// RevenueRow is one feed's bar in Figure 6.
type RevenueRow struct {
	Name string
	// Revenue is the summed annual revenue (USD) of the RX affiliates
	// whose identifiers the feed covers.
	Revenue float64
	// Affiliates is the number of RX identifiers covered.
	Affiliates int
}

// RevenueCoverage computes Figure 6: per-feed RX affiliate coverage
// weighted by each affiliate's annual revenue from the leaked-ledger
// stand-in. TotalRevenue is the revenue of all RX affiliates seen in
// any feed.
func RevenueCoverage(ds *Dataset) (rows []RevenueRow, totalRevenue float64) {
	// Build key → revenue from the world's RX roster.
	rx := ds.World.RXProgram()
	revenueOf := make(map[string]float64)
	for i := range ds.World.Affiliates {
		a := &ds.World.Affiliates[i]
		if a.Program == rx.ID && a.Key != "" {
			revenueOf[a.Key] = a.AnnualRevenue
		}
	}
	union := make(map[string]bool)
	for i, keys := range taggedKeys(ds, affiliateKey) {
		row := RevenueRow{Name: ds.Result.Order[i], Affiliates: len(keys)}
		// Sum in sorted key order: float addition is not associative,
		// so map-order summation would vary in the last ulp per run.
		for _, k := range sortedKeys(keys) {
			row.Revenue += revenueOf[k]
			union[k] = true
		}
		rows = append(rows, row)
	}
	for _, k := range sortedKeys(union) {
		totalRevenue += revenueOf[k]
	}
	return rows, totalRevenue
}

// sortedKeys returns the set's keys in lexicographic order, the
// canonical iteration order for float accumulation.
func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
