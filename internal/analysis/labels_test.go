package analysis_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
	"tasterschoice/internal/webcrawl"
)

// collected is a generated world and its collection run, unlabeled.
type collected struct {
	world *ecosystem.World
	res   *mailflow.Result
}

func collect(tb testing.TB, sc simulate.Scenario) collected {
	tb.Helper()
	w, err := ecosystem.Generate(sc.Ecosystem)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := mailflow.New(w, sc.Collection).Run()
	if err != nil {
		tb.Fatal(err)
	}
	return collected{w, res}
}

var (
	default7Once sync.Once
	default7     collected
)

// collectDefault7 is the Default(7) collection, built once per binary.
func collectDefault7(tb testing.TB) collected {
	default7Once.Do(func() { default7 = collect(tb, simulate.Default(7)) })
	return default7
}

// TestSymbolLabelsMatchVisitorLabels is the differential check of the
// symbol crawl: BuildLabelsConcurrent (VisitSym on feed-row symbols)
// must label exactly as BuildLabelsWith over webcrawl's string Visit,
// which re-parses every URL.
func TestSymbolLabelsMatchVisitorLabels(t *testing.T) {
	cases := []struct {
		name string
		get  func() collected
	}{
		{"default-7", func() collected { return collectDefault7(t) }},
		{"default-2010", func() collected { return collect(t, simulate.Default(2010)) }},
		{"paper-ratio-2010", func() collected { return collect(t, simulate.PaperRatio(2010)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			col := c.get()
			sym := analysis.BuildLabelsConcurrent(col.world, col.res, 2)
			str := analysis.BuildLabelsWith(col.world, col.res, 2, func() webcrawl.Visitor {
				return webcrawl.New(col.world)
			})
			if !slices.Equal(sym.Domains, str.Domains) {
				t.Fatalf("id spaces differ: %d vs %d domains", len(sym.Domains), len(str.Domains))
			}
			for _, d := range sym.Domains {
				if a, b := sym.Get(d), str.Get(d); *a != *b {
					t.Fatalf("%s: symbol crawl %+v, string crawl %+v", d, *a, *b)
				}
			}
		})
	}
}

// labelAlloc returns the bytes BuildLabelsConcurrent allocates on a
// cold collection of sc, and the number of domains it labels.
func labelAlloc(t *testing.T, sc simulate.Scenario) (alloc uint64, domains int) {
	t.Helper()
	col := collect(t, sc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ls := analysis.BuildLabelsConcurrent(col.world, col.res, 2)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, ls.Len()
}

// TestBuildLabelsAllocLinear is a complexity guard on labeling:
// doubling both poison streams of a cold Small world adds fresh
// domains the world does not know, and the bytes allocated per labeled
// domain must stay within 1.5x of the undoubled run. Per-domain work
// sized by something larger than the union (a per-domain copy of a
// per-symbol array, a per-domain rescan of the feeds) shows here.
func TestBuildLabelsAllocLinear(t *testing.T) {
	base := simulate.Small(3)
	doubled := simulate.Small(3)
	doubled.Collection.PoisonBotArrivals *= 2
	doubled.Collection.PoisonMX2Arrivals *= 2
	a1, n1 := labelAlloc(t, base)
	a2, n2 := labelAlloc(t, doubled)
	if n2 <= n1 {
		t.Fatalf("doubled poison labeled %d domains, base %d", n2, n1)
	}
	per1, per2 := float64(a1)/float64(n1), float64(a2)/float64(n2)
	t.Logf("base: %d B over %d domains (%.1f B/domain); doubled poison: %d B over %d domains (%.1f B/domain)",
		a1, n1, per1, a2, n2, per2)
	if per2 > 1.5*per1 {
		t.Fatalf("labeling allocated %.1f B per domain with doubled poison, %.1f B at base; want <= 1.5x", per2, per1)
	}
}

// TestBuildLabelsAllocBudget holds BuildLabelsConcurrent at Default(7)
// to the labeling entry's 20,000 allocs/op budget in
// BENCH_baseline.json.
func TestBuildLabelsAllocBudget(t *testing.T) {
	const budget = 20_000
	col := collectDefault7(t)
	allocs := testing.AllocsPerRun(2, func() {
		analysis.BuildLabelsConcurrent(col.world, col.res, 2)
	})
	t.Logf("BuildLabelsConcurrent at Default(7): %.0f allocs/op", allocs)
	if allocs > budget {
		t.Fatalf("BuildLabelsConcurrent made %.0f allocs/op; budget %d", allocs, budget)
	}
}

// BenchmarkBuildLabelsConcurrent times symbol-crawl labeling of the
// Default(7) collection with GOMAXPROCS workers.
func BenchmarkBuildLabelsConcurrent(b *testing.B) {
	col := collectDefault7(b)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		analysis.BuildLabelsConcurrent(col.world, col.res, workers)
	}
}
