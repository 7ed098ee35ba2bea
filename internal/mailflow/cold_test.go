package mailflow_test

import (
	"runtime"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/simulate"
)

// collectAlloc generates a fresh world for sc and returns the bytes
// one cold collection run over it allocates, and the arrivals it
// buffered: feed arrivals plus webmail messages.
func collectAlloc(t *testing.T, sc simulate.Scenario) (alloc uint64, arrivals int64) {
	t.Helper()
	world := ecosystem.MustGenerate(sc.Ecosystem)
	eng := mailflow.New(world, sc.Collection)
	eng.Metrics = mailflow.NewMetrics(obs.NewRegistry())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc,
		eng.Metrics.Observations.Value() + eng.Metrics.WebmailMessages.Value()
}

// TestColdCollectionPoisonLinear is a complexity guard on the cold
// collection path: doubling both poison streams adds fresh domains to
// a table that has never seen them, and must not more than ~double the
// bytes the whole run allocates. Per-symbol work that is superlinear
// in the table size (such as regrowing a per-symbol cache by one slot
// per fresh domain) shows here as a far larger ratio.
func TestColdCollectionPoisonLinear(t *testing.T) {
	base := simulate.Small(3)
	doubled := simulate.Small(3)
	doubled.Collection.PoisonBotArrivals *= 2
	doubled.Collection.PoisonMX2Arrivals *= 2
	small, _ := collectAlloc(t, base)
	large, _ := collectAlloc(t, doubled)
	ratio := float64(large) / float64(small)
	t.Logf("cold collection allocated %d B, %d B with doubled poison (ratio %.2f)", small, large, ratio)
	if ratio > 2.5 {
		t.Fatalf("cold collection allocation grew %.2fx when poison arrivals doubled; want <= 2.5x", ratio)
	}
}

// TestCollectionAllocLinearInVolume is a complexity guard on volume:
// quadrupling every campaign volume median of a cold Small world must
// cost a bounded number of extra bytes per extra buffered arrival. A
// plan that buffers an arrival in its 8-byte time, drawn into blocks
// that never move, measures ~12 B per arrival; per-arrival records
// grown by append (24-byte records plus a time scratch copy, each
// regrown geometrically) measured ~89 B. The bound sits between.
func TestCollectionAllocLinearInVolume(t *testing.T) {
	const maxBytesPerArrival = 32
	a1, n1 := collectAlloc(t, simulate.Small(3))
	a4, n4 := collectAlloc(t, simulate.Small(3).WithVolumes(4))
	if n4 <= n1 {
		t.Fatalf("quadrupled volumes buffered %d arrivals, base %d", n4, n1)
	}
	per := float64(a4-a1) / float64(n4-n1)
	t.Logf("x1: %d B, %d arrivals; x4: %d B, %d arrivals; marginal %.1f B/arrival", a1, n1, a4, n4, per)
	if per > maxBytesPerArrival {
		t.Fatalf("collection allocated %.1f B per extra buffered arrival; want <= %d", per, maxBytesPerArrival)
	}
}
