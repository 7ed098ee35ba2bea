package mailflow_test

import (
	"runtime"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
)

// collectAlloc generates a fresh world for sc and returns the bytes
// allocated by one cold collection run over it.
func collectAlloc(t *testing.T, sc simulate.Scenario) uint64 {
	t.Helper()
	world := ecosystem.MustGenerate(sc.Ecosystem)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := mailflow.New(world, sc.Collection).Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
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
	small, large := collectAlloc(t, base), collectAlloc(t, doubled)
	ratio := float64(large) / float64(small)
	t.Logf("cold collection allocated %d B, %d B with doubled poison (ratio %.2f)", small, large, ratio)
	if ratio > 2.5 {
		t.Fatalf("cold collection allocation grew %.2fx when poison arrivals doubled; want <= 2.5x", ratio)
	}
}
