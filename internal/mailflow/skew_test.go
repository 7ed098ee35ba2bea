package mailflow_test

import (
	"fmt"
	"runtime"
	"testing"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
)

// skewedFingerprint is the golden hash of a Small world with every
// campaign volume median ×20, where a few mega-campaigns hold most
// arrivals. It was computed before campaign plans moved to run-encoded
// time arenas and claimed scheduling, so a match proves the replay
// order (and with it first-seen URLs and tap streams) is unchanged.
const skewedFingerprint = "2af8cc80b850074ac95b1b55bc108e8788d1104bc5d865ec68ce82935910a103"

// TestGoldenEngineDeterministicAcrossWorkersSkewed is the worker-count
// determinism contract under the heaviest volume skew: which worker
// plans a mega-campaign must not change the output.
func TestGoldenEngineDeterministicAcrossWorkersSkewed(t *testing.T) {
	sc := simulate.Small(11).WithVolumes(simulate.PaperRatioVolume)
	world := ecosystem.MustGenerate(sc.Ecosystem)
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			cfg := sc.Collection
			cfg.Workers = workers
			res, err := mailflow.New(world, cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", mailflow.Fingerprint(res)); got != skewedFingerprint {
				t.Fatalf("GOMAXPROCS=%d Workers=%d: fingerprint\n got %s\nwant %s", procs, workers, got, skewedFingerprint)
			}
		}
	}
}
