package main

import (
	"math"
	"testing"
)

// TestColdOpsAllocateAlike is the cold-run guard: two consecutive
// small ops in one process must allocate the same within a few
// percent. An op that reused a warm world, dataset or symbol table
// from the previous one (as a warm-up run before timing would) would
// allocate far less the second time.
func TestColdOpsAllocateAlike(t *testing.T) {
	a := runPipelineOp(wReport, 3, false, true, "")
	b := runPipelineOp(wReport, 3, false, true, "")
	for _, r := range []opResult{a, b} {
		if len(r.Errors) > 0 {
			t.Fatalf("op errors: %v", r.Errors)
		}
	}
	if a.SHA256 != b.SHA256 {
		t.Errorf("same seed, different reports: %s vs %s", a.SHA256, b.SHA256)
	}
	if d := math.Abs(float64(a.AllocBytes)-float64(b.AllocBytes)) / float64(a.AllocBytes); d > 0.03 {
		t.Errorf("allocated %d then %d bytes (%.1f%% apart): the second op is not cold",
			a.AllocBytes, b.AllocBytes, d*100)
	}
}

// TestTracedOpMatchesUntraced pins the traced decomposition to the
// untraced op: the same output bytes and every layer reached.
func TestTracedOpMatchesUntraced(t *testing.T) {
	for _, w := range []string{wReport, wSweep} {
		plain := runPipelineOp(w, 5, false, true, "")
		traced := runPipelineOp(w, 5, true, true, "")
		if len(plain.Errors)+len(traced.Errors) > 0 {
			t.Fatalf("%s: op errors: %v %v", w, plain.Errors, traced.Errors)
		}
		if plain.SHA256 != traced.SHA256 {
			t.Errorf("%s: traced output %s != untraced %s", w, traced.SHA256, plain.SHA256)
		}
		want := []string{"ecosystem.generate_s", "mailflow.collect_s", "analysis.label_s",
			"analysis.index_s", "mailflow.speedup_w2", "analysis.crawl_visits"}
		if w == wReport {
			want = append(want, "analysis.fig3_s", "analysis.timing_s", "report.render_s")
		} else {
			want = append(want, "analysis.headline_s")
		}
		for _, m := range want {
			if traced.Layer[m] <= 0 {
				t.Errorf("%s: layer metric %s = %v", w, m, traced.Layer[m])
			}
		}
	}
}
