package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/feeds"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the
// benchmark is judged by, in step with what the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 2 || spec.Workloads[0].Name != wReport || spec.Workloads[1].Name != wSweep {
		t.Errorf("workloads %v", spec.Workloads)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: json %s/%s, code %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestCheckAnswerAgainstPlane runs the oracle against real plane
// answers: right answers pass, a flipped rcode or wrong TXT fails.
func TestCheckAnswerAgainstPlane(t *testing.T) {
	p, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: "hu.bl.bench"}}})
	if err != nil {
		t.Fatal(err)
	}
	f := feeds.New("Hu", feeds.KindHuman, false, false)
	first := int64(1283299200)                                                                          // 2010-09-01
	p.Apply("hu.bl.bench", []dnsblplane.Record{{Domain: "spam.com", First: unix(first), Feed: f.Name}}) //nolint:errcheck
	l := listing{first: first, feed: "Hu"}
	for _, tc := range []struct {
		name  string
		qtype uint16
		want  expectation
	}{
		{"spam.com", typeA, mustList},
		{"spam.com", typeTXT, mustList},
		{"spam.com", typeTXT, eitherList},
		{"ham.com", typeA, mustNot},
		{"ham.com", typeTXT, eitherList},
	} {
		req := appendQuery(nil, 7, tc.name, "hu.bl.bench", tc.qtype)
		resp := p.Handle(req)
		if _, err := checkAnswer(req, resp, tc.qtype, tc.want, l); err != nil {
			t.Errorf("%s/%d: %v", tc.name, tc.qtype, err)
		}
		flipped := append([]byte(nil), resp...)
		flipped[3] ^= 3 // NOERROR <-> NXDOMAIN
		if tc.want != eitherList {
			if _, err := checkAnswer(req, flipped, tc.qtype, tc.want, l); err == nil {
				t.Errorf("%s/%d: flipped rcode accepted", tc.name, tc.qtype)
			}
		}
	}
	req := appendQuery(nil, 8, "spam.com", "hu.bl.bench", typeTXT)
	if _, err := checkAnswer(req, p.Handle(req), typeTXT, mustList, listing{first: first + 1, feed: "Hu"}); err == nil {
		t.Error("wrong TXT first-seen accepted")
	}
}

func TestSummarizeLatencyCountsLossAsMiss(t *testing.T) {
	lat := make([]int64, 200)
	for i := range lat {
		lat[i] = 100e3 // 100µs
	}
	lat[5], lat[150] = -1, -1
	sum := summarizeLatency(lat, 100)
	if sum.Windows != 2 || sum.P50us != 100 || !math.IsInf(sum.P99us, 1) {
		t.Errorf("%+v", sum)
	}
}

func unix(s int64) time.Time { return time.Unix(s, 0).UTC() }

// TestSessionSmall drives the whole serving half against a dnsblserve
// built from this tree, on a small world's feeds: every answer must
// check out against the oracle and every end-to-end serving metric
// must be measured.
func TestSessionSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dnsblserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dnsblserve")
	if out, err := exec.Command("go", "build", "-o", bin, "tasterschoice/cmd/dnsblserve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	feeds := filepath.Join(dir, "feeds")
	if op := runPipelineOp(wReport, 3, false, true, feeds); len(op.Errors) > 0 {
		t.Fatal(op.Errors)
	}
	in, err := loadServingInput(feeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{bin: bin, in: in, seconds: 4, dir: dir, tr: newTracer("test")}
	s.run()
	if s.failed > 0 || s.attempted == 0 {
		t.Fatalf("attempted %d, failed %d: %v", s.attempted, s.failed, s.errs)
	}
	for _, m := range []string{"setup_s", "serve_peak_rss_mb", "p50_us.r5k", "cpu_us_per_query",
		"reload.p50_us.r5k", "reload.cpu_us_per_query"} {
		if v := s.metrics[m]; !(v > 0) {
			t.Errorf("%s = %v", m, v)
		}
	}
	for _, m := range []string{"dnsblplane.apply_bytes_per_record", "gen.listing_lag_p50_ms"} {
		if v := s.layer[m]; !(v > 0) {
			t.Errorf("%s = %v", m, v)
		}
	}
}
