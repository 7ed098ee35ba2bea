package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/core"
	"tasterschoice/internal/distsweep"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/report"
	"tasterschoice/internal/simulate"
	"tasterschoice/internal/webcrawl"
)

// paperRatioVolume multiplies every campaign volume median for the
// sweep_paper_ratio workload: domain counts stay as in the default
// scenario, so messages per domain rise 20×, undoing the per-domain
// compression EXPERIMENTS.md lists as a known deviation.
const paperRatioVolume = 20

// scenarioFor returns the scenario one pipeline op runs. small selects
// the reduced world (used by the benchmark's own tests).
func scenarioFor(workload string, seed uint64, small bool) simulate.Scenario {
	s := simulate.Default(seed)
	if small {
		s = simulate.Small(seed)
	}
	if workload == wSweep {
		e := &s.Ecosystem
		e.LoudVolumeMedian *= paperRatioVolume
		e.QuietVolumeMedian *= paperRatioVolume
		e.TinyVolumeMedian *= paperRatioVolume
		e.OtherVolumeMedian *= paperRatioVolume
	}
	return s
}

// opResult is what one cold pipeline op reports. A child process runs
// exactly one op and prints this as JSON.
type opResult struct {
	Workload      string             `json:"workload"`
	Seed          uint64             `json:"seed"`
	WallS         float64            `json:"wall_s"`
	AllocBytes    uint64             `json:"alloc_bytes"`
	NumGC         uint32             `json:"num_gc"`
	PeakRSSKB     int64              `json:"peak_rss_kb"`
	SHA256        string             `json:"sha256"`
	Errors        []string           `json:"errors"`
	Layer         map[string]float64 `json:"layer,omitempty"`
	Spans         []span             `json:"spans,omitempty"`
	EpochUnixNano int64              `json:"epoch_unix_nano"`
}

func memNow() (alloc uint64, gc uint32) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.NumGC
}

// runPipelineOp runs one cold op: a fresh world, collection, labels,
// index and the workload's analysis, timing it end to end. With
// traced set, every call into a layer is wrapped in a span and the
// per-layer metrics are filled in. The output checks run after the
// timed part; feedsDir, when set, receives the ten collected feeds as
// TSV files (also untimed).
func runPipelineOp(workload string, seed uint64, traced, small bool, feedsDir string) opResult {
	r := opResult{Workload: workload, Seed: seed, EpochUnixNano: time.Now().UnixNano()}
	var tr *tracer
	if traced {
		tr = newTracer("pipeline")
		r.Layer = map[string]float64{}
	}
	scen := scenarioFor(workload, seed, small)
	alloc0, gc0 := memNow()
	start := time.Now()
	var ds *analysis.Dataset
	var out []byte
	var err error
	switch workload {
	case wReport:
		ds, out, err = reportOp(scen, tr, r.Layer)
	case wSweep:
		ds, out, err = sweepOp(scen, tr, r.Layer)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	r.WallS = time.Since(start).Seconds()
	alloc1, gc1 := memNow()
	r.AllocBytes, r.NumGC = alloc1-alloc0, gc1-gc0
	r.PeakRSSKB = peakRSSKB("self")
	if err != nil {
		r.Errors = append(r.Errors, err.Error())
		return r
	}
	sum := sha256.Sum256(out)
	r.SHA256 = hex.EncodeToString(sum[:])
	checked := time.Now()
	r.Errors = append(r.Errors, checkDataset(ds, workload)...)
	if feedsDir != "" {
		if err := writeFeeds(ds, feedsDir); err != nil {
			r.Errors = append(r.Errors, err.Error())
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: op %s seed %d: %.2fs, checks and feeds %.2fs\n",
		workload, seed, r.WallS, time.Since(checked).Seconds())
	if traced {
		r.Layer["bench.pipeline_wall_s"] = r.WallS
		r.Layer["mailflow.collect_share"] = r.Layer["mailflow.collect_s"] / r.WallS
		ds = nil
		r.Layer["mailflow.speedup_w2"] = speedupW2(scen, tr, r.Layer["mailflow.collect_s"])
		r.Spans = tr.spans
	}
	return r
}

// buildDataset is simulate.Scenario.Run split at its layer boundaries:
// ecosystem.Generate, the mailflow engine, and crawl labeling through
// a visit-counting webcrawl.Visitor. Untraced runs call scen.Run.
func buildDataset(scen simulate.Scenario, tr *tracer, layer map[string]float64) (*analysis.Dataset, error) {
	if tr == nil {
		return scen.Run()
	}
	var world *ecosystem.World
	var err error
	a0, _ := memNow()
	layer["ecosystem.generate_s"] = tr.do("ecosystem.generate", func() {
		world, err = ecosystem.Generate(scen.Ecosystem)
	})
	a1, g1 := memNow()
	layer["ecosystem.alloc_mb"] = float64(a1-a0) / 1e6
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	m := mailflow.NewMetrics(reg)
	var res *mailflow.Result
	layer["mailflow.collect_s"] = tr.do("mailflow.collect", func() {
		eng := mailflow.New(world, scen.Collection)
		eng.Metrics = m
		res, err = eng.Run()
	})
	a2, g2 := memNow()
	layer["mailflow.alloc_mb"] = float64(a2-a1) / 1e6
	layer["mailflow.gc_cycles"] = float64(g2 - g1)
	if err != nil {
		return nil, err
	}
	if obsN := m.Observations.Value(); obsN > 0 {
		layer["mailflow.observations"] = float64(obsN)
		layer["mailflow.ns_per_observation"] = layer["mailflow.collect_s"] * 1e9 / float64(obsN)
	}
	var visits atomic.Int64
	var labels *analysis.Labels
	layer["analysis.label_s"] = tr.do("analysis.label", func() {
		labels = analysis.BuildLabelsWith(world, res, runtime.GOMAXPROCS(0), func() webcrawl.Visitor {
			return countingVisitor{v: webcrawl.New(world), n: &visits}
		})
	})
	layer["analysis.label_domains"] = float64(labels.Len())
	layer["analysis.crawl_visits"] = float64(visits.Load())
	ds := &analysis.Dataset{World: world, Result: res, Labels: labels}
	layer["analysis.index_s"] = tr.do("analysis.index", func() { ds.Index() })
	return ds, nil
}

// countingVisitor counts crawl visits on their way to the real crawler.
type countingVisitor struct {
	v webcrawl.Visitor
	n *atomic.Int64
}

func (c countingVisitor) Visit(u string) webcrawl.Result {
	c.n.Add(1)
	return c.v.Visit(u)
}

// reportOp is what cmd/tasters does: the full core.Study.WriteReport.
// Traced, the report is rebuilt figure by figure through the same
// Study methods and report renderers in WriteReport's order, so its
// bytes (and hash) must equal the untraced report's.
func reportOp(scen simulate.Scenario, tr *tracer, layer map[string]float64) (*analysis.Dataset, []byte, error) {
	id := tr.begin("pipeline.report_default")
	defer tr.end(id)
	ds, err := buildDataset(scen, tr, layer)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	study := core.NewStudy(ds)
	if tr == nil {
		err = study.WriteReport(&buf)
		return ds, buf.Bytes(), err
	}
	tracedReport(&buf, study, tr, layer)
	return ds, buf.Bytes(), nil
}

func tracedReport(w io.Writer, s *core.Study, tr *tracer, layer map[string]float64) {
	ds := s.DS
	// compute runs an analysis call in its span; section renders a
	// body in a report.render span and writes it as WriteReport does.
	compute := func(name string, fn func()) { layer[name+"_s"] += tr.do(name, fn) }
	section := func(title string, render func() string) {
		var body string
		layer["report.render_s"] += tr.do("report.render", func() { body = render() })
		fmt.Fprintf(w, "== %s ==\n%s\n", title, body)
	}
	var t1 []analysis.FeedSummary
	compute("analysis.table1", func() { t1 = s.Table1() })
	section("Table 1: feed summary", func() string { return report.FeedSummaryTable(t1) })
	var t2 []analysis.PurityRow
	compute("analysis.table2", func() { t2 = s.Table2() })
	section("Table 2: purity indicators", func() string { return report.PurityTable(t2) })
	var all, live, tagged []analysis.CoverageRow
	compute("analysis.table3", func() { all, live, tagged = s.Table3() })
	section("Table 3: coverage (total / exclusive)", func() string { return report.CoverageTable(all, live, tagged) })
	section("Figure 1: distinct vs exclusive (live)", func() string { return report.ExclusiveScatter(live) })
	section("Figure 1: distinct vs exclusive (tagged)", func() string { return report.ExclusiveScatter(tagged) })
	var mLive, mTagged *analysis.Matrix
	compute("analysis.fig2", func() { mLive, mTagged = s.Figure2() })
	section("Figure 2: pairwise intersection (live)", func() string { return report.MatrixTable(mLive) })
	section("Figure 2: pairwise intersection (tagged)", func() string { return report.MatrixTable(mTagged) })
	var f3 []analysis.VolumeRow
	compute("analysis.fig3", func() { f3 = s.Figure3() })
	section("Figure 3: volume coverage", func() string { return report.VolumeBars(f3) })
	var f4, f5 *analysis.Matrix
	compute("analysis.fig4", func() { f4 = s.Figure4() })
	section("Figure 4: affiliate-program coverage", func() string { return report.MatrixTable(f4) })
	compute("analysis.fig5", func() { f5 = s.Figure5() })
	section("Figure 5: RX affiliate coverage", func() string { return report.MatrixTable(f5) })
	var rows []analysis.RevenueRow
	var total float64
	compute("analysis.fig6", func() { rows, total = s.Figure6() })
	section("Figure 6: revenue-weighted affiliate coverage", func() string { return report.RevenueBars(rows, total) })
	var f7, f8 *analysis.PairwiseDist
	compute("analysis.fig7", func() { f7 = s.Figure7() })
	section("Figure 7: pairwise variation distance", func() string { return report.PairwiseTable(f7) })
	compute("analysis.fig8", func() { f8 = s.Figure8() })
	section("Figure 8: pairwise Kendall tau-b", func() string { return report.PairwiseTable(f8) })
	var timing [4][]analysis.TimingRow
	compute("analysis.timing", func() { timing[0] = s.Figure9() })
	section("Figure 9: first appearance (all-feed baseline, minus Bot)", func() string { return report.TimingTable(timing[0]) })
	compute("analysis.timing", func() { timing[1] = s.Figure10() })
	section("Figure 10: first appearance (honeypot baseline)", func() string { return report.TimingTable(timing[1]) })
	compute("analysis.timing", func() { timing[2] = s.Figure11() })
	section("Figure 11: last appearance vs campaign end", func() string { return report.TimingTable(timing[2]) })
	compute("analysis.timing", func() { timing[3] = s.Figure12() })
	section("Figure 12: domain lifetime vs campaign duration", func() string { return report.TimingTable(timing[3]) })
	var sel []analysis.SelectionStep
	compute("analysis.selection", func() { sel = s.Selection(analysis.ClassTagged) })
	section("Greedy feed acquisition order (tagged domains, §5)", func() string { return report.SelectionTable(sel) })
	var cat []analysis.CategoryRow
	compute("analysis.category", func() { cat = analysis.CategoryBreakdown(ds) })
	section("Tagged domains by goods category (extension)", func() string { return report.CategoryTable(cat) })
	var rec []analysis.Reconstruction
	compute("analysis.reconstruct", func() { rec = analysis.ReconstructAll(ds, 12*time.Hour) })
	section("Campaign reconstruction from single feeds (extension)", func() string { return report.ReconstructionTable(rec) })
	var shares []analysis.ShareRow
	compute("analysis.shares", func() { shares = analysis.CategoryShares(ds) })
	section("Category volume shares per feed vs real mail (extension; §5's extrapolation warning)",
		func() string { return report.SharesTable(shares) })
}

// sweepOp runs one seed through distsweep.RunLocal with a
// benchmark-supplied SeedRunner (the seed is the benchmark's, not
// distsweep.SeedFor's). Its output is the sweep's metrics table.
func sweepOp(scen simulate.Scenario, tr *tracer, layer map[string]float64) (*analysis.Dataset, []byte, error) {
	id := tr.begin("distsweep.run_local")
	var ds *analysis.Dataset
	runner := func(int, uint64) (map[string]float64, error) {
		d, err := buildDataset(scen, tr, layer)
		if err != nil {
			return nil, err
		}
		ds = d
		var m map[string]float64
		layer2 := tr.do("analysis.headline", func() { m = distsweep.ExtractMetrics(core.NewStudy(d)) })
		if layer != nil {
			layer["analysis.headline_s"] = layer2
		}
		return m, nil
	}
	var buf bytes.Buffer
	failed, err := distsweep.RunLocal(context.Background(), distsweep.Config{Seeds: 1, Workers: 1}, runner, &buf)
	tr.end(id)
	if err == nil && failed > 0 {
		err = fmt.Errorf("sweep: %d seed(s) failed", failed)
	}
	return ds, buf.Bytes(), err
}

// speedupW2 collects a freshly generated copy of the op's world with
// Workers=1 and returns its collect time over the default-workers
// collect time of the op: the same code's scaling ratio.
func speedupW2(scen simulate.Scenario, tr *tracer, collectS float64) float64 {
	world, err := ecosystem.Generate(scen.Ecosystem)
	if err != nil || collectS <= 0 {
		return 0
	}
	cfg := scen.Collection
	cfg.Workers = 1
	runtime.GC()
	w1 := tr.do("mailflow.collect_w1", func() {
		_, err = mailflow.New(world, cfg).Run()
	})
	if err != nil {
		return 0
	}
	return w1 / collectS
}

// checkDataset verifies an op's outputs: Tables 2 and 3 and Fig 2 from
// the bitset index against the serial map-based references, and the
// paper's headline shapes as repro_test.go asserts them.
func checkDataset(ds *analysis.Dataset, workload string) []string {
	var errs []string
	if !reflect.DeepEqual(analysis.Purity(ds), analysis.PuritySerial(ds)) {
		errs = append(errs, "Table 2 differs from PuritySerial")
	}
	for _, c := range []analysis.DomainClass{analysis.ClassAll, analysis.ClassLive, analysis.ClassTagged} {
		if !reflect.DeepEqual(analysis.Coverage(ds, c), analysis.CoverageSerial(ds, c)) {
			errs = append(errs, fmt.Sprintf("Table 3 class %d differs from CoverageSerial", c))
		}
	}
	for _, c := range []analysis.DomainClass{analysis.ClassLive, analysis.ClassTagged} {
		if !reflect.DeepEqual(analysis.Intersections(ds, c), analysis.IntersectionsSerial(ds, c)) {
			errs = append(errs, fmt.Sprintf("Fig 2 class %d differs from IntersectionsSerial", c))
		}
	}
	return append(errs, headlineShapes(ds)...)
}

// headlineShapes asserts the paper's headline findings.
func headlineShapes(ds *analysis.Dataset) []string {
	var errs []string
	study := core.NewStudy(ds)
	var hu, mx2 int64
	for _, r := range study.Table1() {
		switch r.Name {
		case "Hu":
			hu = r.Samples
		case "mx2":
			mx2 = r.Samples
		}
	}
	if hu >= mx2 {
		errs = append(errs, fmt.Sprintf("Hu samples %d not below mx2 %d", hu, mx2))
	}
	best, bestN := "", -1
	for _, r := range analysis.Coverage(ds, analysis.ClassTagged) {
		if r.Total > bestN {
			best, bestN = r.Name, r.Total
		}
	}
	if best != "Hu" {
		errs = append(errs, "best tagged coverage is "+best+", want Hu")
	}
	for _, r := range study.Table2() {
		if (r.Name == "Bot" && r.DNS > 0.2) || (r.Name == "mx2" && r.DNS > 0.5) {
			errs = append(errs, fmt.Sprintf("%s DNS purity %.2f: poisoning did not collapse it", r.Name, r.DNS))
		}
	}
	med := map[string]float64{}
	for _, r := range analysis.FirstAppearance(ds, []string{"Hu", "dbl", "uribl", "mx1", "mx2", "Ac1"}) {
		if r.Summary.N > 0 {
			med[r.Name] = r.Summary.Median
		}
	}
	if med["Hu"] >= med["mx1"] || med["dbl"] >= med["mx1"] {
		errs = append(errs, fmt.Sprintf("onset medians Hu %.1fh dbl %.1fh mx1 %.1fh: wrong early-warning order",
			med["Hu"], med["dbl"], med["mx1"]))
	}
	return errs
}

// writeFeeds writes each collected feed as <dir>/<name>.tsv.
func writeFeeds(ds *analysis.Dataset, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range ds.Result.Order {
		f, err := os.Create(filepath.Join(dir, name+".tsv"))
		if err != nil {
			return err
		}
		if err := ds.Feed(name).WriteTSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSKB reads VmHWM (peak resident set) of a process from
// /proc/<pid>/status; 0 if unavailable.
func peakRSSKB(pid string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
