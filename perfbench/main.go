// Command perfbench is the repository's benchmark. One run measures
// one workload for one seed:
//
//	perfbench -workload report_default -seed 7 -seconds 20 -trace 0
//
// Each workload is a user session in two halves. First the cold
// pipeline: each op is a fresh child process that generates a world,
// collects the ten feeds, labels and indexes them and runs the
// workload's analysis (the full report, or one paper-ratio seed
// through distsweep.RunLocal). Then DNSBL serving: the first op's
// collected feeds are served by the dnsblserve binary built from the
// same tree, under an open-loop query load, read-only and then with
// live feedsync reloads.
//
// With -trace 0 the last stdout line is the end-to-end result; with
// -trace 1 the benchmark wraps every call it makes into a layer's
// public functions in spans, prints the per-layer metrics instead,
// writes the spans as Chrome trace-event JSON and prints a per-layer
// self-time table on stderr. Nothing inside the program is
// instrumented. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	wReport = "report_default"
	wSweep  = "sweep_paper_ratio"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists what a user of the system sees; every untraced run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"serve_peak_rss_mb", "MB"},
	{"p50_us.r5k", "us"},
	{"cpu_us_per_query", "us"},
	{"reload.p50_us.r5k", "us"},
	{"reload.cpu_us_per_query", "us"},
}

// perLayer lists the traced run's metrics. A layer the workload does
// not reach reports 0.
var perLayer = []metricDef{
	{"bench.pipeline_wall_s", "s"},
	{"bench.trace_overhead", "ratio"},
	{"bench.pipeline_peak_rss_mb", "MB"},
	{"ecosystem.generate_s", "s"},
	{"ecosystem.alloc_mb", "MB"},
	{"mailflow.collect_s", "s"},
	{"mailflow.collect_share", "ratio"},
	{"mailflow.alloc_mb", "MB"},
	{"mailflow.gc_cycles", "count"},
	{"mailflow.observations", "count"},
	{"mailflow.ns_per_observation", "ns"},
	{"mailflow.speedup_w2", "ratio"},
	{"analysis.label_s", "s"},
	{"analysis.label_domains", "count"},
	{"analysis.crawl_visits", "count"},
	{"analysis.index_s", "s"},
	{"analysis.table1_s", "s"},
	{"analysis.table2_s", "s"},
	{"analysis.table3_s", "s"},
	{"analysis.fig2_s", "s"},
	{"analysis.fig3_s", "s"},
	{"analysis.fig4_s", "s"},
	{"analysis.fig5_s", "s"},
	{"analysis.fig6_s", "s"},
	{"analysis.fig7_s", "s"},
	{"analysis.fig8_s", "s"},
	{"analysis.timing_s", "s"},
	{"analysis.selection_s", "s"},
	{"analysis.category_s", "s"},
	{"analysis.reconstruct_s", "s"},
	{"analysis.shares_s", "s"},
	{"analysis.headline_s", "s"},
	{"report.render_s", "s"},
	{"distsweep.self_s", "s"},
	{"dnsblplane.load_s", "s"},
	{"dnsblplane.respond_ns.hit_a", "ns"},
	{"dnsblplane.respond_ns.hit_txt", "ns"},
	{"dnsblplane.respond_ns.miss_cached", "ns"},
	{"dnsblplane.respond_ns.miss_cold", "ns"},
	{"dnsblplane.respond_allocs", "count"},
	{"dnsblplane.hit_ratio", "ratio"},
	{"dnsblplane.neg_cache_hit_ratio", "ratio"},
	{"dnsblplane.neg_cache_hit_ratio.reload", "ratio"},
	{"dnsblplane.read_batch_mean", "count"},
	{"dnsblplane.queue_depth_max", "count"},
	{"dnsblplane.shed", "count"},
	{"dnsblplane.dropped", "count"},
	{"dnsblplane.read_apply_batches", "count"},
	{"dnsblplane.apply_us_per_batch", "us"},
	{"dnsblplane.apply_bytes_per_record", "B"},
	{"dnsblplane.records_per_batch", "count"},
	{"feedsync.records_streamed", "count"},
	{"gen.late_p99_us", "us"},
	{"gen.max_qps_p50_1ms", "1/s"},
	{"gen.p99_us.r5k", "us"},
	{"gen.reload_p99_us", "us"},
	{"gen.listing_lag_p50_ms", "ms"},
	{"gen.listing_lag_p95_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+wReport+" or "+wSweep)
	seed := flag.Uint64("seed", 1, "input seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 20, "measurement budget of one run, seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	serveBin := flag.String("dnsblserve", "", "dnsblserve binary built from the tree under test")
	workDir := flag.String("workdir", ".bench_build", "directory for build outputs, run files and traces")
	child := flag.Bool("child", false, "internal: run one pipeline op and print it as JSON")
	feedsDir := flag.String("feeds", "", "internal: write the op's feeds here")
	flag.Parse()

	if *child {
		r := runPipelineOp(*workload, *seed, *trace == 1, false, *feedsDir)
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			os.Exit(1)
		}
		return
	}
	if *workload != wReport && *workload != wSweep {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or %s)\n", *workload, wReport, wSweep)
		os.Exit(2)
	}
	if *serveBin == "" || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -dnsblserve and a positive -seconds are required")
		os.Exit(2)
	}
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		serveBin: *serveBin, workDir: *workDir}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	serveBin string
	workDir  string

	runDir string
	tr     *tracer
}

// opMemLimit is the pipeline ops' GOMEMLIMIT.
const opMemLimit = "3GiB"

// pipelineShare is the part of the run budget the pipeline half gets;
// it always runs at least one op.
const pipelineShare = 0.25

func (b *bench) run() (*result, error) {
	b.runDir = filepath.Join(b.workDir, "perfbench-run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	if b.traced {
		b.tr = newTracer("perfbench")
	}
	st := loadState(b.workDir)
	key := b.workload + "/" + strconv.FormatUint(b.seed, 10)
	feedsDir := filepath.Join(b.runDir, "feeds")

	// Pipeline half: cold ops in fresh processes.
	var ops []opResult
	attempted, failed := 0, 0
	var errs []string
	start := time.Now()
	for i := 0; ; i++ {
		seed := b.seed
		if b.workload == wSweep {
			seed += uint64(i) // a sweep runs consecutive seeds
		}
		dir := ""
		if i == 0 {
			dir = feedsDir
		}
		op, err := b.spawnOp(seed, dir)
		if err != nil {
			return nil, err
		}
		attempted++
		opKey := b.workload + "/" + strconv.FormatUint(seed, 10)
		if prev, ok := st.SHA[opKey]; ok && op.SHA256 != "" && prev != op.SHA256 {
			op.Errors = append(op.Errors, fmt.Sprintf("output hash %s differs from an earlier run's %s for seed %d",
				op.SHA256[:12], prev[:12], seed))
		}
		if op.SHA256 != "" {
			st.SHA[opKey] = op.SHA256
		}
		if len(op.Errors) > 0 {
			failed++
			errs = append(errs, op.Errors...)
		}
		ops = append(ops, op)
		if b.traced || time.Since(start).Seconds() >= pipelineShare*b.seconds || i >= 9 {
			break
		}
	}

	// Serving half, after the last op's memory has been handed back.
	time.Sleep(time.Second)
	in, err := loadServingInput(feedsDir, b.seed)
	if err != nil {
		return nil, err
	}
	s := &session{bin: b.serveBin, in: in, seconds: b.seconds, tr: b.tr, dir: b.runDir}
	s.run()
	attempted += s.attempted
	failed += s.failed
	errs = append(errs, s.errs...)
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	var walls []float64
	for _, op := range ops {
		walls = append(walls, op.WallS)
	}
	man := b.manifest(ops)
	if !b.traced {
		st.Wall[key] = median(walls)
		s.metrics["wall_s"] = median(walls)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{s.metrics[m.name], m.unit}
		}
	} else {
		layer := s.layer
		for k, v := range ops[0].Layer {
			layer[k] = v
		}
		b.tr.adopt(ops[0].Spans, ops[0].EpochUnixNano)
		layer["distsweep.self_s"] = selfOf(b.tr, "distsweep.run_local")
		layer["gen.late_p99_us"] = percentileOf(s.late, 0.99)
		layer["bench.pipeline_peak_rss_mb"] = float64(ops[0].PeakRSSKB) / 1024
		if untraced, ok := st.Wall[key]; ok && untraced > 0 {
			layer["bench.trace_overhead"] = ops[0].WallS / untraced
			man["trace_overhead"] = layer["bench.trace_overhead"]
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layer[m.name], m.unit}
		}
		path := filepath.Join(b.workDir, "perfbench-trace-"+b.workload+"-"+strconv.FormatUint(b.seed, 10)+".json")
		if err := b.tr.writeChrome(path, man); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
		b.tr.writeSelfTable(os.Stderr)
	}
	// A metric that could not be measured (no samples) is reported as
	// 0 and fails the run, rather than printing an unparseable NaN.
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[name] = metricValue{0, m.Unit}
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: failure: metric %s not measured\n", name)
		}
	}
	line, _ := json.Marshal(map[string]any{"manifest": man})
	fmt.Println(string(line))
	st.save(b.workDir)
	return res, nil
}

func selfOf(t *tracer, name string) float64 {
	self, _ := t.selfTimes()
	return float64(self[name]) / 1e9
}

// spawnOp runs one pipeline op in a fresh child process, so nothing —
// heap, symbol tables, caches — carries over from an earlier op.
func (b *bench) spawnOp(seed uint64, feedsDir string) (opResult, error) {
	self, err := os.Executable()
	if err != nil {
		return opResult{}, err
	}
	trace := "0"
	if b.traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-child", "-workload", b.workload, "-seed", strconv.FormatUint(seed, 10),
		"-trace", trace, "-feeds", feedsDir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// A soft memory limit keeps the op from taking the machine down: at
	// the quadratic AutoURL growth a sweep_paper_ratio op's peak RSS
	// ranged 1.8–6.5 GB from run to run on a 7 GB machine.
	cmd.Env = append(os.Environ(), "GOMEMLIMIT="+opMemLimit)
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return opResult{}, fmt.Errorf("pipeline op (seed %d): %w", seed, err)
	}
	var r opResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return opResult{}, fmt.Errorf("pipeline op output: %w", err)
	}
	return r, nil
}

// manifest identifies the run: what ran, on what, producing what.
func (b *bench) manifest(ops []opResult) map[string]any {
	// Only a checkout that is itself a repository has a revision; git
	// would otherwise report some enclosing repository's.
	rev := "unknown"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
		}
	}
	var shas []string
	for _, op := range ops {
		shas = append(shas, op.SHA256)
	}
	return map[string]any{
		"workload":      b.workload,
		"seed":          b.seed,
		"traced":        b.traced,
		"git_rev":       rev,
		"source_sha256": sourceHash(b.workDir),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"output_sha256": shas,
	}
}

// sourceHash fingerprints the tree under test (every .go file and
// go.mod, by path and content), standing in for a git revision where
// the checkout is not a repository.
func sourceHash(skip string) string {
	h := sha256.New()
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error { //nolint:errcheck
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || p == filepath.Clean(skip)) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// state persists across runs in one checkout: each seed's output hash
// (a repeat whose hash differs is a failure) and each untraced run's
// median op wall time (the traced run's overhead base).
type state struct {
	SHA  map[string]string  `json:"sha"`
	Wall map[string]float64 `json:"wall"`
}

func loadState(dir string) *state {
	st := &state{SHA: map[string]string{}, Wall: map[string]float64{}}
	if b, err := os.ReadFile(filepath.Join(dir, "perfbench-state.json")); err == nil {
		json.Unmarshal(b, st) //nolint:errcheck // a corrupt state starts fresh
		if st.SHA == nil {
			st.SHA = map[string]string{}
		}
		if st.Wall == nil {
			st.Wall = map[string]float64{}
		}
	}
	return st
}

func (st *state) save(dir string) {
	b, _ := json.Marshal(st)
	tmp := filepath.Join(dir, "perfbench-state.json.tmp")
	if os.WriteFile(tmp, b, 0o644) == nil {
		os.Rename(tmp, filepath.Join(dir, "perfbench-state.json")) //nolint:errcheck
	}
}
