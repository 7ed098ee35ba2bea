// Command bench measures the cold end-to-end pipeline and the hot
// analysis and simulation paths against their pinned serial references
// and emits a machine-readable BENCH_<rev>.json next to a
// human-readable table.
//
// Usage:
//
//	go run ./cmd/bench                      # measure, write BENCH_<rev>.json
//	go run ./cmd/bench -scenario small      # quicker, reduced-scale run
//	go run ./cmd/bench -check BENCH_baseline.json
//
// With -check, the freshly measured results are compared against the
// committed baseline and the command exits non-zero if any tracked
// benchmark regresses by more than 25%. Benchmarks that carry a serial
// reference are compared on their speedup ratio (parallel vs pinned
// serial, measured in the same process on the same machine), which is
// stable across hardware; reference-free benchmarks fall back to raw
// ns/op, so their baseline must be regenerated when the CI hardware
// changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"tasterschoice/internal/analysis"
	"tasterschoice/internal/benchref"
	"tasterschoice/internal/core"
	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/mailflow"
	"tasterschoice/internal/simulate"
)

// Report is the BENCH_<rev>.json document.
type Report struct {
	Rev        string  `json:"rev"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Scenario   string  `json:"scenario"`
	Benchmarks []Bench `json:"benchmarks"`
}

// Bench is one tracked benchmark. SerialNsPerOp is only present for
// cases with a pinned serial reference; Speedup is emitted for every
// entry and is explicitly null where no reference exists, so report
// consumers can tell "no reference" apart from "field elided".
type Bench struct {
	Name          string   `json:"name"`
	NsPerOp       int64    `json:"ns_per_op"`
	AllocsPerOp   int64    `json:"allocs_per_op"`
	BytesPerOp    int64    `json:"bytes_per_op"`
	SerialNsPerOp int64    `json:"serial_ns_per_op,omitempty"`
	Speedup       *float64 `json:"speedup"`
	// MaxAllocsPerOp is the committed allocation budget for this
	// benchmark (0 = untracked). -check fails when a run exceeds the
	// baseline's budget by more than allocHeadroom.
	MaxAllocsPerOp int64 `json:"max_allocs_per_op,omitempty"`
	// MinSpeedup is the committed parallel-scaling floor (0 = none).
	// -check enforces it on machines with enough cores to scale.
	MinSpeedup float64 `json:"min_speedup,omitempty"`
	// MinCPU is the core count this benchmark's numbers were committed
	// at (0 = any machine). On a smaller machine -check downgrades every
	// regression in this entry to a loud warning: serving-path QPS and
	// tail latency collapse when readers, workers and the blaster share
	// one core, and failing CI for the hardware would hide real signal.
	MinCPU int `json:"min_cpu,omitempty"`
}

// maxRegression is the tolerated slowdown before -check fails: 25%.
const maxRegression = 1.25

// allocHeadroom is the tolerated overshoot of an allocation budget
// before -check fails: 10%.
const allocHeadroom = 1.10

// allocBudgets pins the per-op allocation ceilings for the hot-path
// benchmarks. The budgets ride inside BENCH_baseline.json (written by
// every measuring run), so the gate compares fresh runs against the
// committed numbers, not against whatever this source tree says.
var allocBudgets = map[string]int64{
	"dataset_build":    110_000,
	"dataset_build_w4": 110_000,
	"labeling":         20_000,
	"labeling_w4":      20_000,
	// The plane's steady-state fast path answers without allocating; a
	// budget of one absorbs amortized warmup noise only.
	"dnsbl_handle": 1,
}

// minSpeedups pins the parallel-scaling floors for the explicit
// multi-worker benchmarks.
var minSpeedups = map[string]float64{
	"dataset_build_w4": 1.5,
	"labeling_w4":      1.5,
	// The plane's in-process handling path vs the codec-per-query
	// reference handler. Measured ≈10x on the reference box; committed
	// conservative.
	"dnsbl_handle": 6.0,
	// End-to-end UDP throughput, the default plane server vs the same
	// server at one reader and one worker. Loopback syscalls dominate
	// both sides, so the floor claims only a modest scaling gain; the
	// handling-path floor above carries the speedup story.
	"dnsbl_serve_qps": 1.1,
}

// minCPUs pins the core counts the serving-path benchmarks were
// committed at; below them -check warns instead of failing.
var minCPUs = map[string]int{
	"dnsbl_serve_qps": 4,
	"dnsbl_serve_p99": 4,
}

// minCPUForSpeedupGate is the core count below which the MinSpeedup
// gate is skipped (loudly): a 1- or 2-core machine cannot show 4-way
// scaling no matter how healthy the engine is.
const minCPUForSpeedupGate = 4

func main() {
	rev := flag.String("rev", "", "revision tag for the output filename (default: git short hash)")
	out := flag.String("o", "", "output path (default BENCH_<rev>.json)")
	check := flag.String("check", "", "baseline BENCH_*.json to compare against; exit 1 on >25% regression or blown alloc budget")
	diff := flag.String("diff", "", "baseline BENCH_*.json to diff against; print a markdown delta table on stdout")
	in := flag.String("in", "", "load an existing BENCH_*.json instead of measuring (for -check/-diff of a saved run)")
	scenario := flag.String("scenario", "default", "scenario scale: default or small")
	flag.Parse()

	var rep *Report
	if *in != "" {
		loaded, err := loadReport(*in)
		if err != nil {
			fatalf("load report %s: %v", *in, err)
		}
		rep = loaded
	} else {
		if *rev == "" {
			*rev = gitRev()
		}
		if *out == "" {
			*out = fmt.Sprintf("BENCH_%s.json", *rev)
		}
		rep = measure(*scenario, *rev)

		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("marshal report: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n\n%s", *out, table(rep))
	}

	if *diff != "" {
		base, err := loadReport(*diff)
		if err != nil {
			fatalf("load baseline %s: %v", *diff, err)
		}
		fmt.Print(markdownDiff(base, rep))
	}

	if *check != "" {
		base, err := loadReport(*check)
		if err != nil {
			fatalf("load baseline %s: %v", *check, err)
		}
		regs, warns := findRegressions(base, rep)
		for _, w := range warns {
			fmt.Fprintf(os.Stderr, "WARNING: %s\n", w)
		}
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "\nREGRESSIONS vs %s (rev %s):\n", *check, base.Rev)
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("\nno regressions vs %s (rev %s)\n", *check, base.Rev)
	}
}

// measure runs every tracked benchmark and assembles the report.
func measure(scenario, rev string) *Report {
	var sc, paper simulate.Scenario
	switch scenario {
	case "default":
		sc = simulate.Default(2010)
		paper = simulate.PaperRatio(2010)
	case "small":
		sc = simulate.Small(2010)
		paper = sc.WithVolumes(simulate.PaperRatioVolume)
	default:
		fatalf("unknown scenario %q (want default or small)", scenario)
	}

	fmt.Fprintf(os.Stderr, "generating %s-scale world...\n", scenario)
	world, err := ecosystem.Generate(sc.Ecosystem)
	if err != nil {
		fatalf("generate world: %v", err)
	}
	res, err := mailflow.New(world, sc.Collection).Run()
	if err != nil {
		fatalf("collection run: %v", err)
	}
	ds := analysis.NewDataset(world, res)

	rep := &Report{
		Rev:        rev,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scenario:   scenario,
	}

	run := func(name string, par, serial func()) {
		fmt.Fprintf(os.Stderr, "bench %s...\n", name)
		pr := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				par()
			}
		})
		bench := Bench{
			Name:           name,
			NsPerOp:        pr.NsPerOp(),
			AllocsPerOp:    pr.AllocsPerOp(),
			BytesPerOp:     pr.AllocedBytesPerOp(),
			MaxAllocsPerOp: allocBudgets[name],
			MinSpeedup:     minSpeedups[name],
			MinCPU:         minCPUs[name],
		}
		if serial != nil {
			sr := testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					serial()
				}
			})
			bench.SerialNsPerOp = sr.NsPerOp()
			if bench.NsPerOp > 0 {
				s := float64(sr.NsPerOp()) / float64(bench.NsPerOp)
				bench.Speedup = &s
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, bench)
	}

	// The cold pipeline a user pays for, as cmd/tasters runs it: each op
	// generates a fresh world, collects, labels and renders the full
	// report, which builds the index. The entries below reuse the warm
	// world above, so only this one sees first-intern costs.
	coldReport := func(s simulate.Scenario) func() {
		return func() {
			ds, err := s.Run()
			if err != nil {
				fatalf("cold pipeline %s: %v", s.Name, err)
			}
			if err := core.NewStudy(ds).WriteReport(io.Discard); err != nil {
				fatalf("cold report %s: %v", s.Name, err)
			}
		}
	}
	run("repro_e2e", coldReport(sc), nil)
	// The same cold pipeline with every campaign volume ×20: collection
	// of a few mega-campaigns' arrivals dominates.
	run("repro_e2e_paper_ratio", coldReport(paper), nil)

	// Feed collection: the parallel chunked engine vs the pre-parallel
	// engine pinned in internal/benchref.
	run("dataset_build",
		func() {
			if _, err := mailflow.New(world, sc.Collection).Run(); err != nil {
				fatalf("parallel engine: %v", err)
			}
		},
		func() {
			if _, err := benchref.New(world, sc.Collection).Run(); err != nil {
				fatalf("benchref engine: %v", err)
			}
		})

	// The same engine pinned at Workers=4: the scaling gate the CI
	// bench-gate job enforces (speedup vs the serial reference).
	cfg4 := sc.Collection
	cfg4.Workers = 4
	run("dataset_build_w4",
		func() {
			if _, err := mailflow.New(world, cfg4).Run(); err != nil {
				fatalf("parallel engine (w4): %v", err)
			}
		},
		func() {
			if _, err := benchref.New(world, sc.Collection).Run(); err != nil {
				fatalf("benchref engine: %v", err)
			}
		})

	// Crawl labeling: one worker per CPU vs one worker.
	run("labeling",
		func() { analysis.BuildLabelsConcurrent(world, res, runtime.GOMAXPROCS(0)) },
		func() { analysis.BuildLabelsConcurrent(world, res, 1) })
	run("labeling_w4",
		func() { analysis.BuildLabelsConcurrent(world, res, 4) },
		func() { analysis.BuildLabelsConcurrent(world, res, 1) })

	// Analysis rows vs the serial references in analysis/serialref.go.
	run("coverage_table3",
		func() { analysis.Coverage(ds, analysis.ClassAll) },
		func() { analysis.CoverageSerial(ds, analysis.ClassAll) })
	run("intersections_fig2",
		func() { analysis.Intersections(ds, analysis.ClassAll) },
		func() { analysis.IntersectionsSerial(ds, analysis.ClassAll) })
	run("purity_table2",
		func() { analysis.Purity(ds) },
		func() { analysis.PuritySerial(ds) })

	// Reference-free rows, tracked on raw ns/op only.
	run("proportion_fig7", func() { analysis.VariationDistances(ds) }, nil)
	fig9 := analysis.Fig9Feeds(ds)
	run("timing_fig9", func() { analysis.FirstAppearance(ds, fig9) }, nil)

	// The DNSBL serving plane: in-process handling speedup plus
	// end-to-end UDP throughput and tail latency (serve.go).
	measureServe(rep)
	// The serving plane's cold start: bulk zone loading (serve.go).
	run("dnsbl_load", loadZones(), nil)

	return rep
}

// speedupOf returns a benchmark's speedup, or 0 when it has no serial
// reference.
func speedupOf(b Bench) float64 {
	if b.Speedup == nil {
		return 0
	}
	return *b.Speedup
}

// findRegressions compares cur against base and describes every
// benchmark that regressed beyond maxRegression, blew its committed
// allocation budget by more than allocHeadroom, or fell under its
// committed scaling floor — ALL of them, accumulated across every
// entry, so one -check run surfaces the complete damage instead of
// failing on the first hit. Benchmarks present in only one report are
// ignored (new or retired cases). The second return is a list of loud
// warnings for conditions that don't fail the check: a serial
// reference absent on one side (the other comparison still runs), a
// speedup floor skipped because the machine lacks the cores, or an
// entry whose committed MinCPU exceeds the current machine — every
// regression in such an entry is downgraded to a warning wholesale.
func findRegressions(base, cur *Report) (regs, warns []string) {
	baseline := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	for _, c := range cur.Benchmarks {
		b, ok := baseline[c.Name]
		if !ok {
			continue
		}
		// Per-entry regressions accumulate here first: when the entry
		// was committed on bigger hardware than this run has, they all
		// demote to warnings instead of failing the check.
		var entry []string
		bs, cs := speedupOf(b), speedupOf(c)
		switch {
		case bs > 0 && cs > 0:
			// Speedup is measured against the in-process serial
			// reference, so it transfers across machines.
			if cs < bs/maxRegression {
				entry = append(entry, fmt.Sprintf(
					"%s: speedup %.2fx, baseline %.2fx (>25%% drop)",
					c.Name, cs, bs))
			}
		case bs > 0 || cs > 0:
			// A reference exists on one side only — say so instead of
			// silently skipping, and fall back to raw ns/op.
			warns = append(warns, fmt.Sprintf(
				"%s: serial reference present in only one report (baseline %.2fx, current %.2fx); comparing raw ns/op instead",
				c.Name, bs, cs))
			fallthrough
		default:
			if b.NsPerOp > 0 && float64(c.NsPerOp) > float64(b.NsPerOp)*maxRegression {
				entry = append(entry, fmt.Sprintf(
					"%s: %d ns/op, baseline %d ns/op (>25%% slower)",
					c.Name, c.NsPerOp, b.NsPerOp))
			}
		}
		// Allocation budget: the committed baseline's budget is the
		// contract; headroom absorbs allocator noise.
		if budget := b.MaxAllocsPerOp; budget > 0 {
			if float64(c.AllocsPerOp) > float64(budget)*allocHeadroom {
				entry = append(entry, fmt.Sprintf(
					"%s: %d allocs/op, budget %d (>%.0f%% over)",
					c.Name, c.AllocsPerOp, budget, (allocHeadroom-1)*100))
			}
		}
		// Scaling floor: only meaningful with enough cores to scale.
		if floor := b.MinSpeedup; floor > 0 && cs > 0 {
			if cur.NumCPU < minCPUForSpeedupGate {
				warns = append(warns, fmt.Sprintf(
					"%s: speedup floor %.2fx not enforced on a %d-CPU machine (need ≥%d)",
					c.Name, floor, cur.NumCPU, minCPUForSpeedupGate))
			} else if cs < floor {
				entry = append(entry, fmt.Sprintf(
					"%s: speedup %.2fx under committed floor %.2fx",
					c.Name, cs, floor))
			}
		}
		if b.MinCPU > 0 && cur.NumCPU < b.MinCPU {
			for _, r := range entry {
				warns = append(warns, fmt.Sprintf(
					"NOT ENFORCED on %d CPUs (entry committed at ≥%d): %s",
					cur.NumCPU, b.MinCPU, r))
			}
		} else {
			regs = append(regs, entry...)
		}
	}
	return regs, warns
}

// markdownDiff renders a GitHub-flavored markdown delta table of cur
// vs base, for CI job summaries.
func markdownDiff(base, cur *Report) string {
	baseline := make(map[string]Bench, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	pct := func(old, new int64) string {
		if old <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(float64(new)-float64(old))/float64(old))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Bench delta: %s vs baseline %s\n\n", cur.Rev, base.Rev)
	fmt.Fprintf(&sb, "GOMAXPROCS=%d cpus=%d scenario=%s\n\n", cur.GOMAXPROCS, cur.NumCPU, cur.Scenario)
	sb.WriteString("| benchmark | ns/op | Δ ns/op | allocs/op | Δ allocs | budget | speedup |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|---:|\n")
	for _, c := range cur.Benchmarks {
		dns, dallocs, budget, speed := "new", "new", "—", "—"
		if b, ok := baseline[c.Name]; ok {
			dns = pct(b.NsPerOp, c.NsPerOp)
			dallocs = pct(b.AllocsPerOp, c.AllocsPerOp)
		}
		if c.MaxAllocsPerOp > 0 {
			budget = fmt.Sprintf("%d", c.MaxAllocsPerOp)
		}
		if s := speedupOf(c); s > 0 {
			speed = fmt.Sprintf("%.2fx", s)
		}
		fmt.Fprintf(&sb, "| %s | %d | %s | %d | %s | %s | %s |\n",
			c.Name, c.NsPerOp, dns, c.AllocsPerOp, dallocs, budget, speed)
	}
	return sb.String()
}

// table renders the human-readable summary.
func table(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rev %s  %s  GOMAXPROCS=%d  cpus=%d  scenario=%s\n\n",
		rep.Rev, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU, rep.Scenario)
	fmt.Fprintf(&sb, "%-22s %14s %12s %14s %8s\n",
		"benchmark", "ns/op", "allocs/op", "serial ns/op", "speedup")
	for _, b := range rep.Benchmarks {
		serial, speedup := "-", "-"
		if b.SerialNsPerOp > 0 {
			serial = fmt.Sprintf("%d", b.SerialNsPerOp)
			speedup = fmt.Sprintf("%.2fx", speedupOf(b))
		}
		fmt.Fprintf(&sb, "%-22s %14d %12d %14s %8s\n",
			b.Name, b.NsPerOp, b.AllocsPerOp, serial, speedup)
	}
	return sb.String()
}

func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(buf, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// gitRev returns the short HEAD hash, or "dev" outside a checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=8", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
