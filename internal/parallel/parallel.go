// Package parallel provides the small deterministic worker-pool
// primitives shared by the analysis and simulation hot paths.
//
// The determinism contract is ownership, not placement: fn(i) owns
// index i — it writes only state that belongs to i (out[i], plans[i],
// shard i) and reads shared state that no call writes — so the result
// is the same whichever worker runs which index, and in whatever
// order. ForEach therefore hands indexes out dynamically: each worker
// claims the next unclaimed index from an atomic counter, so one slow
// index (a mega-campaign, a hot webmail shard) delays only its own
// worker while the others drain the rest. Shards and Ranges instead
// split the work statically, for callers that own a fixed partition
// (a bucket per shard, a contiguous word range). Any code built on
// these helpers produces identical results for every worker count,
// which is what the golden tests pin down.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tasterschoice/internal/obs"
)

// PoolMetrics observes every pool invocation in the process. The zero
// value is inert; commands that expose metrics populate Metrics once
// during startup (before any pool runs — the fields are read without
// synchronization on the hot path).
//
// Observation never influences results: instrumented and
// uninstrumented runs compute every index with the same fn, so they
// produce identical results — the determinism contract of this
// package is unchanged.
type PoolMetrics struct {
	// Calls counts pool invocations (ForEach/Shards/Ranges/Map).
	Calls *obs.Counter
	// Tasks counts items dispatched across all invocations.
	Tasks *obs.Counter
	// InFlight tracks currently running workers.
	InFlight *obs.Gauge
	// ShardImbalanceNs records, per multi-worker invocation, the gap in
	// wall nanoseconds between the slowest and fastest shard — the
	// straggler signal. Only measured when non-nil (it costs two
	// time.Now calls per shard).
	ShardImbalanceNs *obs.Histogram
}

// Metrics is the process-wide pool instrumentation hook.
var Metrics PoolMetrics

// NewPoolMetrics wires a PoolMetrics to r. Safe with a nil registry.
func NewPoolMetrics(r *obs.Registry) PoolMetrics {
	m := PoolMetrics{
		Calls:            r.Counter("parallel_calls_total"),
		Tasks:            r.Counter("parallel_tasks_total"),
		InFlight:         r.Gauge("parallel_workers_in_flight"),
		ShardImbalanceNs: r.Histogram("parallel_shard_imbalance_ns", []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}),
	}
	r.Describe("parallel_calls_total", "Worker-pool invocations.")
	r.Describe("parallel_tasks_total", "Items dispatched to worker pools.")
	r.Describe("parallel_workers_in_flight", "Workers currently running.")
	r.Describe("parallel_shard_imbalance_ns", "Slowest minus fastest shard wall time per invocation.")
	return m
}

// wallNow is the clock behind the shard-imbalance histogram. It is
// deliberately the wall clock — the one sanctioned use in this
// package: straggler gaps are a property of the real machine, and the
// timings feed observability only, never work assignment.
var wallNow = time.Now //lint:allow wallclock -- shard-latency measurement is observational; results never depend on which worker ran an index

// imbalance tracks per-shard wall durations for the straggler
// histogram; used only when Metrics.ShardImbalanceNs is set.
type imbalance struct {
	mu       sync.Mutex
	min, max time.Duration
	n        int
}

func (im *imbalance) add(d time.Duration) {
	im.mu.Lock()
	if im.n == 0 || d < im.min {
		im.min = d
	}
	if d > im.max {
		im.max = d
	}
	im.n++
	im.mu.Unlock()
}

func (im *imbalance) record() {
	if im.n > 1 {
		Metrics.ShardImbalanceNs.Observe(float64(im.max - im.min))
	}
}

// Workers clamps a requested worker count: n <= 0 selects
// runtime.GOMAXPROCS(0), and the result is never less than 1.
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) across the given number of
// workers and returns when all calls have completed. Workers claim
// indexes one at a time from a shared counter, so which worker runs an
// index, and in what order, depends on timing: fn(i) must own index i,
// writing only state that belongs to i, so that the result does not.
// workers <= 0 selects GOMAXPROCS; a single worker runs inline, in
// index order, with no goroutine overhead.
func ForEach(workers, n int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	Metrics.Calls.Inc()
	Metrics.Tasks.Add(int64(n))
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	measure := Metrics.ShardImbalanceNs != nil
	var im imbalance
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			Metrics.InFlight.Add(1)
			defer Metrics.InFlight.Add(-1)
			var start time.Time
			if measure {
				start = wallNow()
			}
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
			if measure {
				im.add(wallNow().Sub(start))
			}
		}()
	}
	wg.Wait()
	if measure {
		im.record()
	}
}

// Shards invokes fn(shard, of) once per shard with of == effective
// worker count, concurrently. It is the primitive behind sharded-map
// patterns: the callee strides over its own data (i = shard; i < n;
// i += of) or owns the shard'th bucket of a fixed partition.
func Shards(workers int, fn func(shard, of int)) {
	workers = Workers(workers)
	Metrics.Calls.Inc()
	if workers <= 1 {
		fn(0, 1)
		return
	}
	measure := Metrics.ShardImbalanceNs != nil
	var im imbalance
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(shard int) {
			defer wg.Done()
			Metrics.InFlight.Add(1)
			defer Metrics.InFlight.Add(-1)
			var start time.Time
			if measure {
				start = wallNow()
			}
			fn(shard, workers)
			if measure {
				im.add(wallNow().Sub(start))
			}
		}(w)
	}
	wg.Wait()
	if measure {
		im.record()
	}
}

// Ranges splits [0, n) into at most `workers` contiguous ranges of
// near-equal size and invokes fn(lo, hi) for each concurrently. Use it
// when cache locality matters more than balance (e.g. word-wise bitset
// scans).
func Ranges(workers, n int, fn func(lo, hi int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	Metrics.Calls.Inc()
	Metrics.Tasks.Add(int64(n))
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	measure := Metrics.ShardImbalanceNs != nil
	var im imbalance
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(lo, hi int) {
			defer wg.Done()
			Metrics.InFlight.Add(1)
			defer Metrics.InFlight.Add(-1)
			var start time.Time
			if measure {
				start = wallNow()
			}
			if hi > lo {
				fn(lo, hi)
			}
			if measure {
				im.add(wallNow().Sub(start))
			}
		}(lo, hi)
	}
	wg.Wait()
	if measure {
		im.record()
	}
}

// Map applies fn to every element of in across workers and returns the
// results in input order.
func Map[T, R any](workers int, in []T, fn func(T) R) []R {
	out := make([]R, len(in))
	ForEach(workers, len(in), func(i int) {
		out[i] = fn(in[i])
	})
	return out
}
