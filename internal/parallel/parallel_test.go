package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamp(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got < 1 {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 1000
		var hits [n]int32
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndTiny(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("called for n=0") })
	ran := false
	ForEach(8, 1, func(i int) { ran = true })
	if !ran {
		t.Fatal("n=1 not executed")
	}
}

func TestShardsPartition(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		var total int64
		const n = 997
		Shards(workers, func(shard, of int) {
			var local int64
			for i := shard; i < n; i += of {
				local += int64(i)
			}
			atomic.AddInt64(&total, local)
		})
		want := int64(n*(n-1)) / 2
		if total != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, total, want)
		}
	}
}

func TestRangesCoverExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 16} {
		const n = 1031
		var hits [n]int32
		Ranges(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	Ranges(4, 0, func(lo, hi int) { t.Fatal("called for n=0") })
}

// TestMapOrderIndependent verifies results land at their input index
// for every worker count — the determinism contract.
func TestMapOrderIndependent(t *testing.T) {
	in := make([]int, 512)
	for i := range in {
		in[i] = i
	}
	want := Map(1, in, func(v int) int { return v * v })
	for _, workers := range []int{2, 4, 9} {
		got := Map(workers, in, func(v int) int { return v * v })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForEachSkewedWorkDoesNotSerialize pins claimed scheduling: with
// two workers, index 0 cannot finish until 1, 2 and 3 have, so the
// worker stuck on it must not own any of them. Striping (worker 0 runs
// 0 and 2) deadlocks here; claiming lets the other worker drain 1–3.
func TestForEachSkewedWorkDoesNotSerialize(t *testing.T) {
	var done [4]chan struct{}
	for i := range done {
		done[i] = make(chan struct{})
	}
	finished := make(chan struct{})
	go func() {
		ForEach(2, 4, func(i int) {
			if i == 0 {
				for _, c := range done[1:] {
					<-c
				}
			}
			close(done[i])
		})
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("ForEach serialized index 0 ahead of indexes its worker also owns")
	}
}
