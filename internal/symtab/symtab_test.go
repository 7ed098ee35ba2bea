package symtab

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestEmptyStringIsIDZero(t *testing.T) {
	tab := New()
	if got := tab.Intern(""); got != 0 {
		t.Fatalf("Intern(\"\") = %d, want 0", got)
	}
	if got := tab.Lookup(0); got != "" {
		t.Fatalf("Lookup(0) = %q, want \"\"", got)
	}
}

func TestInternAssignsDenseIDsInFirstSeenOrder(t *testing.T) {
	tab := New()
	words := []string{"example.com", "other.net", "example.com", "third.org"}
	want := []ID{1, 2, 1, 3}
	for i, w := range words {
		if got := tab.Intern(w); got != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", w, got, want[i])
		}
	}
	if tab.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tab.Len())
	}
}

func TestInternBytesMatchesIntern(t *testing.T) {
	tab := New()
	a := tab.Intern("pillshop.com")
	b := tab.InternBytes([]byte("pillshop.com"))
	if a != b {
		t.Fatalf("InternBytes = %d, Intern = %d", b, a)
	}
}

func TestLookupRoundTripAcrossPages(t *testing.T) {
	tab := New()
	const n = 3*pageSize + 17 // force several page allocations
	ids := make([]ID, n)
	for i := 0; i < n; i++ {
		ids[i] = tab.Intern(fmt.Sprintf("domain-%d.com", i))
	}
	for i, id := range ids {
		want := fmt.Sprintf("domain-%d.com", i)
		if got := tab.Lookup(id); got != want {
			t.Fatalf("Lookup(%d) = %q, want %q", id, got, want)
		}
	}
}

func TestFind(t *testing.T) {
	tab := New()
	id := tab.Intern("findme.com")
	got, ok := tab.Find("findme.com")
	if !ok || got != id {
		t.Fatalf("Find = (%d, %v), want (%d, true)", got, ok, id)
	}
	if _, ok := tab.Find("absent.com"); ok {
		t.Fatal("Find of absent symbol reported ok")
	}
}

func TestAutoURL(t *testing.T) {
	tab := New()
	d := tab.Intern("cheappills.com")
	u := tab.AutoURL(d)
	if got := tab.Lookup(u); got != "http://cheappills.com/" {
		t.Fatalf("AutoURL string = %q", got)
	}
	if again := tab.AutoURL(d); again != u {
		t.Fatalf("AutoURL not stable: %d then %d", u, again)
	}
	// The derived URL is a plain symbol: interning the same string
	// must return the same ID.
	if got := tab.Intern("http://cheappills.com/"); got != u {
		t.Fatalf("Intern of derived URL = %d, want %d", got, u)
	}
}

// TestAutoURLAcrossPages derives URLs for symbols on several pages,
// interleaved with the new URL symbols they add, and checks every
// cached derivation on a second pass.
func TestAutoURLAcrossPages(t *testing.T) {
	tab := New()
	const n = 3*pageSize + 17
	ids := make([]ID, n)
	urls := make([]ID, n)
	for i := range ids {
		ids[i] = tab.Intern(fmt.Sprintf("domain-%d.com", i))
		urls[i] = tab.AutoURL(ids[i])
	}
	for i, id := range ids {
		if got := tab.AutoURL(id); got != urls[i] {
			t.Fatalf("AutoURL(%d) = %d, first call gave %d", id, got, urls[i])
		}
		if want := fmt.Sprintf("http://domain-%d.com/", i); tab.Lookup(urls[i]) != want {
			t.Fatalf("AutoURL(%d) string = %q, want %q", id, tab.Lookup(urls[i]), want)
		}
	}
}

func TestLookupPanicsOnUnassignedID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range Lookup")
		}
	}()
	New().Lookup(99)
}

// TestConcurrentLookupDuringIntern exercises the lock-free reader
// contract under the race detector: one writer interning, many readers
// looking up already-published IDs.
func TestConcurrentLookupDuringIntern(t *testing.T) {
	tab := New()
	const total = 4 * pageSize
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := tab.Len()
				for id := 0; id < n; id++ {
					if tab.Lookup(ID(id)) == "missing" {
						t.Error("impossible symbol")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		tab.Intern(fmt.Sprintf("concurrent-%d.net", i))
	}
	close(stop)
	wg.Wait()
	if tab.Len() != total+1 {
		t.Fatalf("Len = %d, want %d", tab.Len(), total+1)
	}
}

// internPoison interns k fresh symbols on a fresh table, each followed
// by AutoURL — the pattern of the engine's serial poison and junk
// phases — and returns the bytes allocated doing it.
func internPoison(k int) uint64 {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("poison-%d.example", i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab := New()
	for _, s := range names {
		tab.AutoURL(tab.Intern(s))
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestAutoURLAllocationLinear is a complexity guard: doubling the
// number of fresh symbols interned through AutoURL must roughly double
// the bytes allocated. A cache that is regrown to the table's exact
// length on every miss copies the whole cache per symbol, which is
// quadratic and shows here as a ~4x ratio.
func TestAutoURLAllocationLinear(t *testing.T) {
	const k = 4096
	small, large := internPoison(k), internPoison(2*k)
	ratio := float64(large) / float64(small)
	t.Logf("allocated %d B for k=%d, %d B for k=%d (ratio %.2f)", small, k, large, 2*k, ratio)
	if ratio > 2.5 {
		t.Fatalf("AutoURL allocation grew %.2fx from k=%d to k=%d; want <= 2.5x (linear)", ratio, k, 2*k)
	}
}
