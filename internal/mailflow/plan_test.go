package mailflow

import "testing"

// TestTimeArenaSlicesStayPut pins the arena contract the plans rely on:
// a handed-out slice is exactly as long as asked, keeps its contents
// while later allocations add blocks, and a reset arena serves the same
// sequence again without allocating.
func TestTimeArenaSlicesStayPut(t *testing.T) {
	sizes := []int{1, 1000, 5000, 3, arenaMaxBlock + 7, 2, 40000}
	var a timeArena
	got := make([][]int64, len(sizes))
	for i, n := range sizes {
		s := a.alloc(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("alloc(%d): len %d cap %d", n, len(s), cap(s))
		}
		for j := range s {
			s[j] = int64(i)
		}
		got[i] = s
	}
	for i, s := range got {
		for _, v := range s {
			if v != int64(i) {
				t.Fatalf("slice %d overwritten by a later allocation", i)
			}
		}
	}
	if a.alloc(0) != nil {
		t.Fatal("alloc(0) returned a slice")
	}
	allocs := testing.AllocsPerRun(5, func() {
		a.reset()
		for _, n := range sizes {
			a.alloc(n)
		}
	})
	if allocs != 0 {
		t.Fatalf("reset arena allocated %.0f times serving the same sizes", allocs)
	}
}
