package bitset

import (
	"testing"

	"tasterschoice/internal/randutil"
)

func randomSet(rng *randutil.RNG, n int, p float64) (*Set, map[int]bool) {
	s := New(n)
	ref := make(map[int]bool)
	for i := 0; i < n; i++ {
		if rng.Bool(p) {
			s.Set(i)
			ref[i] = true
		}
	}
	return s, ref
}

func TestSetHasCount(t *testing.T) {
	rng := randutil.New(1)
	s, ref := randomSet(rng, 517, 0.3)
	for i := 0; i < 517; i++ {
		if s.Has(i) != ref[i] {
			t.Fatalf("bit %d: got %v", i, s.Has(i))
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("Count %d, want %d", s.Count(), len(ref))
	}
	if got := s.CountRange(0, len(s.Words())); got != len(ref) {
		t.Fatalf("CountRange %d, want %d", got, len(ref))
	}
}

func TestEachAscending(t *testing.T) {
	rng := randutil.New(4)
	for _, n := range []int{0, 1, 63, 64, 65, 517} {
		s, ref := randomSet(rng, n, 0.3)
		prev := -1
		got := 0
		s.Each(func(i int) {
			if i <= prev || !ref[i] {
				t.Fatalf("n=%d: Each yielded %d after %d", n, i, prev)
			}
			prev = i
			got++
		})
		if got != len(ref) {
			t.Fatalf("n=%d: Each yielded %d members, want %d", n, got, len(ref))
		}
	}
}

func TestAndCountMatchesReference(t *testing.T) {
	rng := randutil.New(2)
	const n = 1003
	a, ra := randomSet(rng, n, 0.4)
	b, rb := randomSet(rng, n, 0.25)
	want := 0
	for i := range ra {
		if rb[i] {
			want++
		}
	}
	if got := a.AndCount(b); got != want {
		t.Fatalf("AndCount %d, want %d", got, want)
	}
	// Range-split counts must sum to the whole.
	mid := len(a.Words()) / 2
	split := a.AndCountRange(b, 0, mid) + a.AndCountRange(b, mid, len(a.Words()))
	if split != want {
		t.Fatalf("split AndCountRange %d, want %d", split, want)
	}
}

func TestAndNotCountRange(t *testing.T) {
	rng := randutil.New(3)
	const n = 700
	a, ra := randomSet(rng, n, 0.5)
	b, rb := randomSet(rng, n, 0.5)
	c, rc := randomSet(rng, n, 0.5)
	want := 0
	for i := range ra {
		if rb[i] && !rc[i] {
			want++
		}
	}
	if got := a.AndNotCountRange(b, c, 0, len(a.Words())); got != want {
		t.Fatalf("AndNotCountRange %d, want %d", got, want)
	}
}

func TestAccumulateOnceMulti(t *testing.T) {
	rng := randutil.New(4)
	const n = 999
	feeds := make([]*Set, 6)
	occ := make([]int, n)
	for f := range feeds {
		s, ref := randomSet(rng, n, 0.2)
		feeds[f] = s
		for i := range ref {
			occ[i]++
		}
	}
	once, multi := New(n), New(n)
	w := len(once.Words())
	for _, f := range feeds {
		AccumulateOnceMulti(once, multi, f, 0, w)
	}
	for i := 0; i < n; i++ {
		if once.Has(i) != (occ[i] >= 1) {
			t.Fatalf("once bit %d wrong (occ %d)", i, occ[i])
		}
		if multi.Has(i) != (occ[i] >= 2) {
			t.Fatalf("multi bit %d wrong (occ %d)", i, occ[i])
		}
	}
	// Exclusive membership for feed 0: in feed 0 and occ == 1.
	for i := 0; i < n; i++ {
		excl := feeds[0].Has(i) && occ[i] == 1
		got := feeds[0].Has(i) && once.Has(i) && !multi.Has(i)
		if excl != got {
			t.Fatalf("exclusive bit %d: got %v want %v", i, got, excl)
		}
	}
}

func TestOrInRange(t *testing.T) {
	a := New(200)
	b := New(200)
	b.Set(3)
	b.Set(150)
	a.OrInRange(b, 0, len(a.Words()))
	if !a.Has(3) || !a.Has(150) || a.Count() != 2 {
		t.Fatalf("OrInRange failed: count %d", a.Count())
	}
}
