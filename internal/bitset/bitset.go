// Package bitset implements the fixed-size bitsets behind the
// analysis package's pairwise set algebra. The paper's coverage and
// intersection tables reduce to |A ∩ B| over sets of domain ids
// (internal/analysis's name-ranked id space); with one bit per id those become word-wise AND + popcount
// passes that run at memory bandwidth and shard cleanly across
// workers.
package bitset

import "math/bits"

// Set is a fixed-capacity bitset over [0, n). The zero value is
// unusable; allocate with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity n bits.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Words exposes the backing words for range-sharded scans. Callers
// must not resize it.
func (s *Set) Words() []uint64 { return s.words }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i>>6] |= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Each calls fn for every member in ascending order.
func (s *Set) Each(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits within words [lo, hi)
// (word indexes, not bit indexes) — the unit used for sharded counts.
func (s *Set) CountRange(lo, hi int) int {
	c := 0
	for _, w := range s.words[lo:hi] {
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCount returns |s ∩ t| without materializing the intersection.
// Sets must have equal capacity.
func (s *Set) AndCount(t *Set) int {
	c := 0
	tw := t.words
	for i, w := range s.words {
		c += bits.OnesCount64(w & tw[i])
	}
	return c
}

// AndCountRange is AndCount restricted to words [lo, hi).
func (s *Set) AndCountRange(t *Set, lo, hi int) int {
	c := 0
	tw := t.words[lo:hi]
	for i, w := range s.words[lo:hi] {
		c += bits.OnesCount64(w & tw[i])
	}
	return c
}

// AndNotCountRange returns |s ∩ t ∩ ¬u| over words [lo, hi) — the
// exclusive-domain count: in this feed and class, in no other feed.
func (s *Set) AndNotCountRange(t, u *Set, lo, hi int) int {
	c := 0
	tw := t.words[lo:hi]
	uw := u.words[lo:hi]
	for i, w := range s.words[lo:hi] {
		c += bits.OnesCount64(w & tw[i] &^ uw[i])
	}
	return c
}

// OrInRange ORs t into s over words [lo, hi).
func (s *Set) OrInRange(t *Set, lo, hi int) {
	tw := t.words[lo:hi]
	for i := range tw {
		s.words[lo+i] |= tw[i]
	}
}

// AccumulateOnceMulti folds feed f into the (once, multi) pair over
// words [lo, hi): after folding every feed, once holds ids seen in at
// least one feed and multi ids seen in two or more. Exclusive ids are
// once &^ multi.
func AccumulateOnceMulti(once, multi, f *Set, lo, hi int) {
	fw := f.words[lo:hi]
	ow := once.words[lo:hi]
	mw := multi.words[lo:hi]
	for i, w := range fw {
		mw[i] |= ow[i] & w
		ow[i] |= w
	}
}
