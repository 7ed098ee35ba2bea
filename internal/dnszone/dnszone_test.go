package dnszone

import (
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/simclock"
)

var (
	t0 = simclock.PaperStart
	t1 = t0.AddDate(0, 0, 10)
	t2 = t0.AddDate(0, 0, 20)
	t3 = t0.AddDate(0, 0, 30)
)

func TestRegisterAndActiveAt(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Register(d, t1)
	if r.ActiveAt(d, t0) {
		t.Error("active before registration")
	}
	if !r.ActiveAt(d, t1) {
		t.Error("not active at registration instant")
	}
	if !r.ActiveAt(d, t2) {
		t.Error("not active after registration")
	}
}

func TestDropEndsInterval(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Register(d, t1)
	r.Drop(d, t2)
	if !r.ActiveAt(d, t1) {
		t.Error("not active while registered")
	}
	if r.ActiveAt(d, t2) {
		t.Error("active at drop instant (interval is half-open)")
	}
	if r.ActiveAt(d, t3) {
		t.Error("active after drop")
	}
}

func TestReRegistration(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Register(d, t0)
	r.Drop(d, t1)
	r.Register(d, t2)
	if r.ActiveAt(d, t1.Add(time.Hour)) {
		t.Error("active in the gap")
	}
	if !r.ActiveAt(d, t3) {
		t.Error("not active after re-registration")
	}
}

func TestRegisterIdempotentWhileActive(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Register(d, t0)
	r.Register(d, t1) // no-op
	r.Drop(d, t2)
	if r.ActiveAt(d, t3) {
		t.Error("second Register should not have opened a new interval")
	}
}

func TestDropInactiveNoop(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Drop(d, t1) // never registered; must not panic
	r.Register(d, t2)
	if !r.ActiveAt(d, t3) {
		t.Error("registration after stray drop should be active")
	}
}

func TestAppearedDuring(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Register(d, t1)
	r.Drop(d, t2)
	cases := []struct {
		w    simclock.Window
		want bool
	}{
		{simclock.Window{Start: t0, End: t1}, false},                // ends exactly at registration
		{simclock.Window{Start: t0, End: t1.Add(time.Hour)}, true},  // overlaps start
		{simclock.Window{Start: t2, End: t3}, false},                // starts exactly at drop
		{simclock.Window{Start: t1, End: t2}, true},                 // exact interval
		{simclock.Window{Start: t0, End: t3}, true},                 // covers
		{simclock.Window{Start: t2.Add(time.Hour), End: t3}, false}, // after
	}
	for i, c := range cases {
		if got := r.AppearedDuring(d, c.w); got != c.want {
			t.Errorf("case %d: AppearedDuring = %v, want %v", i, got, c.want)
		}
	}
}

func TestStillActiveOverlapsAnyLaterWindow(t *testing.T) {
	r := NewPaperRegistry()
	d := domain.Name("pills.com")
	r.Register(d, t0)
	w := simclock.Window{Start: t3, End: t3.AddDate(0, 0, 10)}
	if !r.AppearedDuring(d, w) {
		t.Error("still-registered domain should appear in later windows")
	}
}

func TestCoversTLD(t *testing.T) {
	r := NewPaperRegistry()
	for _, tld := range PaperZoneTLDs {
		if !r.CoversTLD(tld) {
			t.Errorf("paper registry should cover %q", tld)
		}
	}
	if r.CoversTLD("ru") {
		t.Error("paper registry should not cover ru")
	}
	if !r.Covers(domain.Name("x.com")) || r.Covers(domain.Name("x.ru")) {
		t.Error("Covers mismatch")
	}
}

func TestSnapshotSortedAndFiltered(t *testing.T) {
	r := NewPaperRegistry()
	r.Register(domain.Name("zzz.com"), t0)
	r.Register(domain.Name("aaa.com"), t0)
	r.Register(domain.Name("gone.com"), t0)
	r.Drop(domain.Name("gone.com"), t1)
	r.Register(domain.Name("other.net"), t0)
	snap := r.Snapshot("com", t2)
	if len(snap) != 2 || snap[0] != "aaa.com" || snap[1] != "zzz.com" {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestSize(t *testing.T) {
	r := NewPaperRegistry()
	r.Register(domain.Name("a.com"), t0)
	r.Register(domain.Name("b.net"), t0)
	r.Register(domain.Name("a.com"), t1) // idempotent
	if got := r.Size(); got != 2 {
		t.Fatalf("Size = %d", got)
	}
}

func TestPaperZoneWindowBracketsMeasurement(t *testing.T) {
	w := PaperZoneWindow()
	m := simclock.PaperWindow()
	if !w.Start.Before(m.Start) || !w.End.After(m.End) {
		t.Fatal("zone window must bracket the measurement window")
	}
	// Roughly 16 months on each side.
	if days := int(m.Start.Sub(w.Start).Hours() / 24); days < 450 || days > 520 {
		t.Errorf("pre-bracket %d days, want ~487", days)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewPaperRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := domain.Name(string(rune('a'+i)) + "x.com")
			for j := 0; j < 100; j++ {
				r.Register(d, t0)
				r.ActiveAt(d, t1)
				r.AppearedDuring(d, simclock.Window{Start: t0, End: t3})
				r.Drop(d, t2)
			}
		}(i)
	}
	wg.Wait()
}

func TestAppearedDuringEachMatchesAppearedDuring(t *testing.T) {
	r := NewPaperRegistry()
	r.Register("pills.com", t1)
	r.Drop("pills.com", t2)
	r.Register("meds.net", t0)
	r.Register("late.org", t3)
	r.Register("uncovered.ru", t0)
	names := []domain.Name{"pills.com", "meds.net", "late.org", "uncovered.ru", "never.com", "pills.com"}
	w := simclock.Window{Start: t0.Add(time.Hour), End: t2.Add(time.Hour)}
	found := make([]bool, len(names))
	r.AppearedDuringEach(names, w, found)
	for i, d := range names {
		if want := r.AppearedDuring(d, w); found[i] != want {
			t.Errorf("%s: AppearedDuringEach = %v, AppearedDuring = %v", d, found[i], want)
		}
	}
	if !found[0] || !found[1] || found[2] || found[4] {
		t.Fatalf("unexpected appearances %v", found)
	}
}
