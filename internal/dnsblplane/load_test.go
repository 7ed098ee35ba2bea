package dnsblplane

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/simclock"
)

// tsvRow formats one aggregate row with a one-day observation span.
func tsvRow(d, first string) string {
	return d + "\t1\t" + first + "\t2010-08-09T00:00:00Z\thttp://" + d + "/\n"
}

// FuzzLoadTSVMatchesReadTSV is the differential contract of the bulk
// loader: on any input LoadTSV fails exactly when feeds.ReadTSV does,
// with the same error, and publishes nothing; when both succeed, the
// zone it builds answers Listed and Lookup (first-seen time and feed)
// like LoadFeed(ReadTSV(input)) for every name in the feed.
func FuzzLoadTSVMatchesReadTSV(f *testing.F) {
	const (
		hdr = "#feed bl\tblacklist\tfalse\tfalse\n"
		t1  = "2010-08-01T00:00:00Z"
		t2  = "2010-08-02T12:30:00.5Z"
	)
	f.Add(hdr + tsvRow("a.com", t1) + tsvRow("b.net", t2))
	f.Add(hdr + tsvRow("a.com", t1) + tsvRow("a.com", t2))                          // duplicate row
	f.Add(hdr + tsvRow("A.com", t2) + tsvRow("a.com", t1))                          // case pair, later row earlier
	f.Add(hdr + tsvRow("a.com", t1) + tsvRow("A.COM", t1) + tsvRow("A.com", t2))    // three spellings
	f.Add(hdr + tsvRow("A.com", t1) + tsvRow("a.com", t1) + tsvRow("A.com", t1))    // case pair, then a duplicate
	f.Add(hdr + tsvRow("a.com.", t2) + tsvRow("a.com", t1) + tsvRow("a.com..", t1)) // trailing dots
	f.Add(hdr + "\n" + tsvRow("a.com", t1) + "\n\n" + tsvRow("b.net", t1) + "\n")   // blank lines
	f.Add("#feed \tblacklist\tfalse\tfalse\n" + tsvRow("a.com", t1))                // empty header name
	f.Add(hdr + tsvRow("", t1) + tsvRow(".", t1) + tsvRow("", t2))                  // empty keys
	f.Add(hdr + tsvRow("Ä.com", t1) + tsvRow("ä.com", t2) + tsvRow("\xff.com", t1)) // non-ASCII
	f.Add(hdr + tsvRow("a.com", t1) + tsvRow("a.com", t1) + "bad\trow\n")           // duplicate, then a bad row
	f.Add(hdr + "bad\trow\n" + tsvRow("a.com", t1) + tsvRow("a.com", t1))           // bad row, then a duplicate
	f.Add(hdr + "a.com\t1\t" + t2 + "\t" + t1 + "\t\n")                             // last before first
	f.Add(hdr + "a.com\t1\t1677-01-01T00:00:00Z\t3000-01-01T00:00:00Z\t\n")         // outside UnixNano range
	f.Add("#feed bl\tmx\ttrue\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		const zone, fallback = "dbl.test", "file"
		want, werr := feeds.ReadTSV(strings.NewReader(raw))
		got, err := New(Config{Zones: []ZoneConfig{{Suffix: zone}}})
		if err != nil {
			t.Fatal(err)
		}
		n, gerr := got.LoadTSV(zone, strings.NewReader(raw), fallback)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("LoadTSV err = %v, ReadTSV err = %v\n  input: %q", gerr, werr, raw)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("LoadTSV err %q, ReadTSV err %q\n  input: %q", gerr, werr, raw)
			}
			if listed, _ := got.Listed(zone); listed != 0 {
				t.Fatalf("failed load published %d names\n  input: %q", listed, raw)
			}
			return
		}
		if want.Name == "" {
			want.Name = fallback
		}
		ref, err := New(Config{Zones: []ZoneConfig{{Suffix: zone}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.LoadFeed(zone, want); err != nil {
			t.Fatal(err)
		}
		if n != want.Unique() {
			t.Fatalf("LoadTSV read %d rows, ReadTSV %d\n  input: %q", n, want.Unique(), raw)
		}
		gotN, _ := got.Listed(zone)
		wantN, _ := ref.Listed(zone)
		if gotN != wantN {
			t.Fatalf("Listed = %d, want %d\n  input: %q", gotN, wantN, raw)
		}
		want.EachUnordered(func(d domain.Name, _ feeds.DomainStat) {
			gl, gf, gfeed, _ := got.Lookup(zone, string(d))
			wl, wf, wfeed, _ := ref.Lookup(zone, string(d))
			if gl != wl || !gf.Equal(wf) || gfeed != wfeed {
				t.Fatalf("Lookup(%q) = %v %v %q, want %v %v %q\n  input: %q",
					d, gl, gf, gfeed, wl, wf, wfeed, raw)
			}
		})
	})
}

// feedTSV serializes a blacklist feed of n generated domains.
func feedTSV(t testing.TB, n int) []byte {
	t.Helper()
	f := feeds.New("bl", feeds.KindBlacklist, false, true)
	for i := 0; i < n; i++ {
		f.Observe(simclock.PaperStart.Add(time.Duration(i)*time.Second),
			domain.Name(fmt.Sprintf("spam%06d.example", i)),
			fmt.Sprintf("http://spam%06d.example/p/c%d", i, i%97))
	}
	var buf bytes.Buffer
	if err := f.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadTSVAllocLinear guards the bulk load against superlinear
// growth: the bytes allocated per loaded row at 64K rows stay within
// 1.5× of those at 1K rows (each the least of three cold loads into a
// fresh plane).
func TestLoadTSVAllocLinear(t *testing.T) {
	perRow := func(n int) float64 {
		data := feedTSV(t, n)
		least := uint64(0)
		for run := 0; run < 3; run++ {
			p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := p.LoadTSV("dbl.test", bytes.NewReader(data), ""); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; run == 0 || b < least {
				least = b
			}
			runtime.KeepAlive(p)
		}
		return float64(least) / float64(n)
	}
	small, large := perRow(1<<10), perRow(1<<16)
	t.Logf("bytes per row: %.1f at 1K rows, %.1f at 64K rows", small, large)
	if ratio := max(small, large) / min(small, large); ratio > 1.5 {
		t.Fatalf("bytes per row %.1f (1K) vs %.1f (64K): %.2f× apart, bound 1.5×", small, large, ratio)
	}
}

// TestLoadTSVIntoListedZone: a bulk load into a zone that already has
// listings keeps the earliest listing per domain, as Apply does.
func TestLoadTSVIntoListedZone(t *testing.T) {
	p := mustPlane(t)
	early, late := simclock.PaperStart, simclock.PaperStart.Add(48*time.Hour)
	err := p.Apply("dbl.test", []Record{
		{Domain: "kept.example", First: early, Feed: "live"},
		{Domain: "replaced.example", First: late, Feed: "live"},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := "#feed bl\tblacklist\tfalse\tfalse\n" +
		tsvRow("kept.example", "2010-08-01T00:00:00Z") +
		tsvRow("replaced.example", "2010-08-01T00:00:00Z") +
		tsvRow("new.example", "2010-08-01T00:00:00Z")
	if _, err := p.LoadTSV("dbl.test", strings.NewReader(raw), ""); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, feed string
		first      time.Time
	}{
		{"kept.example", "live", early},
		{"replaced.example", "bl", time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)},
		{"new.example", "bl", time.Date(2010, 8, 1, 0, 0, 0, 0, time.UTC)},
	} {
		listed, first, feed, _ := p.Lookup("dbl.test", c.name)
		if !listed || !first.Equal(c.first) || feed != c.feed {
			t.Errorf("%s: listed=%v first=%v feed=%q, want %v by %q", c.name, listed, first, feed, c.first, c.feed)
		}
	}
	if n, _ := p.Listed("dbl.test"); n != 3 {
		t.Fatalf("Listed = %d, want 3", n)
	}
	if _, err := p.LoadTSV("nosuch.zone", strings.NewReader(raw), ""); err == nil {
		t.Fatal("LoadTSV into an unknown zone did not error")
	}
}

// BenchmarkLoadTSV measures a cold bulk load of a 64K-row feed.
func BenchmarkLoadTSV(b *testing.B) {
	data := feedTSV(b, 1<<16)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.LoadTSV("dbl.test", bytes.NewReader(data), ""); err != nil {
			b.Fatal(err)
		}
	}
}
