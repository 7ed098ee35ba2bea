package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/simclock"
)

// writeTestFeed writes a two-domain blacklist TSV and returns its path.
func writeTestFeed(t *testing.T) string {
	t.Helper()
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "cheappills.com")
	f.ObserveOnce(simclock.PaperStart, "replicas.net")
	path := filepath.Join(t.TempDir(), "dbl.tsv")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteTSV(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// scrapeCounters GETs a /metrics endpoint and returns every non-histogram
// sample line parsed into name{labels} -> value.
func scrapeCounters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint is the acceptance test for the -metrics flag:
// setupPlane with a ":0" metrics address must serve /metrics,
// /debug/vars and /debug/pprof/, and the scraped counters must reflect
// queries the DNS server actually answered.
func TestMetricsEndpoint(t *testing.T) {
	srv, addr, ms, stop, err := setupPlane(options{
		serves: []string{"dbl.example=" + writeTestFeed(t)},
		listen: "127.0.0.1:0", ttl: 300, metricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	defer srv.Close()
	defer ms.Close()

	c := dnsbl.NewClient(addr.String(), "dbl.example", 1)
	c.Timeout = 3 * time.Second
	if listed, err := c.Listed("cheappills.com"); err != nil || !listed {
		t.Fatalf("Listed = %v, %v", listed, err)
	}
	if listed, err := c.Listed("innocent.org"); err != nil || listed {
		t.Fatalf("Listed(unlisted) = %v, %v", listed, err)
	}

	base := "http://" + ms.Addr().String()
	got := scrapeCounters(t, base+"/metrics")
	queriesKey := "dnsblplane_queries_total"
	hitsKey := "dnsblplane_hits_total"
	if got[queriesKey] != 2 {
		t.Errorf("%s = %v, want 2 (scrape: %v)", queriesKey, got[queriesKey], got)
	}
	if got[hitsKey] != 1 {
		t.Errorf("%s = %v, want 1", hitsKey, got[hitsKey])
	}

	// /debug/vars must be valid JSON carrying the "metrics" mirror.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars JSON: %v", err)
	}
	mirror, ok := vars["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing metrics mirror: %v", vars["metrics"])
	}
	expvarKey := "dnsblplane_queries_total"
	if v, _ := mirror[expvarKey].(float64); v != 2 {
		t.Errorf("expvar %s = %v, want 2", expvarKey, mirror[expvarKey])
	}

	// pprof index must answer.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}
}

// TestSetupOverloadWiring pins the -workers/-max-inflight flag family:
// a protected server still answers queries correctly, and the gate's
// instruments show up on /metrics with the admissions it counted.
func TestSetupOverloadWiring(t *testing.T) {
	srv, addr, ms, stop, err := setupPlane(options{
		serves: []string{"dbl.example=" + writeTestFeed(t)},
		listen: "127.0.0.1:0", ttl: 300, metricsAddr: "127.0.0.1:0",
		workers: 2, queueDepth: 32, maxInflight: 16,
		rate: 10000, fairBuckets: 4, fairRate: 10000, seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	defer srv.Close()
	defer ms.Close()
	if srv.Workers != 2 || srv.QueueDepth != 32 || srv.Admission == nil {
		t.Fatalf("overload flags not wired: workers=%d queue=%d gate=%v", srv.Workers, srv.QueueDepth, srv.Admission)
	}

	c := dnsbl.NewClient(addr.String(), "dbl.example", 1)
	c.Timeout = 3 * time.Second
	if listed, err := c.Listed("cheappills.com"); err != nil || !listed {
		t.Fatalf("Listed = %v, %v", listed, err)
	}
	if listed, err := c.Listed("innocent.org"); err != nil || listed {
		t.Fatalf("Listed(unlisted) = %v, %v", listed, err)
	}

	got := scrapeCounters(t, "http://"+ms.Addr().String()+"/metrics")
	admitted := 0.0
	for k, v := range got {
		if strings.HasPrefix(k, "dnsbl_admitted_total") {
			admitted += v
		}
	}
	if admitted != 2 {
		t.Errorf("gate admitted = %v, want 2 (scrape: %v)", admitted, got)
	}
}

// TestSetupWithoutMetrics pins the flag's default-off behavior.
func TestSetupWithoutMetrics(t *testing.T) {
	srv, addr, ms, stop, err := setupPlane(options{
		serves: []string{"dbl.example=" + writeTestFeed(t)},
		listen: "127.0.0.1:0", ttl: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	defer srv.Close()
	if ms != nil {
		t.Fatal("metrics server started without -metrics")
	}
	c := dnsbl.NewClient(addr.String(), "dbl.example", 1)
	c.Timeout = 3 * time.Second
	if listed, err := c.Listed("replicas.net"); err != nil || !listed {
		t.Fatalf("Listed = %v, %v", listed, err)
	}
}

// writeRawFeed writes a raw JSONL observation log and returns its path;
// the base name ("rawbl") becomes the feed name in TXT attributions.
func writeRawFeed(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rawbl.jsonl")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := feeds.NewRawWriter(out)
	for i, d := range []string{"rawspam.com", "rawscam.net"} {
		err := w.Write(feeds.RawRecord{
			Time:   simclock.PaperStart.Add(time.Duration(i) * time.Hour),
			Domain: d,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSetupPlaneServesTwoZones is the -serve flag's acceptance test:
// two zones — one aggregate TSV, one raw JSONL — load into the sharded
// plane and answer over UDP, each under its own suffix.
func TestSetupPlaneServesTwoZones(t *testing.T) {
	srv, addr, ms, stop, err := setupPlane(options{
		serves: []string{
			"dbl.example=" + writeTestFeed(t),
			"rawbl.example=" + writeRawFeed(t),
		},
		listen: "127.0.0.1:0", ttl: 300, shards: 4,
		negTTL: 30 * time.Second, negSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop() // no -sync entries: must be a safe no-op
	if ms != nil {
		t.Fatal("metrics server started without -metrics")
	}

	for _, tc := range []struct {
		zone, domain string
		listed       bool
	}{
		{"dbl.example", "cheappills.com", true},
		{"dbl.example", "rawspam.com", false}, // listed only in the other zone
		{"rawbl.example", "rawspam.com", true},
		{"rawbl.example", "rawscam.net", true},
		{"rawbl.example", "cheappills.com", false},
	} {
		c := dnsbl.NewClient(addr.String(), tc.zone, 1)
		c.Timeout = 3 * time.Second
		listed, err := c.Listed(domain.Name(tc.domain))
		if err != nil {
			t.Fatalf("%s in %s: %v", tc.domain, tc.zone, err)
		}
		if listed != tc.listed {
			t.Errorf("%s in %s: listed=%v, want %v", tc.domain, tc.zone, listed, tc.listed)
		}
	}
	if n, err := srv.Plane.Listed("dbl.example"); err != nil || n != 2 {
		t.Fatalf("dbl.example listed = %d, %v", n, err)
	}
	if n, err := srv.Plane.Listed("rawbl.example"); err != nil || n != 2 {
		t.Fatalf("rawbl.example listed = %d, %v", n, err)
	}
}

// TestSetupPlaneBadFlags pins -serve / -sync parse errors.
func TestSetupPlaneBadFlags(t *testing.T) {
	for _, o := range []options{
		{serves: []string{"noequals"}, listen: "127.0.0.1:0"},
		{serves: []string{"=path"}, listen: "127.0.0.1:0"},
		{serves: []string{"zone="}, listen: "127.0.0.1:0"},
		{serves: []string{"z=/nonexistent/feed.tsv"}, listen: "127.0.0.1:0"},
		{serves: []string{"z=" + os.DevNull}, listen: "127.0.0.1:0",
			tails: []string{"badsync"}},
	} {
		if _, _, _, _, err := setupPlane(o); err == nil {
			t.Errorf("setupPlane(%v): no error", o.serves)
		}
	}
}

// TestApplyZoneOverrides: the repeatable -zone-ttl / -zone-negttl /
// -zone-soa entries land on the right ZoneConfig, and malformed or
// unserved entries are rejected.
func TestApplyZoneOverrides(t *testing.T) {
	zones := []dnsblplane.ZoneConfig{{Suffix: "dbl.test"}, {Suffix: "uribl.test"}}
	o := options{
		zoneTTLs:    []string{"dbl.test=120"},
		zoneNegTTLs: []string{"uribl.test=90s"},
		zoneSOAs:    []string{"dbl.test=ns1.dbl.test,hostmaster.dbl.test,42"},
	}
	if err := applyZoneOverrides(zones, o); err != nil {
		t.Fatal(err)
	}
	if zones[0].TTL != 120 {
		t.Errorf("dbl.test TTL = %d, want 120", zones[0].TTL)
	}
	if zones[1].NegTTL != 90*time.Second {
		t.Errorf("uribl.test NegTTL = %v, want 90s", zones[1].NegTTL)
	}
	if zones[0].SOA == nil || zones[0].SOA.MName != "ns1.dbl.test" || zones[0].SOA.Serial != 42 {
		t.Errorf("dbl.test SOA = %+v, want ns1.dbl.test serial 42", zones[0].SOA)
	}
	if zones[1].SOA != nil || zones[1].TTL != 0 {
		t.Errorf("uribl.test picked up another zone's overrides: %+v", zones[1])
	}

	for _, bad := range []options{
		{zoneTTLs: []string{"nosuch.test=120"}},
		{zoneTTLs: []string{"dbl.test=notanumber"}},
		{zoneNegTTLs: []string{"dbl.test=-5s"}},
		{zoneSOAs: []string{"dbl.test=onlymname"}},
		{zoneSOAs: []string{"dbl.test=ns1,host,badserial"}},
	} {
		if err := applyZoneOverrides(zones, bad); err == nil {
			t.Errorf("applyZoneOverrides(%+v) accepted a bad entry", bad)
		}
	}
}

// TestSetupPlaneRejectsBadTSV: a malformed aggregate TSV fails the
// whole setup (a duplicate row, an inverted first/last pair, a row
// short of a field), and a header without a feed name still attributes
// TXT answers to the file's base name.
func TestSetupPlaneRejectsBadTSV(t *testing.T) {
	const (
		header = "#feed dbl\tblacklist\tfalse\tfalse\n"
		row    = "cheappills.com\t1\t2010-08-01T00:00:00Z\t2010-08-01T00:00:00Z\t\n"
	)
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, body := range map[string]string{
		"duplicate row":  header + row + row,
		"inverted times": header + "cheappills.com\t1\t2010-08-02T00:00:00Z\t2010-08-01T00:00:00Z\t\n",
		"four fields":    header + "cheappills.com\t1\t2010-08-01T00:00:00Z\t2010-08-01T00:00:00Z\n",
	} {
		srv, _, _, stop, err := setupPlane(options{
			serves: []string{"dbl.example=" + write("dbl.tsv", body)},
			listen: "127.0.0.1:0", ttl: 300,
		})
		if err == nil {
			stop()
			srv.Close()
			t.Errorf("%s: setupPlane accepted the feed", name)
		}
	}

	path := write("nameless.tsv", "#feed \tblacklist\tfalse\tfalse\n"+row)
	srv, addr, _, stop, err := setupPlane(options{
		serves: []string{"dbl.example=" + path},
		listen: "127.0.0.1:0", ttl: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	defer srv.Close()
	c := dnsbl.NewClient(addr.String(), "dbl.example", 1)
	c.Timeout = 3 * time.Second
	reason, err := c.Reason("cheappills.com")
	if err != nil {
		t.Fatal(err)
	}
	if want := "listed 2010-08-01T00:00:00Z by nameless"; reason != want {
		t.Fatalf("TXT reason = %q, want %q", reason, want)
	}
}
