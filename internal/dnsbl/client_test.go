package dnsbl_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/simclock"
)

// servePlane serves feed as one zone on a dnsblplane server bound to a
// loopback port (UDP and TCP), closed when the test ends.
func servePlane(tb testing.TB, zone string, feed *feeds.Feed) (string, *dnsblplane.Server) {
	tb.Helper()
	p, err := dnsblplane.New(dnsblplane.Config{Zones: []dnsblplane.ZoneConfig{{Suffix: zone}}})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := p.LoadFeed(zone, feed); err != nil {
		tb.Fatal(err)
	}
	srv := &dnsblplane.Server{Plane: p}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	return addr.String(), srv
}

// testFeed lists cheappills.com and replicas.net in a feed named dbl.
func testFeed() *feeds.Feed {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "cheappills.com")
	f.ObserveOnce(simclock.PaperStart.AddDate(0, 0, 1), "replicas.net")
	return f
}

func TestEndToEndUDP(t *testing.T) {
	addr, _ := servePlane(t, "dbl.example", testFeed())
	c := dnsbl.NewClient(addr, "dbl.example", 1)
	c.Timeout = 3 * time.Second

	listed, err := c.Listed("cheappills.com")
	if err != nil || !listed {
		t.Fatalf("Listed(cheappills.com) = %v, %v", listed, err)
	}
	listed, err = c.Listed("innocent.org")
	if err != nil || listed {
		t.Fatalf("Listed(innocent.org) = %v, %v", listed, err)
	}
	reason, err := c.Reason("replicas.net")
	if err != nil || reason == "" {
		t.Fatalf("Reason = %q, %v", reason, err)
	}
	if !strings.Contains(reason, "dbl") {
		t.Fatalf("reason %q missing feed name", reason)
	}
	reason, err = c.Reason("innocent.org")
	if err != nil || reason != "" {
		t.Fatalf("Reason(unlisted) = %q, %v", reason, err)
	}
}

func TestClientTimeout(t *testing.T) {
	// A server that has stopped: queries now vanish.
	addr, srv := servePlane(t, "dbl.example", testFeed())
	srv.Close()

	c := dnsbl.NewClient(addr, "dbl.example", 2)
	c.Timeout = 100 * time.Millisecond
	c.Retries = 1
	start := time.Now()
	if _, err := c.Listed("x.com"); err == nil {
		t.Fatal("expected timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestTCPTransport(t *testing.T) {
	addr, _ := servePlane(t, "dbl.example", testFeed())
	c := dnsbl.NewClient("unused-udp", "dbl.example", 5)
	c.TCPAddr = addr
	c.Timeout = 3 * time.Second

	listed, err := c.ListedTCP("cheappills.com")
	if err != nil || !listed {
		t.Fatalf("ListedTCP = %v, %v", listed, err)
	}
	listed, err = c.ListedTCP("innocent.org")
	if err != nil || listed {
		t.Fatalf("ListedTCP(unlisted) = %v, %v", listed, err)
	}
}

// TestClientFallsBackToTCP: a feed name long enough to push the TXT
// answer past 512 bytes makes the server answer over UDP with TC set
// and no records; the client repeats the query over TCP and gets the
// whole reason.
func TestClientFallsBackToTCP(t *testing.T) {
	name := strings.Repeat("longfeedname", 40)
	feed := feeds.New(name, feeds.KindBlacklist, false, false)
	feed.ObserveOnce(simclock.PaperStart, "cheappills.com")
	addr, _ := servePlane(t, "dbl.example", feed)

	// Over UDP alone the answer is truncated.
	raw, err := (&dnsbl.Message{
		Header:    dnsbl.Header{ID: 9},
		Questions: []dnsbl.Question{{Name: "cheappills.com.dbl.example", Type: dnsbl.TypeTXT, Class: dnsbl.ClassIN}},
	}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnsbl.Unpack(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Truncated || len(m.Answers) != 0 || len(m.Questions) != 1 || n > 512 {
		t.Fatalf("UDP answer not truncated to header+question: %d bytes, %+v", n, m)
	}

	c := dnsbl.NewClient(addr, "dbl.example", 3)
	c.Timeout = 3 * time.Second
	reason, err := c.Reason("cheappills.com")
	if err != nil {
		t.Fatal(err)
	}
	if want := "listed 2010-08-01T00:00:00Z by " + name; reason != want {
		t.Fatalf("Reason = %q, want %q", reason, want)
	}
	if listed, err := c.Listed(domain.Name("cheappills.com")); err != nil || !listed {
		t.Fatalf("Listed = %v, %v", listed, err)
	}
}

func BenchmarkEndToEndQuery(b *testing.B) {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "cheappills.com")
	addr, _ := servePlane(b, "dbl.example", f)
	c := dnsbl.NewClient(addr, "dbl.example", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Listed(domain.Name("cheappills.com")); err != nil {
			b.Fatal(err)
		}
	}
}
