package main

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/simclock"
)

// blastDuration is how long each end-to-end UDP blast runs. Long
// enough to amortize warmup, short enough to keep a full bench run
// tolerable (two blasts: default plane and its one-worker reference).
const blastDuration = 2 * time.Second

// serveFeedDomains is the listing universe the serve benchmarks query.
const serveFeedDomains = 64

// serveFeed builds the deterministic listing set both servers load.
func serveFeed(name string) *feeds.Feed {
	f := feeds.New(name, feeds.KindBlacklist, false, false)
	for i := 0; i < serveFeedDomains; i++ {
		f.ObserveOnce(simclock.PaperStart.Add(time.Duration(i)*time.Minute),
			serveDomain(i))
	}
	return f
}

func serveDomain(i int) domain.Name {
	return domain.Name(fmt.Sprintf("spam%03d.example", i))
}

// serveQueries packs a mixed workload — listed A, listed TXT, misses —
// through the dnsbl codec, so both handling paths answer identical
// wire bytes.
func serveQueries() [][]byte {
	var qs [][]byte
	for i := 0; i < serveFeedDomains; i++ {
		for _, q := range []dnsbl.Question{
			{Name: fmt.Sprintf("spam%03d.example.dbl.bench", i), Type: dnsbl.TypeA, Class: dnsbl.ClassIN},
			{Name: fmt.Sprintf("spam%03d.example.dbl.bench", i), Type: dnsbl.TypeTXT, Class: dnsbl.ClassIN},
			{Name: fmt.Sprintf("miss%03d.example.dbl.bench", i), Type: dnsbl.TypeA, Class: dnsbl.ClassIN},
		} {
			m := &dnsbl.Message{
				Header:    dnsbl.Header{ID: uint16(i), RecursionDesired: true, QDCount: 1},
				Questions: []dnsbl.Question{q},
			}
			buf, err := m.Pack()
			if err != nil {
				fatalf("pack bench query: %v", err)
			}
			qs = append(qs, buf)
		}
	}
	return qs
}

// measureServe appends the DNSBL serving-plane rows to the report:
//
//   - dnsbl_handle: the plane's in-process fast path (Responder over a
//     warmed negative cache) vs the codec-per-query reference Handle —
//     the committed ≥6x speedup story, hardware-independent.
//   - dnsbl_serve_qps: end-to-end UDP throughput of a 2-zone/4-shard
//     plane server under the blaster at its default pipeline width, vs
//     the same server at Workers=1, Readers=1 as the serial reference
//     (same code at one worker). ns_per_op is 1e9/QPS so the generic
//     ns/op machinery and diff tables apply unchanged.
//   - dnsbl_serve_p99: the plane blast's p99 round-trip in ns, raw.
//
// The two UDP rows carry MinCPU=4: below four cores the readers,
// workers and blaster clients all contend for the same core and the
// numbers say nothing about the plane, so -check downgrades their
// regressions to warnings.
func measureServe(rep *Report) {
	feed := serveFeed("dbl")
	qs := serveQueries()

	// In-process handling: plane fast path vs the reference handler.
	fmt.Fprintln(os.Stderr, "bench dnsbl_handle...")
	plane, err := dnsblplane.New(dnsblplane.Config{
		Zones:  []dnsblplane.ZoneConfig{{Suffix: "dbl.bench"}},
		Shards: 4,
	})
	if err != nil {
		fatalf("bench plane: %v", err)
	}
	if _, err := plane.LoadFeed("dbl.bench", feed); err != nil {
		fatalf("bench plane load: %v", err)
	}
	resp := dnsblplane.NewResponder(plane)
	out := make([]byte, 0, 512)
	for _, q := range qs { // warm the negative cache
		out = resp.Respond(out[:0], q)
	}
	pr := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = resp.Respond(out[:0], qs[i%len(qs)])
		}
	})
	ref := dnsbl.NewHandler("dbl.bench", dnsbl.FeedZone{Feed: feed})
	sr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.Handle(qs[i%len(qs)])
		}
	})
	handle := Bench{
		Name:           "dnsbl_handle",
		NsPerOp:        pr.NsPerOp(),
		AllocsPerOp:    pr.AllocsPerOp(),
		BytesPerOp:     pr.AllocedBytesPerOp(),
		SerialNsPerOp:  sr.NsPerOp(),
		MaxAllocsPerOp: allocBudgets["dnsbl_handle"],
		MinSpeedup:     minSpeedups["dnsbl_handle"],
		MinCPU:         minCPUs["dnsbl_handle"],
	}
	if handle.NsPerOp > 0 {
		s := float64(sr.NsPerOp()) / float64(handle.NsPerOp)
		handle.Speedup = &s
	}
	rep.Benchmarks = append(rep.Benchmarks, handle)

	// End-to-end over UDP: 2-zone/4-shard plane at its defaults vs the
	// same plane at one reader and one worker.
	fmt.Fprintln(os.Stderr, "bench dnsbl_serve_qps (two UDP blasts)...")
	planeRep := blastPlane(feed, &dnsblplane.Server{})
	serialRep := blastPlane(feed, &dnsblplane.Server{Workers: 1, Readers: 1})

	qpsRow := Bench{
		Name:       "dnsbl_serve_qps",
		NsPerOp:    nsPerQuery(planeRep.QPS),
		MinSpeedup: minSpeedups["dnsbl_serve_qps"],
		MinCPU:     minCPUs["dnsbl_serve_qps"],
	}
	if serial := nsPerQuery(serialRep.QPS); serial > 0 {
		qpsRow.SerialNsPerOp = serial
		if qpsRow.NsPerOp > 0 {
			s := float64(serial) / float64(qpsRow.NsPerOp)
			qpsRow.Speedup = &s
		}
	}
	rep.Benchmarks = append(rep.Benchmarks,
		qpsRow,
		Bench{
			Name:    "dnsbl_serve_p99",
			NsPerOp: planeRep.P99.Nanoseconds(),
			MinCPU:  minCPUs["dnsbl_serve_p99"],
		})
}

// nsPerQuery converts a QPS figure into the report's ns/op unit.
func nsPerQuery(qps float64) int64 {
	if qps <= 0 {
		return 0
	}
	return int64(1e9 / qps)
}

// blastWorkload is the query mix both blasts use.
func blastWorkload() (listed []string, unlisted []string) {
	for i := 0; i < serveFeedDomains; i++ {
		listed = append(listed, string(serveDomain(i)))
		unlisted = append(unlisted, fmt.Sprintf("miss%03d.example", i))
	}
	return listed, unlisted
}

// blastPlane boots srv on a 2-zone/4-shard plane and blasts it.
func blastPlane(feed *feeds.Feed, srv *dnsblplane.Server) *dnsblplane.Report {
	plane, err := dnsblplane.New(dnsblplane.Config{
		Zones: []dnsblplane.ZoneConfig{
			{Suffix: "dbl.bench"}, {Suffix: "uribl.bench"},
		},
		Shards: 4,
	})
	if err != nil {
		fatalf("blast plane: %v", err)
	}
	for _, z := range []string{"dbl.bench", "uribl.bench"} {
		if _, err := plane.LoadFeed(z, feed); err != nil {
			fatalf("blast plane load %s: %v", z, err)
		}
	}
	srv.Plane = plane
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fatalf("blast plane listen: %v", err)
	}
	defer srv.Close()
	return blast(addr.String(), []string{"dbl.bench", "uribl.bench"})
}

// blast runs an unverified (pure throughput) blast; correctness is the
// load-smoke job's and the package tests' job, not the benchmark's.
func blast(addr string, zones []string) *dnsblplane.Report {
	listed, unlisted := blastWorkload()
	b := &dnsblplane.Blaster{
		Addr:     addr,
		Zones:    zones,
		Listed:   listed,
		Unlisted: unlisted,
		Clients:  4,
		Seed:     1,
		Timeout:  2 * time.Second,
	}
	rep, err := b.Run(context.Background(), blastDuration)
	if err != nil {
		fatalf("blast %s: %v", addr, err)
	}
	if rep.Received == 0 {
		fatalf("blast %s: no answers received", addr)
	}
	return rep
}
