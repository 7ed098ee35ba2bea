// Command dnsblserve serves blacklist feeds as DNSBL zones over DNS,
// on UDP and TCP at one address, the way dbl- and uribl-style
// blacklists are consumed by mail filters. Each -serve entry is one
// zone, loaded into the sharded internal/dnsblplane index — lock-free
// reads, RCU snapshot reloads, negative-answer caching, batched
// read/write loops:
//
//	dnsblserve -serve dbl.example=feeds-out/dbl.tsv \
//	           -serve uribl.example=feeds-out/uribl.tsv \
//	           -shards 4 -listen 127.0.0.1:5353
//
// A ".tsv" file is an aggregate feed as cmd/feedgen writes it. It
// streams straight into its zone's shards (dnsblplane.Plane.LoadTSV):
// one parse, every row checked as feeds.ReadTSV checks it, and no
// symbol table or sample URLs kept, so start-up costs about one pass
// over the file. Any other file is a raw JSONL observation log,
// aggregated first and then loaded. TXT answers name the feed from
// the TSV header, or the file's base name when there is none (always,
// for JSONL). A malformed file stops the server before it listens.
// With -sync-addr the server also tails feedsync deltas live: -sync
// FEED=ZONE subscribes to FEED on the feedsync server and hot-reloads
// its records into ZONE while queries keep flowing.
//
// Query it with the dnsbl client, or with standard tools:
//
//	dig @127.0.0.1 -p 5353 somespamdomain.com.uribl.example A
//
// An A answer of 127.0.0.2 means listed; NXDOMAIN means clean. A UDP
// answer too long for 512 bytes comes back truncated (TC set) and the
// resolver repeats the query over TCP.
//
// With -metrics ADDR the process also serves its observability
// surface — /metrics (Prometheus text), /debug/vars (expvar),
// /debug/pprof/ and /debug/trace — on a second HTTP listener.
//
// Overload protection: UDP queries queue per worker (-workers,
// -queue) and a full queue sheds with SERVFAIL; the -max-inflight /
// -rate / -fair-* family adds an admission gate whose sheds answer
// REFUSED, so excess load gets a protocol-native refusal instead of a
// growing backlog. See MECHANISMS.md, "Overload and graceful
// degradation" and "Sharded query plane".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/feedsync"
	"tasterschoice/internal/lifecycle"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/overload"
)

// multiFlag collects repeatable -serve / -sync flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// options carries everything setupPlane needs; one struct instead of a
// parameter list that grows with every flag.
type options struct {
	listen      string
	ttl         uint32
	metricsAddr string

	serves      []string // "suffix=feedfile" entries
	shards      int
	negTTL      time.Duration
	negSize     int
	readers     int
	batch       int
	syncAddr    string   // feedsync server for hot reload
	tails       []string // "feed=zone" subscriptions
	zoneTTLs    []string // "suffix=seconds" per-zone positive-TTL overrides
	zoneNegTTLs []string // "suffix=duration" per-zone negative-TTL overrides
	zoneSOAs    []string // "suffix=mname,rname[,serial]" per-zone SOA records

	// Overload protection (all zero: default queues, no gate).
	workers     int     // UDP responder goroutines (0: 4)
	queueDepth  int     // bounded queue size (0: 16×workers)
	maxInflight int     // admission gate concurrency cap (0: unlimited)
	rate        float64 // admissions/sec per priority class (0: unlimited)
	burst       float64 // bucket burst (0: rate)
	fairBuckets int     // per-client fairness buckets (0: disabled)
	fairRate    float64 // per-bucket admissions/sec
	fairBurst   float64 // per-bucket burst
	seed        uint64  // fairness hash seed
}

// gateWanted reports whether any admission-gate flag was set.
func (o options) gateWanted() bool {
	return o.maxInflight > 0 || o.rate > 0 || o.fairBuckets > 0
}

// gate builds the admission gate from the flag family.
func (o options) gate(reg *obs.Registry) *overload.Gate {
	cfg := overload.GateConfig{
		MaxConcurrent: o.maxInflight,
		FairBuckets:   o.fairBuckets,
		FairRate:      o.fairRate,
		FairBurst:     o.fairBurst,
		Seed:          o.seed,
	}
	for p := range cfg.Rate {
		cfg.Rate[p], cfg.Burst[p] = o.rate, o.burst
	}
	cfg.Metrics = overload.NewGateMetrics(reg, "dnsbl")
	return overload.NewGate(cfg)
}

// loadFeedFile loads one feed file into a zone and returns the number
// of records read. An aggregate ".tsv" feed streams straight into the
// plane (Plane.LoadTSV); anything else is read as a raw JSONL
// observation log, aggregated, then loaded. The feed is named after the
// file unless a TSV header names it.
func loadFeedFile(plane *dnsblplane.Plane, zone, path string) (int, error) {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".tsv") {
		return plane.LoadTSV(zone, f, name)
	}
	feed := feeds.New(name, feeds.KindBlacklist, false, false)
	if _, err := feed.ReadRaw(f); err != nil {
		return 0, err
	}
	return plane.LoadFeed(zone, feed)
}

// setupPlane wires the multi-zone sharded plane: parses the -serve
// entries, bulk-loads each feed into its zone, starts the UDP and TCP
// server and, when o.syncAddr is set, one hot-reload tailer per -sync
// entry. The returned stop function halts the tailers (idempotent).
func setupPlane(o options) (srv *dnsblplane.Server, addr net.Addr, ms *obs.MetricsServer, stop func(), err error) {
	type load struct {
		zone string
		path string
	}
	var loads []load
	zoneSet := map[string]bool{}
	var zones []dnsblplane.ZoneConfig
	for _, s := range o.serves {
		suffix, path, ok := strings.Cut(s, "=")
		if !ok || suffix == "" || path == "" {
			return nil, nil, nil, nil, fmt.Errorf("bad -serve %q (want suffix=feedfile)", s)
		}
		if !zoneSet[suffix] {
			zoneSet[suffix] = true
			zones = append(zones, dnsblplane.ZoneConfig{Suffix: suffix})
		}
		loads = append(loads, load{zone: suffix, path: path})
	}
	for _, tl := range o.tails {
		_, zone, ok := strings.Cut(tl, "=")
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("bad -sync %q (want feed=zone)", tl)
		}
		if !zoneSet[zone] {
			zoneSet[zone] = true
			zones = append(zones, dnsblplane.ZoneConfig{Suffix: zone})
		}
	}

	if err := applyZoneOverrides(zones, o); err != nil {
		return nil, nil, nil, nil, err
	}

	plane, err := dnsblplane.New(dnsblplane.Config{
		Zones:        zones,
		Shards:       o.shards,
		TTL:          o.ttl,
		NegTTL:       o.negTTL,
		NegCacheSize: o.negSize,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// The plane's counters are always wired (the exit summary reads
	// them); the HTTP exposition endpoint only with -metrics.
	reg := obs.NewRegistry()
	plane.Metrics = dnsblplane.WireMetrics(reg)
	if o.metricsAddr != "" {
		ms, err = obs.Serve(o.metricsAddr, reg, obs.NewTracer(0, nil))
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for _, l := range loads {
		n, err := loadFeedFile(plane, l.zone, l.path)
		if err != nil {
			if ms != nil {
				ms.Close()
			}
			return nil, nil, nil, nil, err
		}
		fmt.Printf("zone %s: loaded %d domains from %s\n", l.zone, n, l.path)
	}

	srv = &dnsblplane.Server{
		Plane:      plane,
		Readers:    o.readers,
		Workers:    o.workers,
		Batch:      o.batch,
		QueueDepth: o.queueDepth,
	}
	if o.gateWanted() {
		srv.Admission = o.gate(reg)
	}
	addr, err = srv.Listen(o.listen)
	if err != nil {
		if ms != nil {
			ms.Close()
		}
		return nil, nil, nil, nil, err
	}

	// Hot reload: one tailer per -sync entry, stopped via the returned
	// cancel. Tailers reconnect-from-offset on connection loss.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	tails := 0
	if o.syncAddr != "" {
		for _, tl := range o.tails {
			feedName, zone, _ := strings.Cut(tl, "=")
			tails++
			go func(feedName, zone string) {
				defer func() { done <- struct{}{} }()
				rl := &dnsblplane.Reloader{
					Client: feedsync.NewClient(o.syncAddr),
					Plane:  plane,
					Zone:   zone,
					Feed:   feedName,
				}
				var off int64
				for ctx.Err() == nil {
					var err error
					off, err = rl.Run(ctx, off)
					if err != nil && ctx.Err() == nil {
						fmt.Fprintf(os.Stderr, "dnsblserve: sync %s: %v\n", feedName, err)
					}
				}
			}(feedName, zone)
		}
	}
	stop = func() {
		cancel()
		for i := 0; i < tails; i++ {
			<-done
		}
	}
	return srv, addr, ms, stop, nil
}

// applyZoneOverrides distributes the repeatable -zone-ttl /
// -zone-negttl / -zone-soa flag entries onto their ZoneConfigs. Every
// entry must name a zone that some -serve or -sync entry created.
func applyZoneOverrides(zones []dnsblplane.ZoneConfig, o options) error {
	find := func(suffix string) *dnsblplane.ZoneConfig {
		for i := range zones {
			if zones[i].Suffix == suffix {
				return &zones[i]
			}
		}
		return nil
	}
	for _, e := range o.zoneTTLs {
		suffix, val, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -zone-ttl %q (want suffix=seconds)", e)
		}
		zc := find(suffix)
		if zc == nil {
			return fmt.Errorf("-zone-ttl %q: zone not served", suffix)
		}
		secs, err := strconv.ParseUint(val, 10, 32)
		if err != nil || secs == 0 {
			return fmt.Errorf("bad -zone-ttl %q: want positive seconds", e)
		}
		zc.TTL = uint32(secs)
	}
	for _, e := range o.zoneNegTTLs {
		suffix, val, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -zone-negttl %q (want suffix=duration)", e)
		}
		zc := find(suffix)
		if zc == nil {
			return fmt.Errorf("-zone-negttl %q: zone not served", suffix)
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return fmt.Errorf("bad -zone-negttl %q: want a positive duration", e)
		}
		zc.NegTTL = d
	}
	for _, e := range o.zoneSOAs {
		suffix, val, ok := strings.Cut(e, "=")
		if !ok {
			return fmt.Errorf("bad -zone-soa %q (want suffix=mname,rname[,serial])", e)
		}
		zc := find(suffix)
		if zc == nil {
			return fmt.Errorf("-zone-soa %q: zone not served", suffix)
		}
		parts := strings.Split(val, ",")
		if len(parts) < 2 || parts[0] == "" || parts[1] == "" {
			return fmt.Errorf("bad -zone-soa %q (want suffix=mname,rname[,serial])", e)
		}
		soa := &dnsblplane.SOAConfig{MName: parts[0], RName: parts[1]}
		if len(parts) >= 3 {
			serial, err := strconv.ParseUint(parts[2], 10, 32)
			if err != nil {
				return fmt.Errorf("bad -zone-soa serial %q", parts[2])
			}
			soa.Serial = uint32(serial)
		}
		zc.SOA = soa
	}
	return nil
}

func main() {
	var serves, tails, zoneTTLs, zoneNegTTLs, zoneSOAs multiFlag
	flag.Var(&serves, "serve", "SUFFIX=FEEDFILE zone to serve (repeatable, at least one)")
	flag.Var(&tails, "sync", "FEED=ZONE feedsync subscription to hot-reload (repeatable)")
	flag.Var(&zoneTTLs, "zone-ttl", "SUFFIX=SECONDS positive-answer TTL override for one zone (repeatable)")
	flag.Var(&zoneNegTTLs, "zone-negttl", "SUFFIX=DURATION negative-answer TTL override for one zone (repeatable)")
	flag.Var(&zoneSOAs, "zone-soa", "SUFFIX=MNAME,RNAME[,SERIAL] apex SOA for one zone; switches on RFC 2308 authority sections (repeatable)")
	syncAddr := flag.String("sync-addr", "", "feedsync server address for -sync subscriptions")
	shards := flag.Int("shards", 4, "shards per zone (rounded up to a power of two)")
	negTTL := flag.Duration("neg-ttl", 30*time.Second, "negative-answer cache TTL")
	negSize := flag.Int("neg-size", 512, "negative-cache entries per shard (<0 disables)")
	readers := flag.Int("readers", 1, "UDP socket reader goroutines")
	batch := flag.Int("batch", 32, "max datagrams per worker wakeup")
	listen := flag.String("listen", "127.0.0.1:5353", "address to serve DNS on, over UDP and TCP")
	ttl := flag.Uint("ttl", 300, "TTL for positive answers, seconds")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this HTTP address (empty: disabled)")
	workers := flag.Int("workers", 0, "UDP responder goroutines, one intake queue each (0: 4)")
	queueDepth := flag.Int("queue", 0, "bounded request queue depth, split across workers (0: 16 per worker)")
	maxInflight := flag.Int("max-inflight", 0, "admission cap on concurrently served queries (0: unlimited)")
	rate := flag.Float64("rate", 0, "admissions per second per priority class (0: unlimited)")
	burst := flag.Float64("burst", 0, "admission bucket burst (0: same as -rate)")
	fairBuckets := flag.Int("fair-buckets", 0, "per-client fairness buckets (0: disabled)")
	fairRate := flag.Float64("fair-rate", 0, "admissions per second per fairness bucket")
	fairBurst := flag.Float64("fair-burst", 0, "fairness bucket burst (0: same as -fair-rate)")
	seed := flag.Uint64("overload-seed", 1, "seed for the fairness hash")
	flag.Parse()

	o := options{
		listen:      *listen,
		ttl:         uint32(*ttl),
		metricsAddr: *metricsAddr,
		serves:      serves,
		tails:       tails,
		zoneTTLs:    zoneTTLs,
		zoneNegTTLs: zoneNegTTLs,
		zoneSOAs:    zoneSOAs,
		syncAddr:    *syncAddr,
		shards:      *shards,
		negTTL:      *negTTL,
		negSize:     *negSize,
		readers:     *readers,
		batch:       *batch,
		workers:     *workers,
		queueDepth:  *queueDepth,
		maxInflight: *maxInflight,
		rate:        *rate,
		burst:       *burst,
		fairBuckets: *fairBuckets,
		fairRate:    *fairRate,
		fairBurst:   *fairBurst,
		seed:        *seed,
	}
	if len(o.serves) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	// SIGTERM/SIGINT drain the server instead of cutting it off: the
	// queries being answered complete, then the sockets close. The drain
	// deadline force-closes stragglers.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	srv, addr, ms, stopTails, err := setupPlane(o)
	if err != nil {
		fail(err)
	}
	fmt.Printf("serving %d zone(s) on %s\n", len(srv.Plane.Zones()), addr)
	for _, z := range srv.Plane.Zones() {
		fmt.Printf("try: dig @%s somedomain.%s A\n", addr, z)
	}
	if ms != nil {
		defer ms.Close()
		fmt.Printf("metrics on http://%s/metrics\n", ms.Addr())
	}
	err = lifecycle.Run(ctx, srv, 10*time.Second)
	stopTails()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsblserve: shutdown: %v\n", err)
	}
	m := srv.Plane.Metrics
	fmt.Printf("\n%d queries served, %d listed, %d negative-cache hits, %d shed\n",
		m.Queries.Value(), m.Hits.Value(), m.NegHits.Value(), m.Shed.Value())
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dnsblserve: %v\n", err)
	os.Exit(1)
}
