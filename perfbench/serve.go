package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tasterschoice/internal/dnsblplane"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/feedsync"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/simclock"
)

// reloadCutoff splits each feed for the reload phase: records first
// seen before day 60 of the window are bulk-loaded, the rest are
// published live in first-seen order.
var reloadCutoff = simclock.PaperStart.AddDate(0, 0, 60).Unix()

const (
	zoneSuffix   = ".bl.bench"
	junkPool     = 4096   // distinct never-listed names
	poolSize     = 200000 // length of the cyclic query stream
	missFrac     = 0.40
	txtFrac      = 0.10
	window       = 1000 // latency samples per percentile window
	publishRate  = 200  // records/s in the reload phase
	probeEvery   = 2    // every 2nd published record is lag-probed
	latencyLimit = 1000 // µs: the median latency max_qps_p50_1ms is held to
	// serverQueue deepens dnsblserve's per-worker intake queues (default
	// 16 per worker, bulk queries shed at 3/4 of it): on a 2-core box a
	// 20ms scheduling stall at 5K qps overflows the default and sheds,
	// which would turn machine noise into failed ops. With it a stall
	// shows up where it belongs, as latency.
	serverQueue = 4096
	// launches is how many cold starts of the read server setup_s is
	// the median of. Each also carries a share of the read-only phase:
	// pooling the windows of several processes, spread over the run,
	// averages out how one process's threads happened to land on the
	// cores and what else the machine was doing at the time.
	launches = 5
)

// zone is one served feed as the oracle knows it.
type zone struct {
	feed, suffix string
	kind         feeds.Kind
	names        []string
	first        []int64 // unix seconds
	cum          []int64 // cumulative observation counts: the query weights
	pub          []atomic.Int64
	path         string
}

func (z *zone) listing(i int32) listing { return listing{first: z.first[i], feed: z.feed} }

// query is one entry of the seeded query stream: a listed name of
// zone (name >= 0) or junk name -name-1, as A or TXT.
type query struct {
	zone uint8
	txt  bool
	name int32
}

// servingInput is the generated input of the serving phases.
type servingInput struct {
	zones []*zone
	junk  []string
	pool  []query
}

// loadServingInput reads the op's feed files and draws the seeded
// query stream: zones round-robin, listed names weighted by each
// feed's observation counts (loud campaigns dominate), 40% junk
// misses, 10% TXT.
func loadServingInput(dir string, seed uint64) (*servingInput, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no feed files in %s", dir)
	}
	sort.Strings(paths)
	in := &servingInput{}
	all := map[string]bool{}
	for _, p := range paths {
		f, err := readFeed(p)
		if err != nil {
			return nil, err
		}
		z := &zone{feed: f.Name, suffix: strings.ToLower(f.Name) + zoneSuffix, kind: f.Kind, path: p}
		var total int64
		f.Each(func(d domain.Name, s feeds.DomainStat) {
			z.names = append(z.names, string(d))
			z.first = append(z.first, s.First.Unix())
			total += max(s.Count, 1)
			z.cum = append(z.cum, total)
			all[string(d)] = true
		})
		z.pub = make([]atomic.Int64, len(z.names))
		in.zones = append(in.zones, z)
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for len(in.junk) < junkPool {
		b := make([]byte, 12)
		for i := range b {
			b[i] = byte('a' + rng.IntN(26))
		}
		name := "zz" + string(b) + ".com"
		if !all[name] {
			all[name] = true
			in.junk = append(in.junk, name)
		}
	}
	in.pool = make([]query, poolSize)
	for i := range in.pool {
		zi := i % len(in.zones)
		z := in.zones[zi]
		q := query{zone: uint8(zi), txt: rng.Float64() < txtFrac}
		if rng.Float64() < missFrac || len(z.names) == 0 {
			q.name = -int32(rng.IntN(len(in.junk))) - 1
		} else {
			w := rng.Int64N(z.cum[len(z.cum)-1])
			q.name = int32(sort.Search(len(z.cum), func(j int) bool { return z.cum[j] > w }))
		}
		in.pool[i] = q
	}
	return in, nil
}

func readFeed(path string) (*feeds.Feed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return feeds.ReadTSV(f)
}

// pack builds query q's packet.
func (in *servingInput) pack(q query, id uint16, dst []byte) ([]byte, uint16) {
	qtype := uint16(typeA)
	if q.txt {
		qtype = typeTXT
	}
	z := in.zones[q.zone]
	name := ""
	if q.name >= 0 {
		name = z.names[q.name]
	} else {
		name = in.junk[-q.name-1]
	}
	return appendQuery(dst, id, name, z.suffix, qtype), qtype
}

// server is one running dnsblserve process.
type server struct {
	cmd     *exec.Cmd
	addr    *net.UDPAddr
	metrics string // http://host:port/metrics
	done    chan struct{}
	once    sync.Once
}

// launch starts dnsblserve and returns once it has answered a query
// for probeName in probeZone correctly; setup is the time from the
// process start to that first correct answer, bulk zone load included.
func launch(bin string, args []string, probe query, in *servingInput) (srv *server, setup float64, err error) {
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
		"-queue", strconv.Itoa(serverQueue)}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	srv = &server{cmd: cmd, done: make(chan struct{})}
	lines := make(chan string, 64)
	go func() {
		defer close(srv.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		io.Copy(io.Discard, stdout) //nolint:errcheck
		cmd.Wait()                  //nolint:errcheck // exit status is read by stop
	}()
	deadline := time.After(120 * time.Second)
	for srv.addr == nil || srv.metrics == "" {
		select {
		case line := <-lines:
			if rest, ok := strings.CutPrefix(line, "metrics on "); ok {
				srv.metrics = rest
			} else if i := strings.LastIndex(line, " zone(s) on "); i >= 0 && strings.HasPrefix(line, "serving ") {
				srv.addr, err = net.ResolveUDPAddr("udp", line[i+len(" zone(s) on "):])
				if err != nil {
					srv.stop()
					return nil, 0, err
				}
			}
		case <-srv.done:
			return nil, 0, fmt.Errorf("dnsblserve exited during start-up")
		case <-deadline:
			srv.stop()
			return nil, 0, fmt.Errorf("dnsblserve did not start")
		}
	}
	conn, err := net.DialUDP("udp", nil, srv.addr)
	if err != nil {
		srv.stop()
		return nil, 0, err
	}
	defer conn.Close()
	z := in.zones[probe.zone]
	buf := make([]byte, 1500)
	for id := uint16(1); ; id++ {
		if time.Since(start) > 120*time.Second {
			srv.stop()
			return nil, 0, fmt.Errorf("dnsblserve never answered correctly")
		}
		req, qtype := in.pack(probe, id, nil)
		conn.Write(req)                                             //nolint:errcheck
		conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		n, err := conn.Read(buf)
		if err != nil {
			continue
		}
		if _, err := checkAnswer(req, buf[:n], qtype, mustList, z.listing(probe.name)); err == nil {
			return srv, time.Since(start).Seconds(), nil
		}
	}
}

// stop drains dnsblserve with SIGTERM (killing it if the drain hangs)
// and waits for it to exit.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		select {
		case <-s.done:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill() //nolint:errcheck
			<-s.done
		}
	})
}

// scrape reads the server's Prometheus counters and gauges, summing
// labeled series under their bare metric name.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.metrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.Fields(val)[0], 64)
		if err != nil {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			out[name[:i]+"_max"] = math.Max(out[name[:i]+"_max"], v)
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// session holds one run's serving measurements.
type session struct {
	bin     string
	in      *servingInput
	seconds float64
	tr      *tracer
	dir     string

	metrics   map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	errs      []string
	late      []float64 // generator lateness samples, µs
}

func (s *session) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// readArgs serves every zone from its feed file, default plane settings.
func (s *session) readArgs() []string {
	var args []string
	for _, z := range s.in.zones {
		args = append(args, "-serve", z.suffix+"="+z.path)
	}
	return args
}

// readGen builds a generator whose every answer is checked against the
// static zones: listed names must be listed (with the right TXT
// reason), junk must not be.
func (s *session) readGen(addr *net.UDPAddr, offset int) *gen {
	in := s.in
	return &gen{
		addr: addr, senders: senders(), timeout: time.Second,
		build: func(slot int, id uint16, dst []byte) ([]byte, uint16) {
			return in.pack(in.pool[(offset+slot)%len(in.pool)], id, dst)
		},
		check: func(slot int, req, resp []byte, qtype uint16, _ int64) error {
			q := in.pool[(offset+slot)%len(in.pool)]
			if q.name < 0 {
				_, err := checkAnswer(req, resp, qtype, mustNot, listing{})
				return err
			}
			_, err := checkAnswer(req, resp, qtype, mustList, in.zones[q.zone].listing(q.name))
			return err
		},
	}
}

// logPhase prints one phase's latency profile on stderr.
func logPhase(name string, ph *phase, lateUS []float64) {
	sum := summarizeLatency(ph.lat, window)
	var p99s []float64
	for start := 0; start+window <= len(ph.lat); start += window {
		p99s = append(p99s, summarizeLatency(ph.lat[start:start+window], window).P99us)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %-8s %6.0f/s n=%-6d p50=%.0fus p99=%.0fus window-p99 q1=%.0f q3=%.0f max=%.0f late p50=%.0fus p99=%.0fus timeouts=%d\n",
		name, ph.rate, len(ph.lat), sum.P50us, sum.P99us, percentileOf(p99s, 0.25), percentileOf(p99s, 0.75),
		percentileOf(p99s, 1), percentileOf(lateUS, 0.5), percentileOf(lateUS, 0.99), ph.timeouts)
}

// senders is the number of sending goroutines (and sockets): nproc.
func senders() int { return max(1, min(runtime.NumCPU(), 2)) }

// fixedRate offers rate queries/s for d and accounts every query:
// an unanswered, shed or incorrect one is a failed op.
func (s *session) fixedRate(g *gen, name string, rate float64, d float64) (*phase, bool) {
	id := s.tr.begin("loadgen." + name)
	ph, err := g.run(rate, int(rate*d))
	s.tr.end(id)
	if err != nil {
		s.fail("%s: %v", name, err)
		return nil, false
	}
	s.attempted += len(ph.lat)
	bad := ph.incorrect + ph.timeouts + ph.shed
	s.failed += bad
	if bad > 0 {
		s.errs = append(s.errs, fmt.Sprintf("%s: %d incorrect, %d timeouts, %d shed %v",
			name, ph.incorrect, ph.timeouts, ph.shed, ph.errs))
	}
	lateUS := make([]float64, len(ph.late))
	for i, l := range ph.late {
		lateUS[i] = float64(l) / 1e3
	}
	s.late = append(s.late, lateUS...)
	logPhase(name, ph, lateUS)
	return ph, true
}

// run executes the serving session: the read-only phases against the
// full zones, extra cold starts for setup_s, then the reload phase.
func (s *session) run() {
	s.metrics, s.layer = map[string]float64{}, map[string]float64{}
	// One start-up probe serves both servers: a name of the largest
	// zone that the reload phase preloads too.
	probe, ok := preloadedName(s.in)
	if !ok {
		s.fail("no record first seen before the reload cutoff")
		return
	}
	var setups, rss []float64
	var r5k windowStats
	var cpuNS int64
	var cpuQueries int
	for i := 0; i < launches; i++ {
		id := s.tr.begin("dnsblserve.setup")
		srv, setup, err := launch(s.bin, s.readArgs(), probe, s.in)
		s.tr.end(id)
		s.attempted++
		if err != nil {
			s.fail("launch: %v", err)
			continue
		}
		setups = append(setups, setup)
		ns, n := s.measureRead(srv, i, &r5k)
		cpuNS += ns
		cpuQueries += n
		rss = append(rss, float64(peakRSSKB(strconv.Itoa(srv.cmd.Process.Pid)))/1024)
		if i == 0 && s.tr != nil {
			s.layer["gen.max_qps_p50_1ms"] = s.ladder(srv.addr)
			s.scrapeRead(srv)
		}
		srv.stop()
	}
	s.metrics["setup_s"] = median(setups)
	s.metrics["serve_peak_rss_mb"] = median(rss)
	s.metrics["p50_us.r5k"], s.layer["gen.p99_us.r5k"] = median(r5k.p50), median(r5k.p99)
	if cpuQueries > 0 {
		s.metrics["cpu_us_per_query"] = float64(cpuNS) / 1e3 / float64(cpuQueries)
	}
	if s.tr != nil {
		s.inProcessRead()
	}
	s.reload(probe)
}

// windowStats pools per-window percentiles across launches.
type windowStats struct{ p50, p99 []float64 }

func (w *windowStats) add(lat []int64, size int) {
	for start := 0; start+size <= len(lat); start += size {
		sum := summarizeLatency(lat[start:start+size], size)
		w.p50 = append(w.p50, sum.P50us)
		w.p99 = append(w.p99, sum.P99us)
	}
}

// measureRead runs one launch's share of the read-only fixed-rate
// phase and returns the server CPU (ns) spent on its r5k queries and
// their count.
func (s *session) measureRead(srv *server, launchIdx int, r5k *windowStats) (int64, int) {
	share := 1.0 / launches
	base := launchIdx * 100000
	s.fixedRate(s.readGen(srv.addr, base), "warmup", 5000, 0.3)
	var stopPoll func() float64
	if s.tr != nil {
		stopPoll = pollQueueDepth(srv)
	}
	pid := srv.cmd.Process.Pid
	var cpuNS int64
	var n int
	cpu0, err0 := schedstatCPU(pid)
	if ph, ok := s.fixedRate(s.readGen(srv.addr, base+2000), "r5k", 5000, 0.40*s.seconds*share); ok {
		cpu1, err1 := schedstatCPU(pid)
		if err0 == nil && err1 == nil {
			cpuNS, n = cpu1-cpu0, len(ph.lat)
		}
		r5k.add(ph.lat, window)
	}
	if stopPoll != nil {
		s.layer["dnsblplane.queue_depth_max"] = max(s.layer["dnsblplane.queue_depth_max"], stopPoll())
	}
	return cpuNS, n
}

// scrapeRead derives the read server's per-layer metrics from its
// counters after the read-only phases and the ladder.
func (s *session) scrapeRead(srv *server) {
	m, err := srv.scrape()
	if err != nil {
		s.fail("scrape: %v", err)
		return
	}
	q := m["dnsblplane_queries_total"]
	hits := m["dnsblplane_hits_total"]
	if q > 0 {
		s.layer["dnsblplane.hit_ratio"] = hits / q
	}
	if miss := q - hits - m["dnsblplane_dropped_total"]; miss > 0 {
		s.layer["dnsblplane.neg_cache_hit_ratio"] = m["dnsblplane_neg_cache_hits_total"] / miss
	}
	if c := m["dnsblplane_read_batch_datagrams_count"]; c > 0 {
		s.layer["dnsblplane.read_batch_mean"] = m["dnsblplane_read_batch_datagrams_sum"] / c
	}
	s.layer["dnsblplane.shed"] = m["dnsblplane_shed_total"]
	s.layer["dnsblplane.dropped"] = m["dnsblplane_dropped_total"]
	// One batch per bulk-loaded zone; anything beyond is reload.
	s.layer["dnsblplane.read_apply_batches"] = m["dnsblplane_reload_batches_total"] - float64(len(s.in.zones))
	if s.layer["dnsblplane.read_apply_batches"] != 0 {
		s.fail("read phase applied %v reload batches", s.layer["dnsblplane.read_apply_batches"])
	}
}

// ladder finds the highest offered rate the server sustains with
// every query answered, no growing backlog and a windowed median
// latency within the limit: 1s steps ×1.5 up from 5K until a step
// fails, then three geometric bisections, which resolve the knee to
// within 5%; the crossing is interpolated on the bracketing steps'
// medians. A step fails only if it fails twice running, so one
// transient stall of the shared machine does not end the climb.
// Answers are still checked; only incorrect ones count as failed ops
// (an overloaded step's timeouts are the signal being measured).
func (s *session) ladder(addr *net.UDPAddr) float64 {
	id := s.tr.begin("loadgen.ladder")
	defer s.tr.end(id)
	const stepS = 1.0
	offset := 400000
	best := map[float64]float64{} // rate -> lowest windowed p50 seen
	try := func(rate float64) bool {
		g := s.readGen(addr, offset)
		n := int(rate * stepS)
		offset += n
		ph, err := g.run(rate, n)
		if err != nil {
			s.fail("ladder: %v", err)
			return false
		}
		s.attempted += n
		s.failed += ph.incorrect
		if ph.incorrect > 0 {
			s.errs = append(s.errs, fmt.Sprintf("ladder %.0f/s: %d incorrect %v", rate, ph.incorrect, ph.errs))
		}
		p50 := math.Inf(1)
		ok := ph.timeouts+ph.shed == 0
		if ok {
			p50 = summarizeLatency(ph.lat, window).P50us
			// A growing backlog raises the median latency from the
			// step's first fifth to its last.
			fifth := n / 5
			first := summarizeLatency(ph.lat[:fifth], fifth).P50us
			last := summarizeLatency(ph.lat[n-fifth:], fifth).P50us
			ok = p50 <= latencyLimit && last <= first+latencyLimit/2
		}
		if b, seen := best[rate]; !seen || p50 < b {
			best[rate] = p50
		}
		fmt.Fprintf(os.Stderr, "perfbench: ladder %8.0f/s pass=%t timeouts=%d p50=%.0fus\n", rate, ok, ph.timeouts, p50)
		return ok
	}
	pass := func(rate float64) bool { return try(rate) || try(rate) }
	lo, hi := 0.0, 0.0
	for rate := 5000.0; rate < 1e6; rate *= 1.5 {
		if !pass(rate) {
			hi = rate
			break
		}
		lo = rate
	}
	for i := 0; i < 3 && lo > 0 && hi > 0; i++ {
		if mid := math.Sqrt(lo * hi); pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	if pl, ph := best[lo], best[hi]; lo > 0 && !math.IsInf(ph, 1) && ph > pl {
		return lo + (hi-lo)*math.Min(1, (latencyLimit-pl)/(ph-pl))
	}
	return lo
}

// pollQueueDepth samples the per-shard queue-depth gauges every 50ms
// until the returned stop function is called, which returns the max.
func pollQueueDepth(srv *server) func() float64 {
	var maxDepth atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if m, err := srv.scrape(); err == nil {
					if v := int64(m["dnsblplane_queue_depth_max"]); v > maxDepth.Load() {
						maxDepth.Store(v)
					}
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return float64(maxDepth.Load())
	}
}

// reload runs the hot-reload phase: zones preloaded with records first
// seen before day 60, the rest published through an in-benchmark
// feedsync server at publishRate while queries run at 5K/s. Every
// probeEvery-th published record is polled until it answers listed.
func (s *session) reload(probe query) {
	in := s.in
	preDir := filepath.Join(s.dir, "preload")
	if err := os.MkdirAll(preDir, 0o755); err != nil {
		s.fail("preload: %v", err)
		return
	}
	var stream []pubRec
	var prePaths []string
	args := []string{}
	fs := feedsync.NewServer()
	defer fs.Close()
	for zi, z := range in.zones {
		f, err := readFeed(z.path)
		if err != nil {
			s.fail("preload: %v", err)
			return
		}
		idx := map[string]int32{}
		for i, n := range z.names {
			idx[n] = int32(i)
			if z.first[i] >= reloadCutoff {
				stream = append(stream, pubRec{zi, int32(i)})
			}
		}
		f.Retain(func(d domain.Name) bool { return z.first[idx[string(d)]] < reloadCutoff })
		p := filepath.Join(preDir, filepath.Base(z.path))
		prePaths = append(prePaths, p)
		out, err := os.Create(p)
		if err == nil {
			err = f.WriteTSV(out)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err == nil {
			err = fs.Register(z.feed, z.kind, false, false)
		}
		if err != nil {
			s.fail("preload: %v", err)
			return
		}
		for i := range z.pub {
			z.pub[i].Store(math.MaxInt64)
		}
		args = append(args, "-serve", z.suffix+"="+p, "-sync", z.feed+"="+z.suffix)
	}
	sort.Slice(stream, func(i, j int) bool {
		a, b := stream[i], stream[j]
		fa, fb := in.zones[a.zone].first[a.name], in.zones[b.zone].first[b.name]
		if fa != fb {
			return fa < fb
		}
		if a.zone != b.zone {
			return a.zone < b.zone
		}
		return a.name < b.name
	})
	fsAddr, err := fs.Listen("127.0.0.1:0")
	if err != nil {
		s.fail("feedsync: %v", err)
		return
	}
	args = append(args, "-sync-addr", fsAddr.String())
	id := s.tr.begin("dnsblserve.setup_reload")
	srv, _, err := launch(s.bin, args, probe, in)
	s.tr.end(id)
	s.attempted++
	if err != nil {
		s.fail("reload launch: %v", err)
		return
	}
	defer srv.stop()
	m0, err := srv.scrape()
	if err != nil {
		s.fail("scrape: %v", err)
		return
	}
	pid := srv.cmd.Process.Pid
	dur := 0.40 * s.seconds
	// Publish an even sample of the post-cutoff records (in first-seen
	// order), so the zone mix of a short phase matches the whole
	// stream's instead of whichever campaigns ran around day 60.
	n := min(len(stream), int(publishRate*dur))
	if n > 0 {
		stride := float64(len(stream)) / float64(n)
		sample := make([]pubRec, n)
		for i := range sample {
			sample[i] = stream[int(float64(i)*stride)]
		}
		stream = sample
	}
	pr := newProber(senders())
	g := s.readGen(srv.addr, 600000)
	g.probes = pr
	base := g.check
	g.check = func(slot int, req, resp []byte, qtype uint16, recv int64) error {
		q := in.pool[(600000+slot)%len(in.pool)]
		if q.name < 0 {
			return base(slot, req, resp, qtype, recv)
		}
		z := in.zones[q.zone]
		if z.first[q.name] < reloadCutoff {
			return base(slot, req, resp, qtype, recv)
		}
		want := eitherList
		if recv < z.pub[q.name].Load() {
			want = mustNot
		}
		_, err := checkAnswer(req, resp, qtype, want, z.listing(q.name))
		return err
	}
	var pubWG sync.WaitGroup
	pubWG.Add(1)
	go func() {
		defer pubWG.Done()
		defer pr.closed.Store(true)
		lockSender()
		defer runtime.UnlockOSThread()
		start := mono()
		period := int64(time.Second) / publishRate
		for i, r := range stream[:n] {
			preciseSleep(start + int64(i)*period - mono())
			z := in.zones[r.zone]
			now := mono()
			z.pub[r.name].Store(now)
			fs.Publish(z.feed, feeds.RawRecord{Time: time.Unix(z.first[r.name], 0).UTC(), Domain: z.names[r.name]}) //nolint:errcheck
			if i%probeEvery == 0 {
				pr.add(z.suffix, z.names[r.name], z.listing(r.name), now)
			}
		}
	}()
	cpu0, _ := schedstatCPU(pid)
	ph, ok := s.fixedRate(g, "reload", 5000, dur)
	pubWG.Wait()
	cpu1, _ := schedstatCPU(pid)
	if ok {
		sum := summarizeLatency(ph.lat, window)
		s.metrics["reload.p50_us.r5k"] = sum.P50us
		s.layer["gen.reload_p99_us"] = sum.P99us
		s.metrics["reload.cpu_us_per_query"] = float64(cpu1-cpu0) / 1e3 / float64(len(ph.lat))
	}
	pr.mu.Lock()
	lags, lost := append([]float64(nil), pr.lags...), pr.failed
	pr.mu.Unlock()
	s.attempted += len(lags) + lost
	if lost > 0 {
		s.failed += lost
		s.errs = append(s.errs, fmt.Sprintf("%d published records never answered listed", lost))
	}
	s.layer["gen.listing_lag_p50_ms"] = percentileOf(lags, 0.50)
	s.layer["gen.listing_lag_p95_ms"] = percentileOf(lags, 0.95)
	fmt.Fprintf(os.Stderr, "perfbench: listing lag n=%d p25=%.3fms p50=%.3fms p75=%.3fms p95=%.3fms\n", len(lags),
		percentileOf(lags, 0.25), percentileOf(lags, 0.5), percentileOf(lags, 0.75), percentileOf(lags, 0.95))
	s.layer["feedsync.records_streamed"] = float64(n)
	// Every published record must reach the plane.
	deadline := time.Now().Add(5 * time.Second)
	var m1 map[string]float64
	for {
		m1, err = srv.scrape()
		if err == nil && m1["dnsblplane_reload_records_total"]-m0["dnsblplane_reload_records_total"] >= float64(n) {
			break
		}
		if time.Now().After(deadline) {
			s.fail("only %v of %d published records applied",
				m1["dnsblplane_reload_records_total"]-m0["dnsblplane_reload_records_total"], n)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m1 != nil {
		batches := m1["dnsblplane_reload_batches_total"] - m0["dnsblplane_reload_batches_total"]
		records := m1["dnsblplane_reload_records_total"] - m0["dnsblplane_reload_records_total"]
		if batches > 0 {
			s.layer["dnsblplane.records_per_batch"] = records / batches
		}
		q := m1["dnsblplane_queries_total"] - m0["dnsblplane_queries_total"]
		hits := m1["dnsblplane_hits_total"] - m0["dnsblplane_hits_total"]
		if miss := q - hits; miss > 0 {
			s.layer["dnsblplane.neg_cache_hit_ratio.reload"] =
				(m1["dnsblplane_neg_cache_hits_total"] - m0["dnsblplane_neg_cache_hits_total"]) / miss
		}
	}
	if s.tr != nil {
		s.replayApply(stream[:n], prePaths)
	}
}

// planeConfig mirrors dnsblserve's default plane settings.
func (s *session) planeConfig() dnsblplane.Config {
	var zones []dnsblplane.ZoneConfig
	for _, z := range s.in.zones {
		zones = append(zones, dnsblplane.ZoneConfig{Suffix: z.suffix})
	}
	return dnsblplane.Config{Zones: zones, Shards: 4, TTL: 300, NegTTL: 30 * time.Second, NegCacheSize: 512}
}

// inProcessRead measures the plane's layers in-process (traced runs
// only): bulk LoadFeed of every zone, then Responder.Respond over the
// workload's query stream, timed per query class.
func (s *session) inProcessRead() {
	p, err := dnsblplane.New(s.planeConfig())
	if err != nil {
		s.fail("plane: %v", err)
		return
	}
	reg := obs.NewRegistry()
	p.Metrics = dnsblplane.WireMetrics(reg)
	var fs []*feeds.Feed
	for _, z := range s.in.zones {
		f, err := readFeed(z.path)
		if err != nil {
			s.fail("plane: %v", err)
			return
		}
		fs = append(fs, f)
	}
	s.layer["dnsblplane.load_s"] = s.tr.do("dnsblplane.load", func() {
		for i, z := range s.in.zones {
			if _, err := p.LoadFeed(z.suffix, fs[i]); err != nil {
				s.fail("plane load: %v", err)
			}
		}
	})
	// Calibrate the per-query timer cost so it can be subtracted.
	var calib []float64
	for i := 0; i < 2000; i++ {
		t := time.Now()
		calib = append(calib, float64(time.Since(t)))
	}
	overhead := median(calib)
	r := dnsblplane.NewResponder(p)
	pkts := make([][]byte, len(s.in.pool))
	for i, q := range s.in.pool {
		pkts[i], _ = s.in.pack(q, uint16(i), nil)
	}
	var sum [4]float64
	var cnt [4]int
	dst := make([]byte, 0, 512)
	var m0, m1 runtime.MemStats
	id := s.tr.begin("dnsblplane.respond")
	runtime.ReadMemStats(&m0)
	for i, q := range s.in.pool {
		neg0 := p.Metrics.NegHits.Value()
		t := time.Now()
		dst = r.Respond(dst[:0], pkts[i])
		d := float64(time.Since(t)) - overhead
		class := 0 // hit_a
		switch {
		case q.name >= 0 && q.txt:
			class = 1
		case q.name < 0 && p.Metrics.NegHits.Value() > neg0:
			class = 2 // miss_cached
		case q.name < 0:
			class = 3 // miss_cold
		}
		sum[class] += d
		cnt[class]++
	}
	runtime.ReadMemStats(&m1)
	s.tr.end(id)
	for i, name := range []string{"hit_a", "hit_txt", "miss_cached", "miss_cold"} {
		if cnt[i] > 0 {
			s.layer["dnsblplane.respond_ns."+name] = sum[i] / float64(cnt[i])
		}
	}
	s.layer["dnsblplane.respond_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(s.in.pool))
}

// preloadedName returns a listed name of the largest zone that is
// bulk-loaded in the reload phase.
func preloadedName(in *servingInput) (query, bool) {
	zones := make([]int, len(in.zones))
	for i := range zones {
		zones[i] = i
	}
	sort.SliceStable(zones, func(a, b int) bool { return len(in.zones[zones[a]].names) > len(in.zones[zones[b]].names) })
	for _, zi := range zones {
		for i, first := range in.zones[zi].first {
			if first < reloadCutoff {
				return query{zone: uint8(zi), name: int32(i)}, true
			}
		}
	}
	return query{}, false
}

// pubRec is one record of the reload phase's publish stream.
type pubRec struct {
	zone int
	name int32
}

// replayApply replays the reload phase's published records against an
// in-process plane preloaded like the server, in per-zone batches of
// the size the server's Reloaders formed, timing each Plane.Apply and
// counting the bytes the applies allocated.
func (s *session) replayApply(stream []pubRec, prePaths []string) {
	p, err := dnsblplane.New(s.planeConfig())
	if err != nil {
		s.fail("plane: %v", err)
		return
	}
	for i, z := range s.in.zones {
		f, err := readFeed(prePaths[i])
		if err == nil {
			_, err = p.LoadFeed(z.suffix, f)
		}
		if err != nil {
			s.fail("plane preload: %v", err)
			return
		}
	}
	size := max(1, int(math.Round(s.layer["dnsblplane.records_per_batch"])))
	type batch struct {
		zone string
		recs []dnsblplane.Record
	}
	var batches []batch
	pending := make([][]dnsblplane.Record, len(s.in.zones))
	for _, r := range stream {
		z := s.in.zones[r.zone]
		pending[r.zone] = append(pending[r.zone], dnsblplane.Record{
			Domain: z.names[r.name], First: time.Unix(z.first[r.name], 0).UTC(), Feed: z.feed})
		if len(pending[r.zone]) == size {
			batches = append(batches, batch{z.suffix, pending[r.zone]})
			pending[r.zone] = nil
		}
	}
	for zi, recs := range pending {
		if len(recs) > 0 {
			batches = append(batches, batch{s.in.zones[zi].suffix, recs})
		}
	}
	if len(batches) == 0 {
		return
	}
	runtime.GC()
	a0, _ := memNow()
	var busy float64
	id := s.tr.begin("dnsblplane.apply_replay")
	for _, b := range batches {
		busy += s.tr.do("dnsblplane.apply", func() {
			if err := p.Apply(b.zone, b.recs); err != nil {
				s.fail("apply: %v", err)
			}
		})
	}
	s.tr.end(id)
	a1, _ := memNow()
	s.layer["dnsblplane.apply_us_per_batch"] = busy * 1e6 / float64(len(batches))
	s.layer["dnsblplane.apply_bytes_per_record"] = float64(a1-a0) / float64(len(stream))
}
