package main

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// monoEpoch anchors the generator's clock; mono() is monotonic
// nanoseconds since it.
var monoEpoch = time.Now()

func mono() int64 { return int64(time.Since(monoEpoch)) }

// preciseSleep blocks the calling OS thread for d. The Go runtime's
// timers fire with ~1ms granularity on this kernel's default settings,
// which would batch an open-loop schedule into millisecond bursts; a
// raw nanosleep on a thread whose timer slack was cut to 1µs (see
// lockSender) wakes within a few microseconds.
func preciseSleep(d int64) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR just wakes early
}

// lockSender pins the goroutine to its OS thread and cuts that
// thread's timer slack, so preciseSleep is precise.
func lockSender() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0) //nolint:errcheck // best effort
}

// inflight is one sent, not yet answered query. The request bytes are
// not kept: the receiver rebuilds them from the slot or probe.
type inflight struct {
	kind    uint8 // 0 free, kindSlot, kindProbe
	retried bool
	id      uint16
	qtype   uint16
	ref     int32 // slot or probe index
	due     int64
	sent    int64
}

// tables recycles the per-socket inflight tables across phases, so a
// phase allocates next to nothing while it measures.
var tables = sync.Pool{New: func() any {
	t := make([]inflight, tableSize)
	return &t
}}

const (
	kindSlot  = 1
	kindProbe = 2
	tableSize = 1 << 15
	// retryAfter is when an unanswered query is sent once more, as a
	// resolver would retry a lost UDP datagram. Its latency still runs
	// from the original due time.
	retryAfter = int64(250 * time.Millisecond)
)

// gen is an open-loop UDP DNS load generator: query i is due at
// start + i/rate whether or not earlier queries were answered, and its
// latency is measured from that due time, so a server stall charges
// every query scheduled behind it (no coordinated omission). Each of
// the senders owns one connected socket and the slots i ≡ k (mod
// senders); a receiver goroutine per socket matches answers by ID.
type gen struct {
	addr    *net.UDPAddr
	senders int
	timeout time.Duration
	// build packs slot's query with the given ID onto dst.
	build func(slot int, id uint16, dst []byte) ([]byte, uint16)
	// check validates slot's answer, received at recv (mono ns).
	check func(slot int, req, resp []byte, qtype uint16, recv int64) error
	// probes, when set, interleaves listing-lag probes.
	probes *prober
}

// phase is the outcome of one fixed-rate run.
type phase struct {
	rate      float64
	lat       []int64 // per slot: ns from due time to answer; -1 none
	late      []int64 // per slot: ns the send ran behind its due time
	incorrect int
	timeouts  int
	shed      int
	errs      []string
}

type sock struct {
	conn *net.UDPConn
	mu   sync.Mutex // guards tab
	tab  []inflight
	// seq is the next query ID and retryPos the oldest ID not yet
	// checked for a retry; only the socket's sender touches them
	// while it runs, then only run.
	seq, retryPos uint16
	// outstanding counts sent, unanswered entries.
	outstanding atomic.Int64
	incorrect   int
	shed        int
	errs        []string
}

func (s *sock) fail(err error) {
	if errors.Is(err, errShed) {
		s.shed++
		return
	}
	s.incorrect++
	if len(s.errs) < 4 {
		s.errs = append(s.errs, err.Error())
	}
}

// run offers n queries at rate per second and waits for the answers
// (at most retryAfter+timeout after the last send). A query unanswered
// after its one retry is a timeout. The generator's own garbage
// collector is held off while it measures: a collection pausing the
// receivers would read as server latency.
func (g *gen) run(rate float64, n int) (*phase, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ph := &phase{rate: rate, lat: make([]int64, n), late: make([]int64, n)}
	for i := range ph.lat {
		ph.lat[i] = -1
	}
	socks := make([]*sock, g.senders)
	for k := range socks {
		// Each sender is its own resolver: a distinct loopback source
		// address, as the plane shards its intake queues by client IP.
		local := &net.UDPAddr{IP: net.IPv4(127, 0, 0, byte(1+k))}
		c, err := net.DialUDP("udp", local, g.addr)
		if err != nil {
			for _, s := range socks[:k] {
				s.conn.Close()
			}
			return nil, err
		}
		c.SetReadBuffer(4 << 20)  //nolint:errcheck // best effort
		c.SetWriteBuffer(4 << 20) //nolint:errcheck // best effort
		tab := tables.Get().(*[]inflight)
		clear(*tab)
		socks[k] = &sock{conn: c, tab: *tab}
	}
	var stop atomic.Bool
	var recvWG, sendWG sync.WaitGroup
	for k, s := range socks {
		recvWG.Add(1)
		go func(k int, s *sock) {
			defer recvWG.Done()
			g.receive(s, ph, &stop)
		}(k, s)
	}
	period := 1e9 / rate
	start := mono() + int64(2*time.Millisecond)
	for k, s := range socks {
		sendWG.Add(1)
		go func(k int, s *sock) {
			defer sendWG.Done()
			lockSender()
			defer runtime.UnlockOSThread()
			g.send(k, s, ph, start, period, n)
		}(k, s)
	}
	sendWG.Wait()
	deadline := mono() + retryAfter + int64(g.timeout)
	buf := make([]byte, 0, 512)
	for mono() < deadline {
		var out int64
		for _, s := range socks {
			buf = g.retrySweep(s, mono(), buf)
			out += s.outstanding.Load()
		}
		if out == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	recvWG.Wait()
	for _, s := range socks {
		s.conn.Close()
		tables.Put(&s.tab)
		ph.incorrect += s.incorrect
		ph.shed += s.shed
		ph.errs = append(ph.errs, s.errs...)
	}
	for _, l := range ph.lat {
		if l < 0 {
			ph.timeouts++
		}
	}
	return ph, nil
}

// transmit records q in the socket's table and sends it.
func (s *sock) transmit(kind uint8, ref int32, due int64, qtype uint16, pkt []byte) {
	s.mu.Lock()
	e := &s.tab[int(s.seq)%tableSize]
	if e.kind != 0 {
		s.outstanding.Add(-1) // overwritten: long timed out
	}
	e.kind, e.retried, e.id, e.qtype, e.ref, e.due, e.sent = kind, false, s.seq, qtype, ref, due, mono()
	s.seq++
	s.mu.Unlock()
	s.outstanding.Add(1)
	s.conn.Write(pkt) //nolint:errcheck // a lost datagram shows up as a timeout
}

func (g *gen) send(k int, s *sock, ph *phase, start int64, period float64, n int) {
	buf := make([]byte, 0, 512)
	sendProbe := func(i int32, pr *probe) {
		pkt := appendQuery(buf[:0], s.seq, pr.name, pr.zone, typeA)
		s.transmit(kindProbe, i, mono(), typeA, pkt)
	}
	for j := k; j < n; j += g.senders {
		due := start + int64(float64(j)*period)
		for {
			t := mono()
			next := due
			if g.probes != nil {
				if pn := g.probes.sendDue(k, t, sendProbe); pn < next {
					next = pn
				}
			}
			if t >= due {
				ph.late[j] = t - due
				break
			}
			if next > t {
				preciseSleep(next - t)
			}
		}
		pkt, qtype := g.build(j, s.seq, buf[:0])
		s.transmit(kindSlot, int32(j), due, qtype, pkt)
		buf = g.retrySweep(s, mono(), buf)
	}
	if g.probes == nil {
		return
	}
	// Keep probing until every probe this sender owns has resolved.
	for {
		t := mono()
		next := g.probes.sendDue(k, t, sendProbe)
		if next == math.MaxInt64 && g.probes.closed.Load() {
			return
		}
		d := next - t
		if d > int64(200*time.Microsecond) || next == math.MaxInt64 {
			d = int64(200 * time.Microsecond)
		}
		preciseSleep(d)
	}
}

// retrySweep resends, once, every scheduled query of s that has gone
// unanswered for retryAfter. IDs are handed out in send order, so the
// sweep stops at the first query too young to retry.
func (g *gen) retrySweep(s *sock, now int64, buf []byte) []byte {
	for ; s.retryPos != s.seq; s.retryPos++ {
		s.mu.Lock()
		e := &s.tab[int(s.retryPos)%tableSize]
		live := e.kind == kindSlot && e.id == s.retryPos && !e.retried
		if live && now-e.sent < retryAfter {
			s.mu.Unlock()
			return buf
		}
		ref := e.ref
		if live {
			e.retried = true
		}
		s.mu.Unlock()
		if live {
			var pkt []byte
			pkt, _ = g.build(int(ref), s.retryPos, buf[:0])
			s.conn.Write(pkt) //nolint:errcheck // a second loss is a timeout
			buf = pkt
		}
	}
	return buf
}

func (g *gen) receive(s *sock, ph *phase, stop *atomic.Bool) {
	buf := make([]byte, 2048)
	req := make([]byte, 0, 512)
	for {
		s.conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond)) //nolint:errcheck
		n, err := s.conn.Read(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if stop.Load() {
					return
				}
				continue
			}
			if stop.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // e.g. ECONNREFUSED from an ICMP error
		}
		recv := mono()
		if n < 2 {
			continue
		}
		id := binary.BigEndian.Uint16(buf)
		s.mu.Lock()
		e := &s.tab[int(id)%tableSize]
		if e.kind == 0 || e.id != id {
			s.mu.Unlock()
			continue
		}
		kind, ref, due, qtype := e.kind, e.ref, e.due, e.qtype
		e.kind = 0
		s.mu.Unlock()
		s.outstanding.Add(-1)
		resp := buf[:n]
		switch kind {
		case kindSlot:
			ph.lat[ref] = recv - due
			req, _ = g.build(int(ref), id, req[:0])
			if err := g.check(int(ref), req, resp, qtype, recv); err != nil {
				s.fail(err)
			}
		case kindProbe:
			g.probes.answer(ref, id, req[:0], resp, recv, s)
		}
	}
}

// probe polls one freshly published record until the server lists it.
type probe struct {
	zone, name string
	l          listing
	owner      int
	pub        int64 // mono ns just before Publish
	next       int64
	done       bool
}

// prober measures listing lag: the time from Publish of a sampled
// record until a wire query for it first answers "listed". Probes ride
// on the generator's senders, every interval, and give up (a failure)
// after giveUp.
type prober struct {
	mu       sync.Mutex
	all      []*probe
	active   []int32
	interval int64
	giveUp   int64
	senders  int
	lags     []float64 // ms
	failed   int
	closed   atomic.Bool
}

func newProber(senders int) *prober {
	return &prober{
		interval: int64(50 * time.Microsecond),
		giveUp:   int64(2 * time.Second),
		senders:  senders,
	}
}

// add starts probing a record published at pub.
func (p *prober) add(zone, name string, l listing, pub int64) {
	p.mu.Lock()
	i := int32(len(p.all))
	p.all = append(p.all, &probe{zone: zone, name: name, l: l, owner: int(i) % p.senders,
		pub: pub, next: pub})
	p.active = append(p.active, i)
	p.mu.Unlock()
}

// sendDue sends every probe owned by sender k that is due at t and
// returns the earliest next due time of its remaining probes.
func (p *prober) sendDue(k int, t int64, send func(int32, *probe)) int64 {
	next := int64(math.MaxInt64)
	p.mu.Lock()
	var due []int32
	var duePr []*probe
	keep := p.active[:0]
	for _, i := range p.active {
		pr := p.all[i]
		if pr.done {
			continue
		}
		if t-pr.pub > p.giveUp {
			pr.done = true
			p.failed++
			continue
		}
		keep = append(keep, i)
		if pr.owner != k {
			continue
		}
		if pr.next <= t {
			due, duePr = append(due, i), append(duePr, pr)
			pr.next = t + p.interval
		}
		if pr.next < next {
			next = pr.next
		}
	}
	p.active = keep
	p.mu.Unlock()
	for j, i := range due {
		send(i, duePr[j])
	}
	return next
}

func (p *prober) answer(i int32, id uint16, req, resp []byte, recv int64, s *sock) {
	p.mu.Lock()
	pr := p.all[i]
	p.mu.Unlock()
	req = appendQuery(req, id, pr.name, pr.zone, typeA)
	listed, err := checkAnswer(req, resp, typeA, eitherList, pr.l)
	if err != nil {
		s.fail(err)
		return
	}
	if !listed {
		return
	}
	p.mu.Lock()
	if !pr.done {
		pr.done = true
		p.lags = append(p.lags, float64(recv-pr.pub)/1e6)
	}
	p.mu.Unlock()
}

// schedstatCPU returns the CPU time (ns) consumed so far by every
// thread of process pid, from /proc/<pid>/task/*/schedstat.
func schedstatCPU(pid int) (int64, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // thread exited
		}
		var v int64
		for _, c := range b {
			if c < '0' || c > '9' {
				break
			}
			v = v*10 + int64(c-'0')
		}
		total += v
	}
	return total, nil
}
