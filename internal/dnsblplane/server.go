package dnsblplane

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/obs"
	"tasterschoice/internal/overload"
)

// Server serves a Plane over DNS, on UDP and TCP at one address. UDP
// runs through a batched pipeline:
//
//	readers --(pooled buffers)--> bounded queue --> workers
//
// Reader goroutines do nothing but pull datagrams off the socket into
// pooled buffers and run the cheap admission checks (priority
// classification, rate/fairness gate, queue headroom), so intake stays
// fast enough to answer a flood with refusals instead of letting the
// kernel socket buffer overflow silently. Worker goroutines drain the
// queue in bursts — one blocking receive, then as many non-blocking
// receives as are ready up to Batch — so each wakeup answers N
// datagrams with one scheduling round trip. This is the portable shape
// of recvmmsg batching: the stdlib exposes no multi-datagram syscall,
// so the batching seam lives between the socket readers and the
// workers rather than in the kernel; swapping a recvmmsg-based reader
// in later changes only the reader loop. An answer that does not fit
// a 512-byte datagram goes out as header plus question with the TC bit
// set, and the resolver retries over TCP.
//
// TCP (RFC 1035 §4.2.2, RFC 7766) serves length-prefixed queries, any
// number pipelined on one connection, each session on its own
// goroutine holding one admission slot for its lifetime (see tcp.go).
//
// Shedding is header-only: REFUSED when the shed is the client's doing
// (rate or fairness), SERVFAIL when it is ours (queue full).
type Server struct {
	// Plane answers the queries.
	Plane *Plane

	// Readers is the socket-reader goroutine count (default 1).
	Readers int
	// Workers is the UDP responder goroutine count (default 4).
	Workers int
	// Batch bounds how many datagrams one worker wakeup drains
	// (default 32).
	Batch int
	// QueueDepth bounds the pending-datagram queue (default
	// 16×Workers). Bulk queries stop queuing at 3/4 of this, normal at
	// 9/10, keeping headroom for critical traffic.
	QueueDepth int
	// Admission rate-limits and fair-shares queries; nil admits all.
	// UDP queries pass Allow per datagram; each TCP session holds an
	// Admit slot for its lifetime.
	Admission *overload.Gate
	// Classify maps a raw query to its priority class. Nil defaults to
	// TXT → Normal (reason lookups ride above the bulk A-query flood),
	// everything else Bulk.
	Classify func(raw []byte, from net.Addr) overload.Priority
	// Clock drives shutdown nudges (default wall clock via the
	// overload seam).
	Clock overload.Clock

	mu       sync.Mutex
	conn     net.PacketConn
	ln       net.Listener
	tcpConns map[net.Conn]struct{}
	closed   bool
	draining bool
	// queues is the sharded intake: one bounded queue per worker,
	// selected by a hash of the client address. Stickiness means a
	// flooding client backs up one shard and sheds there, while the
	// other shards keep answering at full speed.
	queues []chan packet
	// depth mirrors queues: the per-shard queue-depth gauge, updated at
	// the enqueue and dequeue points of the serving loop.
	depth []*obs.Gauge
	pool  sync.Pool
	// serving counts live readers, workers, the queue closer, the TCP
	// accept loop and TCP sessions, so Shutdown can wait for in-flight
	// queries to be answered.
	serving sync.WaitGroup
	readers sync.WaitGroup
	// qpsStart/qpsCount implement the rolling ~1s window behind the
	// live QPS gauge; time comes from the injected Clock, so the gauge
	// replays deterministically under a simulated clock.
	qpsStart atomic.Int64
	qpsCount atomic.Int64
}

// packet is one pending datagram; buf comes from the server's pool and
// returns to it after the response is written.
type packet struct {
	buf  *[]byte
	n    int
	from net.Addr
}

func (s *Server) numReaders() int {
	if s.Readers > 0 {
		return s.Readers
	}
	return 1
}

func (s *Server) numWorkers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return 4
}

func (s *Server) batchSize() int {
	if s.Batch > 0 {
		return s.Batch
	}
	return 32
}

func (s *Server) queueDepth() int {
	if s.QueueDepth > 0 {
		return s.QueueDepth
	}
	return 16 * s.numWorkers()
}

func (s *Server) clock() overload.Clock {
	if s.Clock != nil {
		return s.Clock
	}
	return overload.WallClock
}

// classify returns the priority class of a raw query.
func (s *Server) classify(raw []byte, from net.Addr) overload.Priority {
	if s.Classify != nil {
		return s.Classify(raw, from)
	}
	if dnsbl.QTypeOf(raw) == dnsbl.TypeTXT {
		return overload.Normal
	}
	return overload.Bulk
}

// Listen binds UDP and TCP on one address ("127.0.0.1:0" for tests)
// and serves both in background goroutines, returning the bound UDP
// address; the TCP port is the same.
func (s *Server) Listen(addr string) (net.Addr, error) {
	conn, ln, err := listenPair(addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		conn.Close()
		ln.Close()
		return nil, errors.New("dnsblplane: server closed")
	}
	s.conn, s.ln = conn, ln
	s.tcpConns = make(map[net.Conn]struct{})
	// Split the total queue bound across the worker shards; every
	// worker owns exactly one queue.
	nw := s.numWorkers()
	perShard := s.queueDepth() / nw
	if perShard < 1 {
		perShard = 1
	}
	s.queues = make([]chan packet, nw)
	s.depth = make([]*obs.Gauge, nw)
	for i := range s.queues {
		s.queues[i] = make(chan packet, perShard)
		if s.Plane != nil && s.Plane.Metrics.QueueDepth != nil {
			s.depth[i] = s.Plane.Metrics.QueueDepth(i)
		}
	}
	s.pool.New = func() any {
		b := make([]byte, 4096)
		return &b
	}
	for i := 0; i < nw; i++ {
		s.serving.Add(1)
		go s.worker(conn, i)
	}
	for i := 0; i < s.numReaders(); i++ {
		s.serving.Add(1)
		s.readers.Add(1)
		go s.reader(conn)
	}
	// Close the queues once every reader has stopped, releasing workers
	// after they drain what was admitted.
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		s.readers.Wait()
		for _, q := range s.queues {
			close(q)
		}
	}()
	s.serving.Add(1)
	go s.serveTCP(ln)
	s.mu.Unlock()
	return conn.LocalAddr(), nil
}

// listenPair binds UDP on addr, then TCP on the port UDP got. When the
// caller asked for any port and another socket already holds that one
// over TCP, it tries again with a fresh port.
func listenPair(addr string) (net.PacketConn, net.Listener, error) {
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, nil, err
	}
	for attempt := 1; ; attempt++ {
		conn, err := net.ListenPacket("udp", addr)
		if err != nil {
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", conn.LocalAddr().String())
		if err == nil {
			return conn, ln, nil
		}
		conn.Close()
		if (port != "0" && port != "") || attempt == 8 {
			return nil, nil, err
		}
	}
}

// reader is the socket intake loop: read, admit or shed, enqueue.
func (s *Server) reader(conn net.PacketConn) {
	defer s.serving.Done()
	defer s.readers.Done()
	for {
		bp := s.pool.Get().(*[]byte)
		n, from, err := conn.ReadFrom(*bp)
		if err != nil {
			s.pool.Put(bp)
			return
		}
		raw := (*bp)[:n]
		s.observeQPS()
		p := s.classify(raw, from)
		qi := s.shardIndex(from)
		q := s.queues[qi]
		// Priority headroom: bulk stops queuing at 3/4 of the shard's
		// bound so a flood of A queries cannot starve control traffic
		// of queue space.
		if len(q) >= p.Share(cap(q)) {
			s.shed(conn, raw, from, overload.ShedCapacity)
			s.pool.Put(bp)
		} else if s.Admission != nil && !s.Admission.Allow(p, clientKey(from)) {
			s.shed(conn, raw, from, overload.ShedRate)
			s.pool.Put(bp)
		} else {
			select {
			case q <- packet{buf: bp, n: n, from: from}:
				s.depth[qi].Set(int64(len(q)))
			default:
				// Lost the race for the last slot.
				s.shed(conn, raw, from, overload.ShedCapacity)
				s.pool.Put(bp)
			}
		}
		if s.isStopping() {
			return
		}
	}
}

// shed answers a refused datagram with its header-only refusal.
func (s *Server) shed(conn net.PacketConn, raw []byte, from net.Addr, reason overload.ShedReason) {
	s.Plane.Metrics.Shed.Inc()
	if resp := dnsbl.ShedReply(raw, dnsbl.ShedRCode(reason)); resp != nil {
		conn.WriteTo(resp, from) //nolint:errcheck // best-effort UDP reply
	}
}

// worker drains its own queue shard in bursts and answers each
// datagram with a worker-owned Responder and response buffer, so the
// steady state allocates nothing per query.
func (s *Server) worker(conn net.PacketConn, shard int) {
	defer s.serving.Done()
	q, g := s.queues[shard], s.depth[shard]
	r := NewResponder(s.Plane)
	batch := make([]packet, 0, s.batchSize())
	out := make([]byte, 0, 512)
	for {
		first, ok := <-q
		if !ok {
			g.Set(0)
			return
		}
		batch = append(batch[:0], first)
		batch = drain(batch, q)
		g.Set(int64(len(q)))
		s.Plane.Metrics.ReadBatch.Observe(float64(len(batch)))
		for _, it := range batch {
			out = r.Respond(out[:0], (*it.buf)[:it.n])
			if len(out) > maxUDP {
				out = truncate(out)
			}
			if out != nil {
				conn.WriteTo(out, it.from) //nolint:errcheck // best-effort UDP reply
			}
			s.pool.Put(it.buf)
		}
	}
}

// maxUDP is the DNS/UDP payload limit (RFC 1035 §4.2.1). The plane
// negotiates no larger EDNS(0) size, so the limit holds for every
// query.
const maxUDP = 512

// truncate cuts an oversize UDP answer down to its header and question
// section and sets TC, telling the resolver to ask again over TCP
// (RFC 1035 §4.1.1, RFC 7766 §5). Response questions are never
// compressed: the fast path echoes the query's and the slow path packs
// them whole. If the questions alone do not fit, only the header goes.
func truncate(resp []byte) []byte {
	end := 12
	for n := binary.BigEndian.Uint16(resp[4:]); n > 0 && end < len(resp); n-- {
		for end < len(resp) && resp[end] != 0 {
			end += 1 + int(resp[end])
		}
		end += 5 // root label, QTYPE, QCLASS
	}
	if end > maxUDP || end > len(resp) {
		end = 12
		resp[4], resp[5] = 0, 0
	}
	resp = resp[:end]
	resp[2] |= 0x02 // TC
	clear(resp[6:12])
	return resp
}

// drain appends whatever is already queued, up to the batch bound,
// without blocking.
func drain(batch []packet, q chan packet) []packet {
	for len(batch) < cap(batch) {
		select {
		case it, ok := <-q:
			if !ok {
				return batch
			}
			batch = append(batch, it)
		default:
			return batch
		}
	}
	return batch
}

// shardIndex maps a client address onto a queue shard: FNV-1a over the
// peer IP, so a client sticks to one shard (and a flooding client
// backs up only that shard).
func (s *Server) shardIndex(from net.Addr) int {
	n := len(s.queues)
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	if a, ok := from.(*net.UDPAddr); ok {
		for _, b := range a.IP {
			h = (h ^ uint32(b)) * 16777619
		}
	} else {
		str := from.String()
		for i := 0; i < len(str); i++ {
			h = (h ^ uint32(str[i])) * 16777619
		}
	}
	return int(h % uint32(n))
}

// observeQPS feeds the live QPS gauge: datagrams counted over rolling
// windows of at least one second on the injected clock. The CAS elects
// one reader to close each window; the small count leak when two
// windows race is noise a gauge tolerates.
func (s *Server) observeQPS() {
	n := s.qpsCount.Add(1)
	now := s.clock()().UnixNano()
	start := s.qpsStart.Load()
	if start == 0 {
		s.qpsStart.CompareAndSwap(0, now)
		return
	}
	elapsed := now - start
	if elapsed < int64(time.Second) {
		return
	}
	if s.qpsStart.CompareAndSwap(start, now) {
		s.qpsCount.Add(-n)
		s.Plane.Metrics.QPS.Set(n * int64(time.Second) / elapsed)
	}
}

// isStopping reports whether Close or Shutdown has begun.
func (s *Server) isStopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// Close force-closes the sockets and every TCP session. Idempotent and
// safe to call concurrently with Shutdown and with queries in flight.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.conn != nil {
		err = s.conn.Close()
		s.ln.Close()
	}
	for c := range s.tcpConns {
		c.Close()
	}
	return err
}

// Shutdown drains the server: the TCP listener closes, UDP readers
// stop intake, workers answer everything already admitted, and each
// TCP session finishes the query it is answering; then the sockets
// close. When ctx expires remaining work is force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if !s.draining {
		s.draining = true
		// Nudge readers out of their blocking read without closing the
		// socket under an in-flight reply.
		if s.conn != nil {
			s.ln.Close()
			s.conn.SetReadDeadline(s.clock()()) //nolint:errcheck
		}
		// Parked TCP sessions (waiting for the next pipelined query)
		// wake the same way; a query whose bytes have not all arrived is
		// not yet in flight, so abandoning it is correct.
		for c := range s.tcpConns {
			c.SetReadDeadline(s.clock()()) //nolint:errcheck
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
		return s.Close()
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
}

// clientKey is the fairness identity of a peer: its IP, so one host
// opening many sockets still lands in one bucket.
func clientKey(addr net.Addr) string {
	switch a := addr.(type) {
	case *net.UDPAddr:
		return a.IP.String()
	case *net.TCPAddr:
		return a.IP.String()
	}
	if host, _, err := net.SplitHostPort(addr.String()); err == nil {
		return host
	}
	return addr.String()
}
