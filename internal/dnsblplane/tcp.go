package dnsblplane

import (
	"bufio"
	"net"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/overload"
)

// tcpIdle is how long a TCP session may wait for its next pipelined
// query before the server closes it.
const tcpIdle = 30 * time.Second

// serveTCP accepts DNS-over-TCP sessions until the listener closes.
func (s *Server) serveTCP(l net.Listener) {
	defer s.serving.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Each session holds an admission slot for its lifetime:
		// sessions are the unit of concurrency here, and TCP fallback
		// (truncated answers) rides above the bulk UDP flood.
		release, admitted := s.Admission.Admit(overload.Normal, clientKey(conn.RemoteAddr()))
		if !admitted {
			// Connect-then-close: the resolver sees a refused session and
			// fails over, instead of a half-open socket it must time out.
			conn.Close()
			continue
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			release()
			conn.Close()
			return
		}
		s.tcpConns[conn] = struct{}{}
		s.serving.Add(1)
		s.mu.Unlock()
		go s.session(conn, release)
	}
}

// session answers length-prefixed queries on one connection until the
// peer closes it, sends garbage, idles past tcpIdle, or the server
// drains; under drain the query in flight is answered first.
func (s *Server) session(conn net.Conn, release func()) {
	defer s.serving.Done()
	defer release()
	defer func() {
		s.mu.Lock()
		delete(s.tcpConns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := NewResponder(s.Plane)
	in, w := bufio.NewReader(conn), bufio.NewWriter(conn)
	var out []byte
	for {
		s.armRead(conn)
		raw, err := dnsbl.ReadTCPMessage(in)
		if err != nil {
			return
		}
		if out = r.Respond(out[:0], raw); out == nil {
			return // garbage: drop the connection
		}
		if dnsbl.WriteTCPMessage(w, out) != nil || w.Flush() != nil || s.isStopping() {
			return
		}
	}
}

// armRead sets the read deadline for the next pipelined query. It runs
// under the server lock so it orders against Shutdown's expired-
// deadline nudge: whichever runs second wins, and under drain the
// deadline is already expired, so the read returns at once instead of
// parking for the full idle timeout. Socket deadlines are wall-clock
// by nature, so the idle one does not come from the injected Clock.
func (s *Server) armRead(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		conn.SetReadDeadline(s.clock()()) //nolint:errcheck
	} else {
		conn.SetReadDeadline(overload.WallClock().Add(tcpIdle)) //nolint:errcheck
	}
}
