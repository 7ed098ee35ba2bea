package dnsblplane

import (
	"bufio"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/overload"
)

// startServer serves a two-domain dbl.test plane on a loopback port
// (UDP and TCP at the same address).
func startServer(t *testing.T) (*Server, net.Addr) {
	t.Helper()
	srv := &Server{Plane: newTestPlane(t, "dbl.test", testFeed("dbl", 2), 0)}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// TestCloseIdempotentConcurrent hammers Close from many goroutines
// with both sockets live; every call must return cleanly. Run with
// -race.
func TestCloseIdempotentConcurrent(t *testing.T) {
	srv, _ := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close() //nolint:errcheck
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after Close: %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen succeeded on a closed server")
	}
}

// TestCloseDuringQueries closes the server while clients are firing
// queries; no panic, no hang, and the races are clean under -race.
func TestCloseDuringQueries(t *testing.T) {
	srv, addr := startServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			conn, err := net.Dial("udp", addr.String())
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 512)
			for j := 0; j < 50; j++ {
				conn.SetDeadline(overload.WallClock().Add(100 * time.Millisecond)) //nolint:errcheck
				conn.Write(appendQuery(nil, id, "spam00.example", "dbl.test", 1))  //nolint:errcheck
				conn.Read(buf)                                                     //nolint:errcheck
			}
		}(uint16(i + 1))
	}
	<-time.After(5 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestShutdownUnparksIdleTCPSession verifies that a TCP session parked
// between pipelined queries is woken promptly by Shutdown instead of
// sitting out its 30-second idle timeout.
func TestShutdownUnparksIdleTCPSession(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Complete one query so the session is established and parked
	// waiting for the next pipelined message.
	if err := dnsbl.WriteTCPMessage(conn, appendQuery(nil, 7, "spam00.example", "dbl.test", 1)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, err := dnsbl.ReadTCPMessage(r); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := overload.WallClock()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := overload.WallClock().Sub(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v waiting on an idle session", elapsed)
	}
	// The parked session's connection is closed out from under us.
	conn.SetReadDeadline(overload.WallClock().Add(5 * time.Second)) //nolint:errcheck
	if _, err := dnsbl.ReadTCPMessage(r); err == nil {
		t.Fatal("idle session still open after Shutdown")
	}
}

// TestShutdownAnswersInFlightUDP verifies the UDP pipeline finishes
// the datagrams it admitted: a query sent just before Shutdown still
// gets its answer, and afterwards the socket is gone.
func TestShutdownAnswersInFlightUDP(t *testing.T) {
	srv, addr := startServer(t)
	q := appendQuery(nil, 42, "spam00.example", "dbl.test", 1)
	if got := queryServer(t, addr, q, 2*time.Second); got == nil {
		t.Fatal("no answer before Shutdown")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := queryServer(t, addr, q, 200*time.Millisecond); got != nil {
		t.Fatal("query answered after Shutdown")
	}
}
