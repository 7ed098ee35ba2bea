package main

import (
	"net"
	"sync"
	"testing"
	"time"
)

// stallStub answers every query with NXDOMAIN from one goroutine,
// sleeping once for stall before answering query number stallAt.
func stallStub(t *testing.T, stallAt int, stall time.Duration) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1500)
		for n := 0; ; n++ {
			k, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
			}
			resp := append([]byte(nil), buf[:k]...)
			resp[2] |= 0x80
			resp[3] = resp[3]&0xf0 | 3
			conn.WriteToUDP(resp, from) //nolint:errcheck
		}
	}()
	t.Cleanup(func() {
		conn.Close()
		wg.Wait()
	})
	return conn.LocalAddr().(*net.UDPAddr)
}

func stubGen(addr *net.UDPAddr) *gen {
	return &gen{
		addr: addr, senders: 2, timeout: time.Second,
		build: func(slot int, id uint16, dst []byte) ([]byte, uint16) {
			return appendQuery(dst, id, "example.com", "bl.test", typeA), typeA
		},
		check: func(slot int, req, resp []byte, qtype uint16, _ int64) error {
			_, err := checkAnswer(req, resp, qtype, mustNot, listing{})
			return err
		},
	}
}

// TestStallShowsInTail is the coordinated-omission guard: one 50ms
// server stall must charge every query scheduled behind it, because
// latency runs from each query's due time. A closed-loop client (the
// Blaster's send-to-receive timer) would record one slow query.
func TestStallShowsInTail(t *testing.T) {
	const rate, n, stallAt = 2000, 2000, 600
	ph, err := stubGen(stallStub(t, stallAt, 50*time.Millisecond)).run(rate, n)
	if err != nil {
		t.Fatal(err)
	}
	if ph.timeouts+ph.incorrect+ph.shed != 0 {
		t.Fatalf("timeouts %d incorrect %d shed %d %v", ph.timeouts, ph.incorrect, ph.shed, ph.errs)
	}
	slow := 0
	for _, l := range ph.lat {
		if l >= int64(10*time.Millisecond) {
			slow++
		}
	}
	// 50ms at 2000/s puts ~100 queries behind the stall; ~80 of them
	// wait at least 10ms.
	if slow < 50 {
		t.Errorf("only %d queries ≥10ms behind a 50ms stall", slow)
	}
	raw := summarizeLatency(ph.lat, len(ph.lat))
	if raw.P99us < 25000 {
		t.Errorf("p99 %.0fus hides the 50ms stall", raw.P99us)
	}
	if late := percentileOf(lateMicros(ph), 0.5); late > 500 {
		t.Errorf("generator ran %.0fus late at the median", late)
	}
}

func TestNoStallStaysFast(t *testing.T) {
	ph, err := stubGen(stallStub(t, -1, 0)).run(2000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ph.timeouts+ph.incorrect != 0 {
		t.Fatalf("timeouts %d incorrect %d %v", ph.timeouts, ph.incorrect, ph.errs)
	}
	if sum := summarizeLatency(ph.lat, 100); sum.P50us > 5000 {
		t.Errorf("median %.0fus against an idle stub", sum.P50us)
	}
}

func lateMicros(ph *phase) []float64 {
	out := make([]float64, len(ph.late))
	for i, l := range ph.late {
		out[i] = float64(l) / 1e3
	}
	return out
}

// TestLostDatagramIsRetried drops one query's first datagram: the
// generator must resend it once, as a resolver would, and charge the
// wait to its latency rather than fail it.
func TestLostDatagramIsRetried(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 1500)
		for n := 0; ; n++ {
			k, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n == 100 {
				continue // lost
			}
			resp := append([]byte(nil), buf[:k]...)
			resp[2] |= 0x80
			resp[3] = resp[3]&0xf0 | 3
			conn.WriteToUDP(resp, from) //nolint:errcheck
		}
	}()
	defer func() {
		conn.Close()
		wg.Wait()
	}()
	ph, err := stubGen(conn.LocalAddr().(*net.UDPAddr)).run(2000, 400)
	if err != nil {
		t.Fatal(err)
	}
	if ph.timeouts+ph.incorrect != 0 {
		t.Fatalf("timeouts %d incorrect %d %v", ph.timeouts, ph.incorrect, ph.errs)
	}
	slow := 0
	for _, l := range ph.lat {
		if l >= retryAfter {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("%d queries waited for a retry, want 1", slow)
	}
}
