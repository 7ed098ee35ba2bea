package dnsblplane

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/overload"
)

func TestTCPPipelining(t *testing.T) {
	srv, addr := startServer(t)
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two pipelined queries on one connection.
	for i, name := range []string{"spam00.example", "nope.org"} {
		if err := dnsbl.WriteTCPMessage(conn, appendQuery(nil, uint16(100+i), name, "dbl.test", 1)); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(conn)
	for i, rcode := range []uint8{dnsbl.RCodeNoError, dnsbl.RCodeNXDomain} {
		raw, err := dnsbl.ReadTCPMessage(r)
		if err != nil {
			t.Fatal(err)
		}
		m, err := dnsbl.Unpack(raw)
		if err != nil || m.Header.ID != uint16(100+i) || m.Header.RCode != rcode {
			t.Fatalf("answer %d: %+v err=%v", i, m, err)
		}
	}
}

// TestTCPSessionHoldsAdmissionSlot: a TCP session holds one Admit slot
// for its lifetime, so with a one-slot gate a second concurrent session
// is closed at once, and the slot comes back when the first ends.
func TestTCPSessionHoldsAdmissionSlot(t *testing.T) {
	srv := &Server{
		Plane:     newTestPlane(t, "dbl.test", testFeed("dbl", 2), 0),
		Admission: overload.NewGate(overload.GateConfig{MaxConcurrent: 1}),
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ask := func(conn net.Conn) error {
		conn.SetDeadline(overload.WallClock().Add(3 * time.Second)) //nolint:errcheck
		if err := dnsbl.WriteTCPMessage(conn, appendQuery(nil, 1, "spam00.example", "dbl.test", 1)); err != nil {
			return err
		}
		_, err := dnsbl.ReadTCPMessage(conn)
		return err
	}
	first, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := ask(first); err != nil {
		t.Fatalf("first session: %v", err)
	}
	second, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := ask(second); err == nil {
		t.Fatal("second session answered while the only slot was held")
	}
	first.Close()
	// The slot is released once the server sees the first session end.
	for i := 0; ; i++ {
		third, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		err = ask(third)
		third.Close()
		if err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("slot never released: %v", err)
		}
		<-time.After(10 * time.Millisecond)
	}
}

// TestTruncatedUDPAnswer: an answer over 512 bytes leaves over UDP as
// header plus question with TC set and no records; TCP carries it
// whole.
func TestTruncatedUDPAnswer(t *testing.T) {
	name := strings.Repeat("longfeedname", 40)
	p := newTestPlane(t, "dbl.test", testFeed(name, 1), 0)
	srv := &Server{Plane: p}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	q := appendQuery(nil, 5, "spam00.example", "dbl.test", 16)
	full := p.Handle(q)
	if len(full) <= maxUDP {
		t.Fatalf("test answer is only %d bytes", len(full))
	}
	got := queryServer(t, addr, q, 2*time.Second)
	want := append([]byte(nil), full[:len(q)]...)
	want[2] |= 0x02 // TC
	want[7] = 0     // ANCOUNT
	if !bytes.Equal(got, want) {
		t.Fatalf("UDP answer\n  got:  %x\n  want: %x", got, want)
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(overload.WallClock().Add(3 * time.Second)) //nolint:errcheck
	if err := dnsbl.WriteTCPMessage(conn, q); err != nil {
		t.Fatal(err)
	}
	tcp, err := dnsbl.ReadTCPMessage(conn)
	if err != nil || !bytes.Equal(tcp, full) {
		t.Fatalf("TCP answer differs from in-process Handle (err %v)", err)
	}
}

// TestTruncate covers the header-only case: when the echoed questions
// alone exceed 512 bytes, only the header is kept.
func TestTruncate(t *testing.T) {
	resp := appendQuery(nil, 1, strings.Repeat("a", 60)+".example", "dbl.test", 1)
	resp[2] |= 0x80
	resp[5] = 8
	q := resp[12:]
	for i := 1; i < 8; i++ {
		resp = append(resp, q...)
	}
	resp[7] = 1
	got := truncate(append(resp, make([]byte, 16)...))
	want := []byte{0, 1, 0x83, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("truncate = %x, want %x", got, want)
	}
}

func TestDefaultClassify(t *testing.T) {
	s := &Server{}
	if s.classify(appendQuery(nil, 1, "x", "dbl.example", dnsbl.TypeTXT), nil) != overload.Normal {
		t.Fatal("TXT should classify Normal")
	}
	if s.classify(appendQuery(nil, 1, "x", "dbl.example", dnsbl.TypeA), nil) != overload.Bulk {
		t.Fatal("A should classify Bulk")
	}
}
