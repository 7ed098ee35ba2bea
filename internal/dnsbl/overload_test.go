package dnsbl

import (
	"testing"

	"tasterschoice/internal/overload"
)

func TestShedReplyHeaderOnly(t *testing.T) {
	req := &Message{
		Header:    Header{ID: 0xbeef, RecursionDesired: true},
		Questions: []Question{{Name: "x.dbl.example", Type: TypeA, Class: ClassIN}},
	}
	raw, err := req.Pack()
	if err != nil {
		t.Fatal(err)
	}
	resp := ShedReply(raw, RCodeServFail)
	if len(resp) != 12 {
		t.Fatalf("shed reply length = %d, want 12 (header only)", len(resp))
	}
	m, err := Unpack(resp)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 0xbeef || !m.Header.Response || !m.Header.RecursionDesired {
		t.Fatalf("header not echoed: %+v", m.Header)
	}
	if m.Header.RCode != RCodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", m.Header.RCode)
	}
	if len(m.Questions) != 0 || len(m.Answers) != 0 {
		t.Fatalf("shed reply carries sections: %+v", m)
	}
}

func TestShedReplyRejectsGarbage(t *testing.T) {
	if ShedReply([]byte("short"), RCodeServFail) != nil {
		t.Fatal("built a reply from a truncated header")
	}
	resp := ShedReply(make([]byte, 12), RCodeRefused)
	if resp == nil {
		t.Fatal("refused a minimal query header")
	}
	// A response must not be answered (reflection loop guard).
	if ShedReply(resp, RCodeRefused) != nil {
		t.Fatal("answered a response")
	}
}

func TestShedRCodeMapping(t *testing.T) {
	if ShedRCode(overload.ShedRate) != RCodeRefused || ShedRCode(overload.ShedFairness) != RCodeRefused {
		t.Fatal("client-fault sheds must REFUSE")
	}
	if ShedRCode(overload.ShedCapacity) != RCodeServFail {
		t.Fatal("server-fault sheds must SERVFAIL")
	}
}

func TestQtypeOf(t *testing.T) {
	req := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "a.b.dbl.example", Type: TypeTXT, Class: ClassIN}},
	}
	raw, _ := req.Pack()
	if got := QTypeOf(raw); got != TypeTXT {
		t.Fatalf("QTypeOf = %d, want TXT", got)
	}
	if got := QTypeOf([]byte{1, 2, 3}); got != 0 {
		t.Fatalf("QTypeOf(garbage) = %d, want 0", got)
	}
}
