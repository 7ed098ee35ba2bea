package dnsbl

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"tasterschoice/internal/feeds"
	"tasterschoice/internal/simclock"
)

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{
			ID: 0xbeef, Response: true, Authoritative: true,
			RecursionDesired: true, RCode: RCodeNoError,
		},
		Questions: []Question{{Name: "pills.com.dbl.example", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			ARecord("pills.com.dbl.example", 300, 127, 0, 0, 2),
			TXTRecord("pills.com.dbl.example", 300, "listed for spamming"),
		},
	}
	raw, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 0xbeef || !got.Header.Response || !got.Header.Authoritative {
		t.Fatalf("header: %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "pills.com.dbl.example" {
		t.Fatalf("questions: %+v", got.Questions)
	}
	if len(got.Answers) != 2 {
		t.Fatalf("answers: %+v", got.Answers)
	}
	if !bytes.Equal(got.Answers[0].Data, []byte{127, 0, 0, 2}) {
		t.Fatalf("A rdata: %v", got.Answers[0].Data)
	}
	strs, err := TXTStrings(got.Answers[1].Data)
	if err != nil || len(strs) != 1 || strs[0] != "listed for spamming" {
		t.Fatalf("TXT: %v %v", strs, err)
	}
}

func TestUnpackRejectsTruncated(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "a.com", Type: TypeA, Class: ClassIN}}}
	raw, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(raw); i++ {
		if _, err := Unpack(raw[:i]); err == nil {
			t.Fatalf("Unpack accepted %d-byte prefix", i)
		}
	}
}

func TestUnpackCompressedName(t *testing.T) {
	// Hand-build a response where the answer name is a pointer to the
	// question name.
	q := &Message{
		Header:    Header{ID: 7},
		Questions: []Question{{Name: "x.bl.test", Type: TypeA, Class: ClassIN}},
	}
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Append one answer with a compression pointer to offset 12 (the
	// question name).
	raw[7] = 1 // ANCount = 1
	answer := []byte{0xc0, 12}
	answer = appendU16(answer, TypeA)
	answer = appendU16(answer, ClassIN)
	answer = appendU32(answer, 60)
	answer = appendU16(answer, 4)
	answer = append(answer, 127, 0, 0, 2)
	raw = append(raw, answer...)

	m, err := Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Name != "x.bl.test" {
		t.Fatalf("answers: %+v", m.Answers)
	}
}

func TestUnpackPointerLoop(t *testing.T) {
	raw := make([]byte, 12)
	raw[5] = 1 // QDCount = 1
	// Name that points at itself.
	raw = append(raw, 0xc0, 12)
	raw = append(raw, 0, 1, 0, 1)
	if _, err := Unpack(raw); !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("err = %v, want pointer loop", err)
	}
}

func TestPackNameValidation(t *testing.T) {
	if _, err := packName("a..b"); err == nil {
		t.Error("empty label accepted")
	}
	long := string(bytes.Repeat([]byte("a"), 64))
	if _, err := packName(long + ".com"); err == nil {
		t.Error("64-byte label accepted")
	}
}

// TestLabelEscapes: a label holding a dot or a backslash decodes to
// its escaped presentation form and packs back to the same wire bytes,
// so the name never merges with (or fails to repack as) a dotted one.
func TestLabelEscapes(t *testing.T) {
	wire := []byte{7, 'b', 'a', 'd', '.', 'c', 'o', 'm', 3, 'a', '\\', 'b', 2, 'b', 'l', 0}
	name, end, err := unpackName(wire, 0)
	if err != nil || end != len(wire) {
		t.Fatalf("unpackName = %q, %d, %v", name, end, err)
	}
	if want := `bad\.com.a\\b.bl`; name != want {
		t.Fatalf("name = %q, want %q", name, want)
	}
	packed, err := packName(name)
	if err != nil || !bytes.Equal(packed, wire) {
		t.Fatalf("packName(%q) = %v, %v; want %v", name, packed, err, wire)
	}
	if packed, err := packName("a.b."); err != nil || !bytes.Equal(packed, []byte{1, 'a', 1, 'b', 0}) {
		t.Fatalf("trailing root dot: %v, %v", packed, err)
	}
}

// TestUnpackRejectsMissingRecords: header counts that promise records
// the message does not carry make it truncated, in every section.
func TestUnpackRejectsMissingRecords(t *testing.T) {
	raw, err := (&Message{Questions: []Question{{Name: "a.com", Type: TypeA, Class: ClassIN}}}).Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{6, 8, 10} { // ANCOUNT, NSCOUNT, ARCOUNT
		q := append([]byte(nil), raw...)
		q[count+1] = 1
		if _, err := Unpack(q); !errors.Is(err, ErrTruncatedMessage) {
			t.Errorf("count at %d: err = %v, want truncated", count, err)
		}
	}
	// A present EDNS(0) OPT record in the additional section is fine.
	q := append([]byte(nil), raw...)
	q[11] = 1
	q = append(q, 0, 0, 41, 0x10, 0, 0, 0, 0, 0, 0, 0)
	if _, err := Unpack(q); err != nil {
		t.Fatalf("EDNS query: %v", err)
	}
}

func TestTXTRecordLongString(t *testing.T) {
	text := string(bytes.Repeat([]byte("x"), 300))
	r := TXTRecord("a.com", 60, text)
	strs, err := TXTStrings(r.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(strs) != 2 || strs[0]+strs[1] != text {
		t.Fatalf("TXT split wrong: %d parts", len(strs))
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(id uint16, rcode uint8, labelByte uint8) bool {
		label := "d" + string(rune('a'+labelByte%26))
		m := &Message{
			Header:    Header{ID: id, Response: true, RCode: rcode & 0xf},
			Questions: []Question{{Name: label + ".com.bl.test", Type: TypeA, Class: ClassIN}},
		}
		raw, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(raw)
		if err != nil {
			return false
		}
		return got.Header.ID == id && got.Header.RCode == rcode&0xf &&
			got.Questions[0].Name == label+".com.bl.test"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testFeedZone() FeedZone {
	f := feeds.New("dbl", feeds.KindBlacklist, false, false)
	f.ObserveOnce(simclock.PaperStart, "cheappills.com")
	f.ObserveOnce(simclock.PaperStart.AddDate(0, 0, 1), "replicas.net")
	return FeedZone{Feed: f}
}

func TestServerHandleListed(t *testing.T) {
	h := NewHandler("dbl.example", testFeedZone())
	req := &Message{
		Header:    Header{ID: 42},
		Questions: []Question{{Name: "cheappills.com.dbl.example", Type: TypeA, Class: ClassIN}},
	}
	raw, _ := req.Pack()
	resp, err := Unpack(h.Handle(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 42 || !resp.Header.Response || !resp.Header.Authoritative {
		t.Fatalf("header: %+v", resp.Header)
	}
	if resp.Header.RCode != RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp: %+v", resp)
	}
	if !bytes.Equal(resp.Answers[0].Data, ListedAddress[:]) {
		t.Fatalf("rdata: %v", resp.Answers[0].Data)
	}
}

func TestServerHandleUnlisted(t *testing.T) {
	h := NewHandler("dbl.example", testFeedZone())
	req := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "innocent.org.dbl.example", Type: TypeA, Class: ClassIN}},
	}
	raw, _ := req.Pack()
	resp, err := Unpack(h.Handle(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeNXDomain || len(resp.Answers) != 0 {
		t.Fatalf("resp: %+v", resp)
	}
}

func TestServerRefusesForeignZone(t *testing.T) {
	h := NewHandler("dbl.example", testFeedZone())
	req := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "cheappills.com.other.zone", Type: TypeA, Class: ClassIN}},
	}
	raw, _ := req.Pack()
	resp, err := Unpack(h.Handle(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeRefused {
		t.Fatalf("rcode = %d", resp.Header.RCode)
	}
}

func TestServerDropsGarbageAndResponses(t *testing.T) {
	h := NewHandler("dbl.example", testFeedZone())
	if h.Handle([]byte{1, 2, 3}) != nil {
		t.Error("garbage answered")
	}
	m := &Message{Header: Header{ID: 9, Response: true}}
	raw, _ := m.Pack()
	if h.Handle(raw) != nil {
		t.Error("response packet answered")
	}
}

func TestStaticZone(t *testing.T) {
	z := StaticZone{"bad.com": "manual listing"}
	if ok, reason := z.Listed("bad.com"); !ok || reason != "manual listing" {
		t.Fatalf("Listed = %v %q", ok, reason)
	}
	if ok, _ := z.Listed("good.com"); ok {
		t.Fatal("good.com listed")
	}
}

func TestTCPFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte{1, 2, 3, 4, 5}
	if err := WriteTCPMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCPMessage(&buf)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("frame round trip: %v err=%v", got, err)
	}
	// Truncated frame errors out.
	buf.Reset()
	buf.Write([]byte{0, 9, 1, 2})
	if _, err := ReadTCPMessage(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Oversized message rejected on write.
	if err := WriteTCPMessage(&buf, make([]byte, 70000)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
