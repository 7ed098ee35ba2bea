package dnsbl

import "testing"

func BenchmarkPackUnpack(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1},
		Questions: []Question{{Name: "somedomain.com.dbl.example", Type: TypeA, Class: ClassIN}},
		Answers:   []Record{ARecord("somedomain.com.dbl.example", 300, 127, 0, 0, 2)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Unpack(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServerHandle(b *testing.B) {
	h := NewHandler("dbl.example", StaticZone{"cheappills.com": "spam"})
	req := &Message{
		Header:    Header{ID: 7},
		Questions: []Question{{Name: "cheappills.com.dbl.example", Type: TypeA, Class: ClassIN}},
	}
	raw, err := req.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Handle(raw) == nil {
			b.Fatal("no response")
		}
	}
}
