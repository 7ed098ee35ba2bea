package dnsblplane

import (
	"bytes"
	"reflect"
	"testing"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/obs"
)

// FuzzPlaneMatchesLegacy feeds arbitrary datagrams to the plane and to
// the reference handler in internal/dnsbl under the parity contract of
// TestParityWithLegacyServer: both drop, or both answer; answered
// responses decode to the same message; answerless responses are
// byte-identical. The plane keeps its negative cache on, so repeated
// inputs also check that a cached miss matches a cold one.
func FuzzPlaneMatchesLegacy(f *testing.F) {
	feed := testFeed("dbl", 8)
	ref := dnsbl.NewHandler("dbl.test", dnsbl.FeedZone{Feed: feed})
	plane, err := New(Config{Zones: []ZoneConfig{{Suffix: "dbl.test"}}})
	if err != nil {
		f.Fatal(err)
	}
	plane.Metrics = WireMetrics(obs.NewRegistry())
	if _, err := plane.LoadFeed("dbl.test", feed); err != nil {
		f.Fatal(err)
	}

	f.Add(appendQuery(nil, 2, "spam00.example", "dbl.test", dnsbl.TypeA))
	f.Add(appendQuery(nil, 3, "spam07.example", "dbl.test", dnsbl.TypeTXT))
	f.Add(appendQuery(nil, 4, "benign.example", "dbl.test", dnsbl.TypeA))
	f.Add(appendQuery(nil, 5, "SpAm01.ExAmPlE", "DbL.TeSt", 15))
	f.Add(appendQuery(nil, 6, "spam00.example", "other.zone", dnsbl.TypeA))
	f.Add(ednsQuery(7, "spam02.example"))
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, q []byte) {
		want := ref.Handle(q)
		got := plane.Handle(q)
		if (got == nil) != (want == nil) {
			t.Fatalf("plane dropped=%t, reference dropped=%t\n  query: %x", got == nil, want == nil, q)
		}
		if got == nil {
			return
		}
		wantMsg, errW := dnsbl.Unpack(want)
		gotMsg, errG := dnsbl.Unpack(got)
		if errW != nil || errG != nil {
			t.Fatalf("unpack failed (plane: %v, reference: %v)\n  query: %x", errG, errW, q)
		}
		if !reflect.DeepEqual(gotMsg, wantMsg) {
			t.Fatalf("plane diverges from reference\n  query: %x\n  plane: %+v\n  reference: %+v",
				q, gotMsg, wantMsg)
		}
		if len(wantMsg.Answers) == 0 && !bytes.Equal(got, want) {
			t.Fatalf("answerless responses not byte-identical\n  query: %x\n  plane: %x\n  reference: %x",
				q, got, want)
		}
	})
}

// ednsQuery is an A query carrying an EDNS(0) OPT pseudo-record in the
// additional section (ARCOUNT=1): root owner, TYPE 41, a 4096-byte UDP
// payload size, no options.
func ednsQuery(id uint16, domain string) []byte {
	q := appendQuery(nil, id, domain, "dbl.test", dnsbl.TypeA)
	q[11] = 1 // ARCOUNT=1
	return append(q, 0, 0, 41, 0x10, 0, 0, 0, 0, 0, 0, 0)
}
