package dnsbl

import (
	"encoding/binary"

	"tasterschoice/internal/overload"
)

// Wire helpers for overload shedding on the DNS serving path
// (internal/dnsblplane). A DNSBL survives resolver floods by shedding
// cheaply: a header-only SERVFAIL or REFUSED costs a 12-byte write,
// while answering the query costs a lookup and a pack. The rules:
//
//   - REFUSED: the shed is the client's doing — it blew through a rate
//     or fairness budget. Well-behaved resolvers treat it as "this
//     server will not help you" and back off.
//   - SERVFAIL: the shed is ours — the work queue is full. Resolvers
//     fail over to the next server in their list immediately, which is
//     exactly what we want during a flood.

// QTypeOf extracts the query type from a raw single-question DNS
// message without a full unpack: skip the 12-byte header and the
// QNAME labels, then read QTYPE. Returns 0 on malformed input. The
// sharded plane (internal/dnsblplane) uses it to classify priority
// before spending an unpack on a datagram.
func QTypeOf(raw []byte) uint16 {
	i := 12
	for i < len(raw) {
		l := int(raw[i])
		if l == 0 {
			i++
			break
		}
		if l >= 0xc0 { // compression pointer: illegal in a question, bail
			return 0
		}
		i += 1 + l
	}
	if i+2 > len(raw) {
		return 0
	}
	return binary.BigEndian.Uint16(raw[i:])
}

// ShedReply builds the header-only refusal for a raw query: the
// client's ID echoed, QR set, opcode and RD preserved, the given
// RCode, and no question section (legal, and what mustPack already
// degrades to). Returns nil when raw is too short to be a query or is
// itself a response.
func ShedReply(raw []byte, rcode uint8) []byte {
	if len(raw) < 12 || raw[2]&0x80 != 0 {
		return nil
	}
	resp := make([]byte, 12)
	resp[0], resp[1] = raw[0], raw[1]
	resp[2] = 0x80 | raw[2]&0x79 // QR=1, keep opcode+RD, clear AA/TC
	resp[3] = rcode & 0x0f
	return resp
}

// ShedRCode maps a shed reason to its wire answer: REFUSED when the
// shed is the client's doing (rate or fairness), SERVFAIL when it is
// the server's (capacity).
func ShedRCode(r overload.ShedReason) uint8 {
	switch r {
	case overload.ShedRate, overload.ShedFairness:
		return RCodeRefused
	default:
		return RCodeServFail
	}
}
