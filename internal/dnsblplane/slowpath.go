package dnsblplane

import (
	"strings"
	"time"

	"tasterschoice/internal/dnsbl"
)

// slowOrDrop runs the slow path, accounting drops.
func (r *Responder) slowOrDrop(dst, raw []byte) []byte {
	out := r.slow(dst, raw)
	if out == nil {
		r.p.Metrics.Dropped.Inc()
	}
	return out
}

// slow answers the query shapes the wire fast path refuses to guess
// at — multiple questions, non-query opcodes, compression pointers or
// malformed labels in the question name, missing or unusual trailing
// records — through the full internal/dnsbl codec, reproducing the
// reference dnsbl.Handler's semantics (including mustPack's
// degrade-to-bare-FORMERR behaviour) exactly.
// These shapes are rare on a healthy wire, so allocating here is fine.
func (r *Responder) slow(dst, raw []byte) []byte {
	p := r.p
	query, err := dnsbl.Unpack(raw)
	if err != nil || query.Header.Response {
		return nil // not a query we can answer; drop
	}
	resp := &dnsbl.Message{
		Header: dnsbl.Header{
			ID:               query.Header.ID,
			Response:         true,
			Opcode:           query.Header.Opcode,
			Authoritative:    true,
			RecursionDesired: query.Header.RecursionDesired,
		},
		Questions: query.Questions,
	}
	if len(query.Questions) != 1 || query.Header.Opcode != 0 {
		resp.Header.RCode = dnsbl.RCodeFormErr
		return appendPack(dst, resp)
	}
	q := query.Questions[0]
	name := strings.ToLower(strings.TrimSuffix(q.Name, "."))
	var z *zone
	for _, cand := range p.zones {
		if len(name) > len(cand.dotSuffix) && strings.HasSuffix(name, string(cand.dotSuffix)) {
			if z == nil || len(cand.dotSuffix) > len(z.dotSuffix) {
				z = cand
			}
		}
	}
	if z == nil {
		resp.Header.RCode = dnsbl.RCodeRefused
		return appendPack(dst, resp)
	}
	if q.Class != dnsbl.ClassIN {
		resp.Header.RCode = dnsbl.RCodeNXDomain
		return appendPack(dst, resp)
	}
	queried := name[:len(name)-len(z.dotSuffix)]
	snap := z.shards[shardOf([]byte(queried), z.mask)].load()
	e, listed := snap.entries[queried]
	if !listed {
		resp.Header.RCode = dnsbl.RCodeNXDomain
		return appendPack(dst, resp)
	}
	p.Metrics.Hits.Inc()
	switch q.Type {
	case dnsbl.TypeA:
		resp.Answers = append(resp.Answers, dnsbl.ARecord(q.Name, z.ttl,
			dnsbl.ListedAddress[0], dnsbl.ListedAddress[1], dnsbl.ListedAddress[2], dnsbl.ListedAddress[3]))
	case dnsbl.TypeTXT:
		reason := "listed"
		if feed := z.feedName(e.feed); feed != "" {
			reason = "listed " + time.Unix(e.firstUnix, 0).UTC().Format(time.RFC3339) + " by " + feed
		}
		resp.Answers = append(resp.Answers, dnsbl.TXTRecord(q.Name, z.ttl, reason))
	default:
		// Listed, but no data of the requested type: NOERROR with an
		// empty answer section.
	}
	return appendPack(dst, resp)
}

// appendPack serializes a response onto dst, degrading like the
// reference handler's mustPack: when the echoed question cannot survive the
// dotted-string round trip, answer a bare FORMERR with no question
// section rather than drop.
func appendPack(dst []byte, m *dnsbl.Message) []byte {
	b, err := m.Pack()
	if err != nil {
		fallback := &dnsbl.Message{Header: m.Header}
		fallback.Header.RCode = dnsbl.RCodeFormErr
		b, err = fallback.Pack()
		if err != nil {
			// A question-less, answer-less message always packs.
			panic("dnsblplane: packing empty response failed: " + err.Error())
		}
	}
	return append(dst, b...)
}
