// Package dnsblplane is the DNSBL server: the serving-side
// counterpart of the dataset-build engine. It serves many zones — each
// backed by one or more feeds — from a sharded in-memory index built
// for global resolver traffic, over UDP and TCP (see Server):
//
//   - Sharding. Each zone's listings are split across a power-of-two
//     number of shards by FNV-1a over the domain name. The same hash
//     runs on the write path (over the normalized key) and the read
//     path (over the normalized query bytes), so both sides agree on
//     placement without coordination.
//
//   - RCU snapshot swap. A shard's index is an immutable map published
//     through one atomic pointer. Readers load the pointer once and
//     answer from that consistent view; hot-reload deltas build a copy
//     and swap it in whole. A query can race a reload and see the old
//     world or the new one — never a torn middle.
//
//   - Negative-answer caching. Repeated misses (the dominant traffic
//     in junk-domain floods) return a cached packed NXDOMAIN, validated
//     against the shard generation so a reload invalidates every
//     cached miss instantly.
//
//   - Bulk build. A zone loads from its feed file in one pass (see
//     LoadTSV): rows stream from the feeds TSV scanner straight into
//     per-shard slices, keys are packed into a few large arena
//     strings, and each shard's map is built once at its final size.
//     Later generations copy the map, and copies share the key bytes.
//
// Determinism contract: the plane is engine-tier. All time comes from
// the injected overload.Clock, all randomness from seeded randutil,
// and a response is a pure function of (query bytes, listing state):
// the same query against the same state yields byte-identical answers,
// which is what the chaos suite's oracle asserts through floods and
// reloads.
package dnsblplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/overload"
)

// Errors returned by plane configuration and reload.
var (
	ErrNoZones     = errors.New("dnsblplane: no zones configured")
	ErrUnknownZone = errors.New("dnsblplane: unknown zone")
)

// ZoneConfig declares one served zone.
type ZoneConfig struct {
	// Suffix is the DNSBL zone ("dbl.example"), without trailing dot.
	Suffix string
	// Feeds pre-registers feed names for TXT reasons; feeds appearing
	// only in reload deltas are registered on first sight.
	Feeds []string
	// TTL overrides Config.TTL for this zone's positive answers,
	// seconds (0: inherit the plane-wide value).
	TTL uint32
	// NegTTL overrides Config.NegTTL for this zone's cached negative
	// answers (0: inherit the plane-wide value).
	NegTTL time.Duration
	// SOA, when set, switches on authority behaviour for this zone:
	// NXDOMAIN answers carry the zone's SOA in the authority section
	// (RFC 2308 negative caching — the record's TTL and MINIMUM are the
	// zone's NegTTL), and queries for the zone apex itself are answered
	// instead of refused. Zones without an SOA keep the reference
	// handler's byte-for-byte answer shape.
	SOA *SOAConfig
}

// SOAConfig is the zone-apex SOA record. Refresh/retry/expire use
// conventional secondary-transfer values; MINIMUM is the zone's
// negative TTL per RFC 2308.
type SOAConfig struct {
	// MName is the primary nameserver ("ns1.dbl.example").
	MName string
	// RName is the admin mailbox in dotted form ("hostmaster.dbl.example").
	RName string
	// Serial is the zone serial.
	Serial uint32
}

// Config parameterises a Plane.
type Config struct {
	// Zones lists the served zones (at least one).
	Zones []ZoneConfig
	// Shards is the per-zone shard count, rounded up to a power of two
	// (default 4).
	Shards int
	// TTL for positive answers, seconds (default 300).
	TTL uint32
	// NegTTL bounds negative-cache entries (default 30s).
	NegTTL time.Duration
	// NegCacheSize is the per-shard negative-cache capacity in entries
	// (default 512; negative disables the cache).
	NegCacheSize int
	// Clock drives negative-cache expiry (default wall clock via the
	// overload seam).
	Clock overload.Clock
}

// Record is one listing observation applied to a zone: the reload
// delta unit. It mirrors feeds.RawRecord after aggregation — a domain,
// when it was first seen, and which feed reported it.
type Record struct {
	Domain string
	First  time.Time
	Feed   string
}

// zone is one served zone's sharded index.
type zone struct {
	suffix    string
	dotSuffix []byte // "." + suffix, the fast-path matcher
	shards    []*shard
	mask      uint32
	// ttl/negTTL are this zone's resolved answer TTLs (per-zone
	// override or the plane-wide default).
	ttl    uint32
	negTTL time.Duration
	// soaRR is the fully packed apex SOA resource record (owner name
	// uncompressed, TTL = negTTL), nil when the zone has no SOA
	// configured. It is built once at New and appended verbatim.
	soaRR []byte

	// mu guards the feed-name table, which can grow on reload.
	mu      sync.Mutex
	feeds   []string
	feedIdx map[string]uint16
}

// feedIndex returns the index for a feed name, registering new names.
func (z *zone) feedIndex(name string) uint16 {
	z.mu.Lock()
	defer z.mu.Unlock()
	if i, ok := z.feedIdx[name]; ok {
		return i
	}
	i := uint16(len(z.feeds))
	z.feeds = append(z.feeds, name)
	z.feedIdx[name] = i
	return i
}

// feedName returns the registered name for an index.
func (z *zone) feedName(i uint16) string {
	z.mu.Lock()
	defer z.mu.Unlock()
	if int(i) < len(z.feeds) {
		return z.feeds[i]
	}
	return ""
}

// Plane is the multi-zone sharded DNSBL index plus its query handler.
// Lookups are lock-free; reloads apply per shard with one atomic
// snapshot swap each. Create with New, then serve it with a Server or
// answer raw queries directly through a Responder.
type Plane struct {
	zones  []*zone
	byName map[string]*zone
	ttl    uint32
	negTTL time.Duration
	clock  overload.Clock

	// Metrics observes the plane; the zero value is inert. Set before
	// serving.
	Metrics Metrics
}

// New builds a plane from cfg.
func New(cfg Config) (*Plane, error) {
	if len(cfg.Zones) == 0 {
		return nil, ErrNoZones
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 4
	}
	// Round up to a power of two so shard selection is a mask.
	n := 1
	for n < shards {
		n <<= 1
	}
	ttl := cfg.TTL
	if ttl == 0 {
		ttl = 300
	}
	negTTL := cfg.NegTTL
	if negTTL <= 0 {
		negTTL = 30 * time.Second
	}
	negSize := cfg.NegCacheSize
	if negSize == 0 {
		negSize = 512
	}
	p := &Plane{
		byName: make(map[string]*zone, len(cfg.Zones)),
		ttl:    ttl,
		negTTL: negTTL,
		clock:  cfg.Clock,
	}
	if p.clock == nil {
		p.clock = overload.WallClock
	}
	for _, zc := range cfg.Zones {
		suffix := key(zc.Suffix)
		if suffix == "" {
			return nil, fmt.Errorf("dnsblplane: empty zone suffix")
		}
		if _, dup := p.byName[suffix]; dup {
			return nil, fmt.Errorf("dnsblplane: duplicate zone %q", suffix)
		}
		z := &zone{
			suffix:    suffix,
			dotSuffix: append([]byte("."), suffix...),
			shards:    make([]*shard, n),
			mask:      uint32(n - 1),
			feedIdx:   make(map[string]uint16),
			ttl:       ttl,
			negTTL:    negTTL,
		}
		if zc.TTL != 0 {
			z.ttl = zc.TTL
		}
		if zc.NegTTL > 0 {
			z.negTTL = zc.NegTTL
		}
		if zc.SOA != nil {
			z.soaRR = buildSOA(suffix, zc.SOA, z.negTTL)
		}
		for i := range z.shards {
			z.shards[i] = newShard(negSize)
		}
		for _, f := range zc.Feeds {
			z.feedIndex(f)
		}
		p.zones = append(p.zones, z)
		p.byName[suffix] = z
	}
	return p, nil
}

// Zones returns the served zone suffixes in configuration order.
func (p *Plane) Zones() []string {
	out := make([]string, len(p.zones))
	for i, z := range p.zones {
		out[i] = z.suffix
	}
	return out
}

// TTL returns the positive-answer TTL in seconds.
func (p *Plane) TTL() uint32 { return p.ttl }

// zoneFor returns the zone serving the given suffix.
func (p *Plane) zoneFor(suffix string) (*zone, error) {
	z := p.byName[key(suffix)]
	if z == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownZone, suffix)
	}
	return z, nil
}

// Apply publishes a batch of listing records into a zone. Records are
// grouped per shard and each shard's additions land in one atomic
// snapshot swap, so concurrent readers observe each record completely
// or not at all. Earliest listing wins: re-applying a domain keeps
// whichever record has the earlier first-seen time, converging with
// feeds.Feed's min-time dedup regardless of arrival order. Safe for
// concurrent use with queries and with other Apply calls.
func (p *Plane) Apply(zoneSuffix string, recs []Record) error {
	z, err := p.zoneFor(zoneSuffix)
	if err != nil {
		return err
	}
	b := z.newBatch()
	for _, rec := range recs {
		if name := key(rec.Domain); name != "" {
			b.add(listing{name: name, firstUnix: rec.First.Unix(), feed: z.feedIndex(rec.Feed)})
		}
	}
	maps, _ := b.fold()
	p.commit(b, maps, len(recs))
	return nil
}

// LoadFeed bulk-loads a feed's aggregated listings into a zone,
// returning the number of records applied. The feed's name becomes the
// TXT reason attribution.
func (p *Plane) LoadFeed(zoneSuffix string, f *feeds.Feed) (int, error) {
	z, err := p.zoneFor(zoneSuffix)
	if err != nil {
		return 0, err
	}
	fi := z.feedIndex(f.Name)
	b := z.newBatch()
	f.EachUnordered(func(d domain.Name, s feeds.DomainStat) {
		if name := key(string(d)); name != "" {
			b.add(listing{name: name, firstUnix: s.First.Unix(), feed: fi})
		}
	})
	maps, _ := b.fold()
	p.commit(b, maps, f.Unique())
	return f.Unique(), nil
}

// Lookup reports whether a domain is listed in a zone, with its
// listing metadata — the oracle entry point tests and the blaster use
// to compute expected answers.
func (p *Plane) Lookup(zoneSuffix, domain string) (listed bool, first time.Time, feed string, err error) {
	z, err := p.zoneFor(zoneSuffix)
	if err != nil {
		return false, time.Time{}, "", err
	}
	name := key(domain)
	snap := z.shards[shardOf(name, z.mask)].load()
	e, ok := snap.entries[name]
	if !ok {
		return false, time.Time{}, "", nil
	}
	return true, time.Unix(e.firstUnix, 0).UTC(), z.feedName(e.feed), nil
}

// Listed returns the total listed-domain count across a zone's shards
// (a point-in-time sum over per-shard snapshots).
func (p *Plane) Listed(zoneSuffix string) (int, error) {
	z, err := p.zoneFor(zoneSuffix)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, sh := range z.shards {
		total += len(sh.load().entries)
	}
	return total, nil
}

// Handle answers one raw DNS query, allocating the response. It is the
// convenience form of Responder.Respond for tests and callers outside
// the read loop; the server's workers hold pooled Responders instead.
func (p *Plane) Handle(raw []byte) []byte {
	r := NewResponder(p)
	resp := r.Respond(nil, raw)
	if resp == nil {
		return nil
	}
	return append([]byte(nil), resp...)
}

// Responder answers queries against a plane with worker-local scratch
// buffers, so the steady-state read loop allocates nothing. Not safe
// for concurrent use; each worker goroutine owns one.
type Responder struct {
	p *Plane
	// name holds the lowercased dotted qname. A name is at most 255
	// octets on the wire (RFC 1035 §3.1), which is 253 dotted
	// characters; longer qnames take the slow path, which drops them.
	name [253]byte
	// scratch builds TXT reasons.
	scratch []byte
}

// NewResponder returns a responder for the plane.
func NewResponder(p *Plane) *Responder {
	return &Responder{p: p, scratch: make([]byte, 0, 128)}
}

// Respond processes one raw DNS query, appending the response to dst
// (which may be nil) and returning the extended buffer. A nil return
// means drop — the datagram was not a query we can answer at all. The
// returned slice aliases dst's backing array; callers reuse it after
// the datagram is written out.
func (r *Responder) Respond(dst []byte, raw []byte) []byte {
	p := r.p
	p.Metrics.Queries.Inc()
	if len(raw) < 12 || raw[2]&0x80 != 0 {
		p.Metrics.Dropped.Inc()
		return nil // truncated or already a response: drop
	}
	qd := binary.BigEndian.Uint16(raw[4:])
	opcode := raw[2] >> 3 & 0xf
	if qd != 1 || opcode != 0 {
		// Rare malformed shapes take the slow path, which reproduces
		// the reference handler's semantics exactly.
		return r.slowOrDrop(dst, raw)
	}
	nameLen, qEnd, ok := r.parseQuestion(raw)
	if !ok {
		return r.slowOrDrop(dst, raw)
	}
	qtype := binary.BigEndian.Uint16(raw[qEnd-4:])
	qclass := binary.BigEndian.Uint16(raw[qEnd-2:])
	name := r.name[:nameLen]

	// Zone match: longest-suffix scan over the (few) served zones.
	var z *zone
	for _, cand := range p.zones {
		if len(name) > len(cand.dotSuffix) && bytes.HasSuffix(name, cand.dotSuffix) {
			if z == nil || len(cand.dotSuffix) > len(z.dotSuffix) {
				z = cand
			}
		}
	}
	if z == nil {
		// Apex queries: a zone with an SOA configured answers for its
		// own name instead of refusing (SOA in the answer section for
		// SOA queries, in the authority section otherwise). Zones
		// without one keep the reference REFUSED byte shape.
		for _, cand := range p.zones {
			if cand.soaRR != nil && len(name) == len(cand.dotSuffix)-1 &&
				bytes.Equal(name, cand.dotSuffix[1:]) {
				if qclass != dnsbl.ClassIN {
					return appendEcho(dst, raw, qEnd, dnsbl.RCodeNXDomain)
				}
				start := len(dst)
				dst = appendEcho(dst, raw, qEnd, dnsbl.RCodeNoError)
				dst = append(dst, cand.soaRR...)
				if qtype == dnsbl.TypeSOA {
					dst[start+7] = 1 // ANCOUNT=1
				} else {
					dst[start+9] = 1 // NSCOUNT=1
				}
				return dst
			}
		}
		return appendEcho(dst, raw, qEnd, dnsbl.RCodeRefused)
	}
	if qclass != dnsbl.ClassIN {
		return appendEcho(dst, raw, qEnd, dnsbl.RCodeNXDomain)
	}
	domain := name[:len(name)-len(z.dotSuffix)]
	sh := z.shards[shardOf(domain, z.mask)]
	snap := sh.load()
	e, listed := snap.entries[string(domain)]
	if !listed {
		// Negative path: serve and feed the per-shard NXDOMAIN cache,
		// keyed on the exact wire question so the echoed bytes always
		// match the client's casing. Cached responses include the SOA
		// authority record when the zone carries one, so a cache hit is
		// byte-identical to a cold build.
		key := raw[12:qEnd]
		now := p.clock()
		if cached := sh.neg.get(key, snap.gen, now); cached != nil {
			p.Metrics.NegHits.Inc()
			n := len(dst)
			dst = append(dst, cached...)
			dst[n], dst[n+1] = raw[0], raw[1] // patch ID
			// Patch RD through from this query.
			dst[n+2] = dst[n+2]&^0x01 | raw[2]&0x01
			return dst
		}
		n := len(dst)
		dst = appendEcho(dst, raw, qEnd, dnsbl.RCodeNXDomain)
		if z.soaRR != nil {
			dst = append(dst, z.soaRR...)
			dst[n+9] = 1 // NSCOUNT=1
		}
		sh.neg.put(key, dst[n:], snap.gen, now.Add(z.negTTL))
		return dst
	}
	p.Metrics.Hits.Inc()
	start := len(dst)
	dst = appendEcho(dst, raw, qEnd, dnsbl.RCodeNoError)
	switch qtype {
	case dnsbl.TypeA:
		dst = r.appendA(dst, start, z)
	case dnsbl.TypeTXT:
		dst = r.appendTXT(dst, start, z, e)
	default:
		// Listed, but no data of the requested type: NOERROR with an
		// empty answer section.
	}
	return dst
}

// parseQuestion walks the single question's labels, lowercasing the
// dotted name into r.name. It returns the name length, the offset just
// past the question (name + qtype + qclass), and whether the fast path
// can answer; compression pointers, malformed labels, labels holding
// a dot or a backslash, and unusual trailing sections fall back to the
// slow path, which shares the reference codec's handling.
func (r *Responder) parseQuestion(raw []byte) (nameLen, qEnd int, ok bool) {
	i := 12
	w := 0
	for {
		if i >= len(raw) {
			return 0, 0, false
		}
		l := int(raw[i])
		if l == 0 {
			i++
			break
		}
		if l&0xc0 != 0 {
			return 0, 0, false // pointer or reserved: slow path
		}
		if i+1+l > len(raw) || w+l+1 > len(r.name) {
			return 0, 0, false
		}
		if w > 0 {
			r.name[w] = '.'
			w++
		}
		for _, c := range raw[i+1 : i+1+l] {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			} else if c == '.' || c == '\\' {
				return 0, 0, false // needs escaping: slow path
			}
			r.name[w] = c
			w++
		}
		i += 1 + l
	}
	if i+4 > len(raw) || w == 0 || !plainTrailer(raw, i+4) {
		return 0, 0, false
	}
	return w, i + 4, true
}

// plainTrailer reports whether the sections after the question are
// ones the fast path may ignore: none at all, or a lone EDNS(0) OPT
// record (root owner, TYPE 41) that is fully present. Anything else,
// including header counts promising records that are missing, goes to
// the slow path, which validates every section through the codec.
func plainTrailer(raw []byte, qEnd int) bool {
	if raw[6]|raw[7]|raw[8]|raw[9]|raw[10] != 0 {
		return false
	}
	switch raw[11] {
	case 0:
		return true
	case 1:
		return qEnd+11 <= len(raw) && raw[qEnd] == 0 && raw[qEnd+1] == 0 && raw[qEnd+2] == 41 &&
			qEnd+11+int(binary.BigEndian.Uint16(raw[qEnd+9:])) <= len(raw)
	}
	return false
}

// appendEcho appends the response prefix: the query's header and
// question echoed byte-for-byte, with QR/AA set, opcode and RD
// preserved, counts fixed up, and the given rcode.
func appendEcho(dst, raw []byte, qEnd int, rcode uint8) []byte {
	n := len(dst)
	dst = append(dst, raw[:qEnd]...)
	dst[n+2] = 0x84 | raw[2]&0x79 // QR=1, AA=1, keep opcode+RD
	dst[n+3] = rcode & 0x0f
	dst[n+4], dst[n+5] = 0, 1 // QDCOUNT=1
	for i := n + 6; i < n+12; i++ {
		dst[i] = 0 // ANCOUNT/NSCOUNT/ARCOUNT
	}
	return dst
}

// answerPtr is the compression pointer to the question name at offset
// 12, the first byte after the header.
var answerPtr = [2]byte{0xc0, 0x0c}

// appendDNSName appends a dotted name in uncompressed wire form.
func appendDNSName(dst []byte, name string) []byte {
	for len(name) > 0 {
		label := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			name = ""
		}
		if len(label) == 0 || len(label) > 63 {
			continue // skip malformed labels; the terminator still lands
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0)
}

// buildSOA packs the zone's complete apex SOA resource record: owner
// (the zone name, uncompressed), TYPE SOA, CLASS IN, the negative TTL,
// and RDATA with MINIMUM also set to the negative TTL per RFC 2308.
// Refresh/retry/expire are conventional secondary-transfer values; the
// record is static, so it packs once and appends verbatim per answer.
func buildSOA(suffix string, soa *SOAConfig, negTTL time.Duration) []byte {
	ttl := uint32(negTTL / time.Second)
	rr := appendDNSName(nil, suffix)
	rr = append(rr,
		0, byte(dnsbl.TypeSOA), // TYPE
		0, 1, // CLASS IN
		byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl))
	rdStart := len(rr)
	rr = append(rr, 0, 0) // RDLENGTH placeholder
	rr = appendDNSName(rr, soa.MName)
	rr = appendDNSName(rr, soa.RName)
	for _, v := range [5]uint32{soa.Serial, 3600, 900, 604800, ttl} {
		rr = append(rr, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	rdlen := len(rr) - rdStart - 2
	rr[rdStart] = byte(rdlen >> 8)
	rr[rdStart+1] = byte(rdlen)
	return rr
}

// appendA appends the conventional listed answer (127.0.0.2) as one A
// record pointing back at the question name, and bumps ANCOUNT. start
// is the offset in dst where this response's header begins.
func (r *Responder) appendA(dst []byte, start int, z *zone) []byte {
	dst = append(dst, answerPtr[0], answerPtr[1],
		0, 1, // TYPE A
		0, 1, // CLASS IN
		byte(z.ttl>>24), byte(z.ttl>>16), byte(z.ttl>>8), byte(z.ttl),
		0, 4,
		dnsbl.ListedAddress[0], dnsbl.ListedAddress[1], dnsbl.ListedAddress[2], dnsbl.ListedAddress[3])
	dst[start+7] = 1 // ANCOUNT=1
	return dst
}

// appendTXT appends the listing reason as one TXT record and bumps
// ANCOUNT. The reason matches dnsbl.FeedZone's text: "listed
// <RFC3339> by <feed>", or plain "listed" when the feed is unnamed.
// start is the offset in dst where this response's header begins.
func (r *Responder) appendTXT(dst []byte, start int, z *zone, e entry) []byte {
	r.scratch = append(r.scratch[:0], "listed"...)
	if feed := z.feedName(e.feed); feed != "" {
		r.scratch = append(r.scratch, ' ')
		r.scratch = time.Unix(e.firstUnix, 0).UTC().AppendFormat(r.scratch, time.RFC3339)
		r.scratch = append(r.scratch, " by "...)
		r.scratch = append(r.scratch, feed...)
	}
	dst = append(dst, answerPtr[0], answerPtr[1],
		0, 16, // TYPE TXT
		0, 1, // CLASS IN
		byte(z.ttl>>24), byte(z.ttl>>16), byte(z.ttl>>8), byte(z.ttl))
	// RDATA: length-prefixed character strings (reasons are short, but
	// split correctly anyway).
	rdStart := len(dst)
	dst = append(dst, 0, 0) // RDLENGTH placeholder
	text := r.scratch
	for len(text) > 255 {
		dst = append(dst, 255)
		dst = append(dst, text[:255]...)
		text = text[255:]
	}
	dst = append(dst, byte(len(text)))
	dst = append(dst, text...)
	rdlen := len(dst) - rdStart - 2
	dst[rdStart] = byte(rdlen >> 8)
	dst[rdStart+1] = byte(rdlen)
	dst[start+7] = 1 // ANCOUNT=1
	return dst
}
