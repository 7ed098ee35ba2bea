package dnsbl

import (
	"strings"
	"time"

	"tasterschoice/internal/domain"
	"tasterschoice/internal/feeds"
)

// ListedAddress is the conventional "listed" answer for domain
// blacklists (127.0.0.2).
var ListedAddress = [4]byte{127, 0, 0, 2}

// Zone answers listing queries for a set of domains. Implementations
// must be safe for concurrent use.
type Zone interface {
	// Listed reports whether d is on the list; reason is included in
	// TXT answers when non-empty.
	Listed(d domain.Name) (listed bool, reason string)
}

// FeedZone adapts a feeds.Feed into a Zone — serving a blacklist feed
// the way its operator would.
type FeedZone struct {
	Feed *feeds.Feed
}

// Listed implements Zone.
func (z FeedZone) Listed(d domain.Name) (bool, string) {
	s, ok := z.Feed.Stat(d)
	if !ok {
		return false, ""
	}
	return true, "listed " + s.First.UTC().Format(time.RFC3339) + " by " + z.Feed.Name
}

// StaticZone is a fixed set of listed domains, for tests and small
// deployments.
type StaticZone map[domain.Name]string

// Listed implements Zone.
func (z StaticZone) Listed(d domain.Name) (bool, string) {
	reason, ok := z[d]
	return ok, reason
}

// Handler answers DNSBL queries for a Zone under a zone suffix: a
// query for "<domain>.<suffix>" returns 127.0.0.2 when <domain> is
// listed and NXDOMAIN otherwise, matching rbldnsd-style DNSBL
// behaviour. It owns no sockets: it is the codec-per-query reference
// that internal/dnsblplane, the server, is held to by its parity tests,
// its differential fuzz target and the dnsbl_handle benchmark.
type Handler struct {
	// Suffix is the DNSBL zone ("dbl.example"), without trailing dot.
	Suffix string
	// Zone answers the listing queries.
	Zone Zone
	// TTL for positive answers (default 300s).
	TTL uint32
}

// NewHandler creates a handler for the zone suffix.
func NewHandler(suffix string, zone Zone) *Handler {
	return &Handler{Suffix: strings.ToLower(strings.TrimSuffix(suffix, ".")), Zone: zone, TTL: 300}
}

// Handle processes one raw DNS query and returns the raw response
// (nil to drop).
func (h *Handler) Handle(raw []byte) []byte {
	query, err := Unpack(raw)
	if err != nil || query.Header.Response {
		return nil // not a query we can answer; drop
	}
	resp := &Message{
		Header: Header{
			ID:               query.Header.ID,
			Response:         true,
			Opcode:           query.Header.Opcode,
			Authoritative:    true,
			RecursionDesired: query.Header.RecursionDesired,
		},
		Questions: query.Questions,
	}
	if len(query.Questions) != 1 || query.Header.Opcode != 0 {
		resp.Header.RCode = RCodeFormErr
		return mustPack(resp)
	}
	q := query.Questions[0]
	name := strings.ToLower(strings.TrimSuffix(q.Name, "."))
	suffix := "." + h.Suffix
	if !strings.HasSuffix(name, suffix) {
		resp.Header.RCode = RCodeRefused
		return mustPack(resp)
	}
	if q.Class != ClassIN {
		resp.Header.RCode = RCodeNXDomain
		return mustPack(resp)
	}
	queried := domain.Name(strings.TrimSuffix(name, suffix))
	listed, reason := h.Zone.Listed(queried)
	if !listed {
		resp.Header.RCode = RCodeNXDomain
		return mustPack(resp)
	}
	switch q.Type {
	case TypeA:
		resp.Answers = append(resp.Answers, ARecord(q.Name, h.TTL,
			ListedAddress[0], ListedAddress[1], ListedAddress[2], ListedAddress[3]))
	case TypeTXT:
		if reason == "" {
			reason = "listed"
		}
		resp.Answers = append(resp.Answers, TXTRecord(q.Name, h.TTL, reason))
	default:
		// Listed, but no data of the requested type: NOERROR with an
		// empty answer section.
	}
	return mustPack(resp)
}

// mustPack serializes a response. DNS labels may legally contain
// bytes — including '.' — that cannot survive the dotted-string
// representation; if echoing the question back is impossible, degrade
// to a bare FORMERR with no question section rather than fail.
func mustPack(m *Message) []byte {
	b, err := m.Pack()
	if err == nil {
		return b
	}
	fallback := &Message{Header: m.Header}
	fallback.Header.RCode = RCodeFormErr
	b, err = fallback.Pack()
	if err != nil {
		// A question-less, answer-less message always packs.
		panic("dnsbl: packing empty response failed: " + err.Error())
	}
	return b
}
