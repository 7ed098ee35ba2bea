package main

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

const (
	typeA   = 1
	typeTXT = 16
)

// appendQuery packs one recursion-desired IN query for name.zone.
func appendQuery(dst []byte, id uint16, name, zone string, qtype uint16) []byte {
	dst = append(dst, byte(id>>8), byte(id), 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0)
	dst = appendLabels(dst, name)
	dst = appendLabels(dst, zone)
	return append(dst, 0, byte(qtype>>8), byte(qtype), 0, 1)
}

func appendLabels(dst []byte, name string) []byte {
	for name != "" {
		label, rest, _ := strings.Cut(name, ".")
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
		name = rest
	}
	return dst
}

// expectation is what the feed oracle allows an answer to say.
type expectation uint8

const (
	mustList   expectation = iota // listed before the query was sent
	mustNot                       // never listed while the query was in flight
	eitherList                    // listed state may change mid-flight
)

// listing is one zone entry as the oracle knows it.
type listing struct {
	first int64 // unix seconds
	feed  string
}

// reason is the TXT text the plane must give for a listing.
func (l listing) reason() string {
	return "listed " + time.Unix(l.first, 0).UTC().Format(time.RFC3339) + " by " + l.feed
}

var errShed = errors.New("shed")

// checkAnswer validates resp against the query req and the oracle's
// expectation. It reports whether the answer says "listed". A
// header-only REFUSED/SERVFAIL is an overload shed (errShed).
func checkAnswer(req, resp []byte, qtype uint16, want expectation, l listing) (bool, error) {
	if len(resp) < 12 {
		return false, fmt.Errorf("short response (%d bytes)", len(resp))
	}
	if resp[0] != req[0] || resp[1] != req[1] {
		return false, errors.New("ID mismatch")
	}
	if resp[2]&0x80 == 0 {
		return false, errors.New("QR not set")
	}
	rcode := resp[3] & 0x0f
	if len(resp) == 12 && (rcode == 5 || rcode == 2) {
		return false, errShed
	}
	if len(resp) < len(req) || string(resp[12:len(req)]) != string(req[12:]) {
		return false, errors.New("question echo mismatch")
	}
	if rcode != 0 && rcode != 3 {
		return false, fmt.Errorf("unexpected rcode %d", rcode)
	}
	listed := rcode == 0
	switch {
	case listed && want == mustNot:
		return true, errors.New("listed answer for an unlisted name")
	case !listed && want == mustList:
		return false, errors.New("NXDOMAIN for a listed name")
	case !listed:
		return false, nil
	}
	ancount := int(resp[6])<<8 | int(resp[7])
	if ancount != 1 {
		return true, fmt.Errorf("listed answer with ancount=%d", ancount)
	}
	switch qtype {
	case typeA:
		a := resp[len(resp)-4:]
		if a[0] != 127 || a[1] != 0 || a[2] != 0 || a[3] != 2 {
			return true, fmt.Errorf("A answer %d.%d.%d.%d", a[0], a[1], a[2], a[3])
		}
	case typeTXT:
		got, ok := txtData(resp, len(req))
		if !ok {
			return true, errors.New("TXT answer unparseable")
		}
		if want := l.reason(); string(got) != want {
			return true, fmt.Errorf("TXT %q, oracle %q", got, want)
		}
	}
	return true, nil
}

// txtData concatenates the character strings of the single answer
// record that follows the echoed question ending at qEnd.
func txtData(resp []byte, qEnd int) ([]byte, bool) {
	i := qEnd
	if i+2 > len(resp) {
		return nil, false
	}
	if resp[i]&0xc0 == 0xc0 {
		i += 2
	} else {
		for i < len(resp) && resp[i] != 0 {
			i += 1 + int(resp[i])
		}
		i++
	}
	if i+10 > len(resp) {
		return nil, false
	}
	rdlen := int(resp[i+8])<<8 | int(resp[i+9])
	i += 10
	if rdlen == 0 || i+rdlen > len(resp) {
		return nil, false
	}
	var out []byte
	for j := i; j < i+rdlen; {
		l := int(resp[j])
		j++
		if j+l > i+rdlen {
			return nil, false
		}
		out = append(out, resp[j:j+l]...)
		j += l
	}
	return out, true
}
