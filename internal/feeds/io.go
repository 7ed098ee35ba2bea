package feeds

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// The TSV serialization format:
//
//	#feed <name>\t<kind>\t<hasVolume>\t<urls>
//	<domain>\t<count>\t<firstRFC3339>\t<lastRFC3339>\t<sampleURL>
//	...
//
// One aggregate row per domain, sorted, making files diffable across
// runs. cmd/feedgen writes this format and cmd/feedstats reads it.

// kindNames maps Kind values to their serialization tokens.
var kindNames = map[Kind]string{
	KindHuman:        "human",
	KindBlacklist:    "blacklist",
	KindMXHoneypot:   "mx",
	KindHoneyAccount: "account",
	KindBotnet:       "botnet",
	KindHybrid:       "hybrid",
}

// kindFromName is the inverse of kindNames.
func kindFromName(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return k, true
		}
	}
	return 0, false
}

// WriteTSV serializes the feed.
func (f *Feed) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#feed %s\t%s\t%t\t%t\n", f.Name, kindNames[f.Kind], f.HasVolume, f.URLs)
	for _, ri := range f.sortedRows() {
		r := &f.rows[ri]
		fmt.Fprintf(bw, "%s\t%d\t%s\t%s\t%s\n",
			f.syms.Lookup(r.d), r.count,
			time.Unix(0, r.first).UTC().Format(time.RFC3339Nano),
			time.Unix(0, r.last).UTC().Format(time.RFC3339Nano),
			f.syms.Lookup(r.url))
	}
	return bw.Flush()
}

// DuplicateError reports a domain that appears on two rows of one
// serialized feed; a feed holds one aggregate row per domain.
type DuplicateError struct {
	// Line is the 1-based line of the second row.
	Line int
	// Domain is the repeated domain, as written.
	Domain string
}

func (e *DuplicateError) Error() string {
	return fmt.Sprintf("feeds: line %d: duplicate domain %s", e.Line, e.Domain)
}

// ReadTSV deserializes a feed written by WriteTSV.
func ReadTSV(r io.Reader) (*Feed, error) {
	ts, err := NewTSVScanner(r)
	if err != nil {
		return nil, err
	}
	h := ts.Header
	f := New(h.Name, h.Kind, h.HasVolume, h.URLs)
	for ts.Scan() {
		tr := ts.Row()
		d := f.syms.InternBytes(tr.Domain)
		if f.rowOf(d) != nil {
			return nil, &DuplicateError{Line: tr.Line, Domain: string(tr.Domain)}
		}
		f.addRow(row{
			d:     d,
			url:   f.syms.InternBytes(tr.URL),
			count: tr.Count,
			first: tr.First,
			last:  tr.Last,
		})
		f.samples += tr.Count
	}
	if err := ts.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// TSVHeader is a serialized feed's metadata line.
type TSVHeader struct {
	Name      string
	Kind      Kind
	HasVolume bool
	URLs      bool
}

// TSVRow is one aggregate row of a serialized feed. Domain and URL
// alias the scanner's buffer and stay valid only until the next Scan.
type TSVRow struct {
	// Line is the row's 1-based line number in the input.
	Line        int
	Domain, URL []byte
	Count       int64
	// First and Last are the observation bounds, UnixNano.
	First, Last int64
}

// TSVScanner reads a feed written by WriteTSV one row at a time,
// without building a Feed. It is the one TSV parser: ReadTSV is this
// scanner plus interning, and the DNSBL plane loads zones straight
// from it. Every row is checked as it is read — five tab-separated
// fields, a count of at least one, RFC 3339 first and last times, last
// not before first — and blank lines are skipped. A domain repeated
// across rows is the caller's check, since the caller owns the index
// (ReadTSV reports it as a DuplicateError).
type TSVScanner struct {
	// Header is the feed's metadata, parsed by NewTSVScanner.
	Header TSVHeader

	sc   *bufio.Scanner
	line int
	row  TSVRow
	err  error
}

// NewTSVScanner reads and validates the header line.
func NewTSVScanner(r io.Reader) (*TSVScanner, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("feeds: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "#feed ") {
		return nil, fmt.Errorf("feeds: bad header %q", header)
	}
	parts := strings.Split(strings.TrimPrefix(header, "#feed "), "\t")
	if len(parts) != 4 {
		return nil, fmt.Errorf("feeds: bad header field count %d", len(parts))
	}
	kind, ok := kindFromName(parts[1])
	if !ok {
		return nil, fmt.Errorf("feeds: unknown kind %q", parts[1])
	}
	hasVolume, err := strconv.ParseBool(parts[2])
	if err != nil {
		return nil, fmt.Errorf("feeds: bad hasVolume: %w", err)
	}
	urls, err := strconv.ParseBool(parts[3])
	if err != nil {
		return nil, fmt.Errorf("feeds: bad urls flag: %w", err)
	}
	return &TSVScanner{
		Header: TSVHeader{Name: parts[0], Kind: kind, HasVolume: hasVolume, URLs: urls},
		sc:     sc,
		line:   1,
	}, nil
}

// Scan advances to the next row, reporting false at the end of the
// input or at the first malformed row (see Err).
func (s *TSVScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		line := s.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		s.err = s.parse(line)
		return s.err == nil
	}
	s.err = s.sc.Err()
	return false
}

// Row returns the row the last successful Scan read.
func (s *TSVScanner) Row() *TSVRow { return &s.row }

// Err returns the first read or format error, or nil at a clean end of
// input.
func (s *TSVScanner) Err() error { return s.err }

// parse splits one non-blank line into s.row.
func (s *TSVScanner) parse(line []byte) error {
	var fields [5][]byte
	n := 0
	for {
		i := bytes.IndexByte(line, '\t')
		if i < 0 {
			break
		}
		if n < len(fields)-1 {
			fields[n] = line[:i]
		}
		n++
		line = line[i+1:]
	}
	if n != len(fields)-1 {
		return fmt.Errorf("feeds: line %d: want 5 fields, got %d", s.line, n+1)
	}
	fields[4] = line
	count, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil || count < 1 {
		return fmt.Errorf("feeds: line %d: bad count %q", s.line, fields[1])
	}
	first, err := time.Parse(time.RFC3339Nano, string(fields[2]))
	if err != nil {
		return fmt.Errorf("feeds: line %d: bad first time: %w", s.line, err)
	}
	last, err := time.Parse(time.RFC3339Nano, string(fields[3]))
	if err != nil {
		return fmt.Errorf("feeds: line %d: bad last time: %w", s.line, err)
	}
	if last.Before(first) {
		return fmt.Errorf("feeds: line %d: last before first", s.line)
	}
	s.row = TSVRow{
		Line:   s.line,
		Domain: fields[0],
		URL:    fields[4],
		Count:  count,
		First:  first.UnixNano(),
		Last:   last.UnixNano(),
	}
	return nil
}
