package dnsblplane

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"tasterschoice/internal/feeds"
)

// LoadTSV bulk-loads a feed serialized by feeds.WriteTSV into a zone,
// returning the number of rows read. It indexes what
// LoadFeed(feeds.ReadTSV(r)) would, without building the Feed: rows
// stream from a feeds.TSVScanner into per-shard slices, every key is
// copied once into a shared arena, each shard's map is built once at
// its final size, and sample URLs are never kept. Input ReadTSV
// rejects fails with ReadTSV's error, and then nothing is published.
// The header's feed name is the TXT attribution; name stands in for
// a header that carries none.
func (p *Plane) LoadTSV(zoneSuffix string, r io.Reader, name string) (int, error) {
	z, err := p.zoneFor(zoneSuffix)
	if err != nil {
		return 0, err
	}
	ts, err := feeds.NewTSVScanner(r)
	if err != nil {
		return 0, err
	}
	if ts.Header.Name != "" {
		name = ts.Header.Name
	}
	fi := z.feedIndex(name)
	var (
		b     = z.newBatch()
		arena nameArena
		rows  int
		// written holds, by line, each row's domain as written where it
		// differs from its key. Only such rows can repeat a key without
		// repeating a domain, which ReadTSV allows.
		written map[int]string
		// blank marks the rows seen with domain "" and "." (by length).
		// Both have the empty key, which is never indexed.
		blank   [2]bool
		scanErr error
	)
	for ts.Scan() {
		row := ts.Row()
		rows++
		k, same := keyBytes(row.Domain)
		if len(k) == 0 {
			if blank[len(row.Domain)] {
				scanErr = &feeds.DuplicateError{Line: row.Line, Domain: string(row.Domain)}
				break
			}
			blank[len(row.Domain)] = true
			continue
		}
		if !same {
			if written == nil {
				written = make(map[int]string)
			}
			written[row.Line] = string(row.Domain)
		}
		b.add(listing{
			name:      arena.add(k),
			firstUnix: time.Unix(0, row.First).Unix(),
			line:      row.Line,
			feed:      fi,
		})
	}
	if scanErr == nil {
		scanErr = ts.Err()
	}
	// A scan stops at its first bad row, so every duplicate among the
	// rows before it comes first in the input, as ReadTSV reports it.
	maps, repeats := b.fold()
	if dup := b.firstDuplicate(repeats, written); dup != nil {
		return 0, dup
	}
	if scanErr != nil {
		return 0, scanErr
	}
	p.commit(b, maps, rows)
	return rows, nil
}

// batch gathers one zone's normalized listings per shard, so that each
// shard publishes once per batch.
type batch struct {
	z      *zone
	shards [][]listing
}

func (z *zone) newBatch() *batch {
	return &batch{z: z, shards: make([][]listing, len(z.shards))}
}

// add routes a listing to its shard. Slices double as they grow
// (append grows large slices by only a quarter), so a bulk load copies
// each listing about once.
func (b *batch) add(l listing) {
	si := shardOf(l.name, b.z.mask)
	ls := b.shards[si]
	if len(ls) == cap(ls) {
		ls = slices.Grow(ls, max(len(ls), 16))
	}
	b.shards[si] = append(ls, l)
}

// fold builds every shard's batch map. repeats lists the shards in
// which some key came more than once.
func (b *batch) fold() (maps []map[string]entry, repeats []int) {
	maps = make([]map[string]entry, len(b.shards))
	for si, ls := range b.shards {
		var rep bool
		maps[si], rep = fold(ls)
		if rep {
			repeats = append(repeats, si)
		}
	}
	return maps, repeats
}

// firstDuplicate returns the error ReadTSV reports for the earliest
// row that repeats a domain as written, looking only in the given
// shards (a repeated domain repeats its key, in its key's shard);
// written maps lines to domains that differ from their keys. Nil when
// no domain repeats.
func (b *batch) firstDuplicate(shards []int, written map[int]string) *feeds.DuplicateError {
	var first *feeds.DuplicateError
	for _, si := range shards {
		seen := make(map[string]bool, len(b.shards[si]))
		for _, l := range b.shards[si] {
			d, ok := written[l.line]
			if !ok {
				d = l.name
			}
			if seen[d] {
				if first == nil || l.line < first.Line {
					first = &feeds.DuplicateError{Line: l.line, Domain: d}
				}
				break
			}
			seen[d] = true
		}
	}
	return first
}

// commit publishes a folded batch, one snapshot swap per shard, and
// counts it as one reload batch of the given number of records.
func (p *Plane) commit(b *batch, maps []map[string]entry, records int) {
	for si, m := range maps {
		b.z.shards[si].merge(m)
	}
	p.Metrics.ReloadBatches.Inc()
	p.Metrics.ReloadRecords.Add(int64(records))
}

// key normalizes a domain or zone name to its index form: lowercased,
// without one trailing dot.
func key(name string) string {
	return strings.ToLower(strings.TrimSuffix(name, "."))
}

// keyBytes is key over bytes, and reports whether the key equals the
// domain as written. The common all-lowercase ASCII domain is its own
// key and costs no copy.
func keyBytes(domain []byte) (k []byte, same bool) {
	d := domain
	if n := len(d); n > 0 && d[n-1] == '.' {
		d = d[:n-1]
	}
	upper := false
	for _, c := range d {
		if c >= utf8.RuneSelf {
			k = []byte(key(string(domain)))
			return k, bytes.Equal(k, domain)
		}
		upper = upper || 'A' <= c && c <= 'Z'
	}
	if !upper {
		return d, len(d) == len(domain)
	}
	k = bytes.Clone(d)
	for i, c := range k {
		if 'A' <= c && c <= 'Z' {
			k[i] = c + 'a' - 'A'
		}
	}
	return k, false
}

// arenaChunk is the size of one name-arena string.
const arenaChunk = 32 << 10

// nameArena packs keys into a few large strings, so a zone of N names
// costs a handful of allocations rather than N. A strings.Builder never
// rewrites bytes it has written, so a key sliced from String() stays
// valid while later keys are appended.
type nameArena struct{ b strings.Builder }

// add copies k into the arena and returns it as a string.
func (a *nameArena) add(k []byte) string {
	if a.b.Cap()-a.b.Len() < len(k) {
		a.b = strings.Builder{}
		a.b.Grow(max(arenaChunk, len(k)))
	}
	start := a.b.Len()
	a.b.Write(k)
	return a.b.String()[start:]
}
