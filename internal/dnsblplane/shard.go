package dnsblplane

import (
	"sync"
	"sync/atomic"
)

// entry is one listed domain in a shard snapshot. It is complete by
// construction: a domain is either absent or carries its full listing
// record (first-seen time and originating feed), so a reader can never
// observe a half-applied delta.
type entry struct {
	// firstUnix is the first-observation time, Unix seconds (what the
	// TXT reason reports, mirroring feeds.DomainStat.First).
	firstUnix int64
	// feed indexes the zone's feed-name table.
	feed uint16
}

// snapshot is one immutable generation of a shard's index. Readers
// load the snapshot pointer once and do every lookup against that
// consistent view; writers never mutate a published snapshot.
type snapshot struct {
	// entries maps lowercased registered-domain names to their listing.
	// A generation copied from the previous one reuses its key strings,
	// so every generation shares one backing copy of each name.
	entries map[string]entry
	// gen is the shard generation, bumped on every swap. The negative
	// cache keys its validity off this: a reload invalidates every
	// cached miss for the shard without touching the cache.
	gen uint64
}

// shard is one slice of a zone's index: an RCU-style atomically
// swapped snapshot plus the shard's negative-answer cache. Reads are
// lock-free (one atomic pointer load); writers serialize on mu, build
// a fresh map copy, and publish it with a single pointer store.
type shard struct {
	cur atomic.Pointer[snapshot]
	// mu serializes writers (delta application). Readers never take it.
	mu sync.Mutex
	// neg caches packed NXDOMAIN responses for this shard's names.
	neg negCache
}

// newShard returns a shard with an empty published snapshot.
func newShard(negSize int) *shard {
	sh := &shard{}
	sh.cur.Store(&snapshot{entries: map[string]entry{}})
	sh.neg.init(negSize)
	return sh
}

// load returns the current snapshot. Lock-free; the returned map is
// immutable.
func (sh *shard) load() *snapshot {
	return sh.cur.Load()
}

// listing is one normalized listing on its way into a shard.
type listing struct {
	// name is the index key (lowercased, no trailing dot).
	name      string
	firstUnix int64
	// line is the source line of a LoadTSV row, for its duplicate
	// report; 0 on the other write paths.
	line int
	feed uint16
}

// fold builds one shard's batch map from its listings. Within a batch
// the earliest listing wins, and of equally early ones the first, as
// if the listings were applied one at a time. repeats reports whether
// any name came more than once. An empty batch folds to a nil map.
func fold(ls []listing) (m map[string]entry, repeats bool) {
	if len(ls) == 0 {
		return nil, false
	}
	m = make(map[string]entry, len(ls))
	for _, l := range ls {
		if prev, dup := m[l.name]; dup {
			repeats = true
			if l.firstUnix >= prev.firstUnix {
				continue
			}
		}
		m[l.name] = entry{firstUnix: l.firstUnix, feed: l.feed}
	}
	return m, repeats
}

// merge publishes a new snapshot holding every existing entry plus the
// batch. Earliest listing wins: a domain already listed keeps whichever
// record carries the earlier first-seen time (the existing one on a
// tie), so applying records in any arrival order converges on the same
// index that feeds.Feed's min-time dedup would build. Into an empty
// shard the batch map is published as it is, so a bulk load builds
// each shard's map once, at its final size; otherwise the current map
// is copied. The whole batch becomes visible in one atomic swap: a
// concurrent reader sees either none of it or all of it, never a torn
// prefix. The caller must not touch batch afterwards.
func (sh *shard) merge(batch map[string]entry) {
	if len(batch) == 0 {
		return
	}
	sh.mu.Lock()
	old := sh.cur.Load()
	next := batch
	if len(old.entries) > 0 {
		next = make(map[string]entry, len(old.entries)+len(batch))
		for k, v := range old.entries {
			next[k] = v
		}
		for k, v := range batch {
			if prev, dup := next[k]; !dup || v.firstUnix < prev.firstUnix {
				next[k] = v
			}
		}
	}
	sh.cur.Store(&snapshot{entries: next, gen: old.gen + 1})
	sh.mu.Unlock()
}

// fnv1aOffset and fnv1aPrime are the 64-bit FNV-1a constants.
const (
	fnv1aOffset = 14695981039346656037
	fnv1aPrime  = 1099511628211
)

// shardOf hashes a (lowercased) domain name to its shard index with
// FNV-1a. The same function runs on the write path (over the
// normalized key) and the read path (over the normalized query bytes),
// so both sides always agree on placement. mask is shardCount-1
// (shard counts are powers of two).
func shardOf[T string | []byte](name T, mask uint32) uint32 {
	var h uint64 = fnv1aOffset
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnv1aPrime
	}
	return uint32(h) & mask
}
