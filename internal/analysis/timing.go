package analysis

import (
	"time"

	"tasterschoice/internal/bitset"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/parallel"
	"tasterschoice/internal/stats"
	"tasterschoice/internal/symtab"
)

// TimingRow is one feed's boxplot in Figures 9-12.
type TimingRow struct {
	Name string
	// Summary is over the per-domain time differences, in hours.
	Summary stats.Summary
}

// Fig9Feeds are the feeds compared in Figure 9 (all except Bot, whose
// domains barely intersect the others').
func Fig9Feeds(ds *Dataset) []string {
	var out []string
	for _, name := range ds.Result.Order {
		if name != "Bot" {
			out = append(out, name)
		}
	}
	return out
}

// HoneypotFeeds are the five honeypot-style feeds (MX honeypots and
// honey accounts) used as the baseline in Figures 10-12 — the feeds
// whose last-appearance actually tracks when a spammer stopped sending.
var HoneypotFeeds = []string{"mx1", "mx2", "mx3", "Ac1", "Ac2"}

// FirstAppearance computes Figures 9 and 10: for each feed, the
// distribution of (first appearance in that feed − campaign start),
// where campaign start is the earliest appearance across all baseline
// feeds and domains are the tagged domains in the baseline feeds'
// intersection.
func FirstAppearance(ds *Dataset, feedNames []string) []TimingRow {
	return timingRows(ds, feedNames, func(start, _ time.Time, s feeds.DomainStat) time.Duration {
		return s.First.Sub(start)
	})
}

// LastAppearance computes Figure 11: (campaign end − last appearance in
// the feed) over the honeypot feeds' shared tagged domains, where
// campaign end is the latest appearance across those same feeds.
func LastAppearance(ds *Dataset, feedNames []string) []TimingRow {
	return timingRows(ds, feedNames, func(_, end time.Time, s feeds.DomainStat) time.Duration {
		return end.Sub(s.Last)
	})
}

// Duration computes Figure 12: (campaign duration − domain lifetime in
// the feed), where campaign duration spans the earliest first to the
// latest last appearance across the baseline feeds. The campaign
// duration is at least as long as any single feed's lifetime, so the
// differences are non-negative.
func Duration(ds *Dataset, feedNames []string) []TimingRow {
	return timingRows(ds, feedNames, func(start, end time.Time, s feeds.DomainStat) time.Duration {
		return end.Sub(start) - s.Last.Sub(s.First)
	})
}

// timingRows computes one row per feed over the tagged domains present
// in every one of the given feeds ("the intersection of the feeds").
// Each domain's campaign spans its earliest first to its latest last
// appearance across those feeds; delta maps the span and the domain's
// stat in one feed to that feed's time difference.
func timingRows(ds *Dataset, feedNames []string,
	delta func(start, end time.Time, s feeds.DomainStat) time.Duration) []TimingRow {
	var syms []symtab.ID
	if len(feedNames) > 0 {
		ix := ds.Index()
		tagged := make([]*bitset.Set, len(feedNames))
		for j, name := range feedNames {
			tagged[j] = ix.classFeed(ClassTagged, name)
		}
		tagged[0].Each(func(id int) {
			for _, b := range tagged[1:] {
				if !b.Has(id) {
					return
				}
			}
			syms = append(syms, ix.sym(id))
		})
	}
	start := make([]time.Time, len(syms))
	end := make([]time.Time, len(syms))
	for k, sym := range syms {
		for j, name := range feedNames {
			s, _ := ds.Feed(name).StatID(sym)
			if j == 0 || s.First.Before(start[k]) {
				start[k] = s.First
			}
			if j == 0 || s.Last.After(end[k]) {
				end[k] = s.Last
			}
		}
	}
	rows := make([]TimingRow, len(feedNames))
	parallel.ForEach(0, len(feedNames), func(i int) {
		f := ds.Feed(feedNames[i])
		var deltas []time.Duration
		for k, sym := range syms {
			s, _ := f.StatID(sym)
			deltas = append(deltas, delta(start[k], end[k], s))
		}
		rows[i] = TimingRow{Name: feedNames[i], Summary: stats.SummarizeDurations(deltas)}
	})
	return rows
}
