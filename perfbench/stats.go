package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// latencySummary condenses per-query latencies (ns from the scheduled
// send time; negative = no answer) into the median over fixed-size
// windows of each window's p50 and p99. An unanswered query counts as
// +Inf: it misses every latency limit. Each window holds window
// samples, so its p99 has at least window/100 samples beyond it; the
// median over windows keeps one stalled window from deciding the run.
type latencySummary struct {
	P50us, P99us float64
	Windows      int
}

func summarizeLatency(lat []int64, window int) latencySummary {
	var p50s, p99s []float64
	buf := make([]float64, 0, window)
	for start := 0; start+window <= len(lat); start += window {
		buf = buf[:0]
		for _, ns := range lat[start : start+window] {
			if ns < 0 {
				buf = append(buf, math.Inf(1))
			} else {
				buf = append(buf, float64(ns)/1e3)
			}
		}
		sort.Float64s(buf)
		p50s = append(p50s, quantile(buf, 0.50))
		p99s = append(p99s, quantile(buf, 0.99))
	}
	return latencySummary{
		P50us:   median(p50s),
		P99us:   median(p99s),
		Windows: len(p50s),
	}
}

// percentileOf returns the q-quantile of xs (unsorted; copied).
func percentileOf(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
