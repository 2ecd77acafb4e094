package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of the sorted, non-empty samples
// by nearest rank: the smallest sample with at least a q share of all
// samples at or below it. Every answer is a raw sample, never an
// interpolation or a bucket edge.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	// The epsilon keeps q*n from rounding up past an exact rank
	// (0.07*100 is 7.000000000000001 in float64).
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// sortedCopy returns the samples in ascending order, leaving xs as is.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// interval is a half-open span of time [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once: children of a sharded fan-out run in
// parallel, so their durations must not simply be summed.
func unionLen(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	curS, curE := int64(0), int64(0)
	open := false
	for _, iv := range clipped {
		if open && iv.start <= curE {
			curE = max(curE, iv.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = iv.start, iv.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals within it.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - unionLen(parent.start, parent.end, children)
}
