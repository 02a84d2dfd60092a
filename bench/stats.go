package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an even
// count); it does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) gives them,
// which is how the builder contract measures spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// span is one timed interval at a layer boundary. parent is an index into
// the same slice (-1 for a root); spans of one query share its id.
type span struct {
	name       string
	query      int
	parent     int
	start, end int64 // ns since the trace began
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, reach int64
		reach = s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = (s.end - s.start) - covered
	}
	return out
}
