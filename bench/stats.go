package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of vs (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first, second and third quartile of vs by the rule
// of Python's statistics.quantiles(vs, n=4) (the "exclusive" method), so
// -compare computes spreads exactly as the acceptance driver does. It needs
// at least two values; with fewer all three are the single value (or 0).
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile applies the reporting rule "the highest percentile with at
// least ten samples beyond it" to a sample count, choosing from ladder. It
// falls back to the median when even the lowest rung has fewer than ten
// samples beyond it.
func tailPercentile(n int, ladder []float64) float64 {
	for _, p := range ladder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// inUnits converts durations to ascending-sorted multiples of unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}
