package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method, which
// interpolates between ranks and extrapolates for tiny samples).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return median(xs), median(xs)
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailPercentiles are the candidate tail percentiles, lowest first.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples strictly beyond its nearest-rank value, and that
// value. ok is false when no candidate qualifies (fewer than about
// twenty samples).
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			break
		}
		// Samples tied with the percentile's value are not beyond it.
		above := sort.Search(n, func(i int) bool { return s[i] > s[idx] })
		if n-above < 10 {
			break
		}
		pct, value, ok = p, s[idx], true
	}
	return pct, value, ok
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
