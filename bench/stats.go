package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

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
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads read the same here as in any script that checks a record.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile of xs that still has at least ten
// samples above it, with that percentile; with ten or fewer samples it
// returns the maximum.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN(), 0
	}
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}
