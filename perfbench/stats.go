package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// pctl is quantile(xs, q) on a copy, leaving xs untouched.
func pctl(xs []float64, q float64) float64 {
	return quantile(append([]float64(nil), xs...), q)
}

// median is pctl(xs, 0.5).
func median(xs []float64) float64 { return pctl(xs, 0.5) }

// ratio divides a by b, returning 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
