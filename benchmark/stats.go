package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []int{99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer the value is set by a handful of outliers and does
// not repeat between runs.
const minBeyond = 10

// pickTail returns the highest of p99/p95/p90 that has at least minBeyond
// of the n samples beyond it, or 0 when even p90 does not (fewer than 100
// samples): the caller then has no tail to report.
func pickTail(n int) int {
	for _, p := range tailPercentiles {
		if float64(n)*float64(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(p) / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median — the steadiness measure the acceptance
// check uses. The quartiles follow Python's statistics.quantiles(xs, n=4)
// (exclusive method), so the number printed here is the number the driver
// computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
