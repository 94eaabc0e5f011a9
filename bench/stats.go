package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a percentile before
// it is trusted as a tail figure (choosing-metrics guide, section 1).
const tailBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p % of the samples at or below
// it. xs need not be sorted and is not modified. Empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// samplesBeyond reports how many of n samples rank strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailTrusted reports whether the p-th percentile of n samples has the
// required tailBeyond samples beyond it.
func tailTrusted(n int, p float64) bool { return samplesBeyond(n, p) >= tailBeyond }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) does (exclusive method),
// because that is how the A/A spread is judged. It needs at least two
// samples; fewer give the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)-j*4) / 4
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
