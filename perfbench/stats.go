package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a reported
// tail percentile, so the tail is a measured order statistic rather than
// an extrapolation from one or two outliers.
const tailBeyond = 10

// tailPercentile returns the highest whole percentile p of n samples that
// still leaves at least tailBeyond samples strictly beyond its
// nearest-rank position, and that position (0-based, in sorted order).
// ok is false when n is too small for any percentile above the
// median to qualify: such a "tail" would be the median itself.
func tailPercentile(n int) (p, rank int, ok bool) {
	for p = 99; p > 50; p-- {
		rank = nearestRank(p, n)
		if n-1-rank >= tailBeyond {
			return p, rank, true
		}
	}
	return 0, 0, false
}

// tail applies the tailPercentile rule to samples: the tail value, its
// percentile and the number of samples beyond it.
func tail(samples []float64) (v float64, p, beyond int, ok bool) {
	p, rank, ok := tailPercentile(len(samples))
	if !ok {
		return 0, 0, 0, false
	}
	return sortedCopy(samples)[rank], p, len(samples) - 1 - rank, true
}

// nearestRank returns the 0-based index of the p-th percentile of n
// sorted samples under the nearest-rank definition: the smallest index
// whose cumulative share reaches p%.
func nearestRank(p, n int) int {
	r := (p*n + 99) / 100 // ceil(p·n/100)
	if r < 1 {
		r = 1
	}
	return r - 1
}

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
