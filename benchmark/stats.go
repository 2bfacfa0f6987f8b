package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be ascending: the smallest sample with at least q of the
// samples at or below it. It is exact (no interpolation, no buckets) so a
// reported p90 is always a latency that was actually observed. An empty
// input reads 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// median is the middle of xs (mean of the two middles for an even count),
// the value every metric reports over its rounds. Empty reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the rule
// Python's statistics.quantiles(xs, n=4) uses (the "exclusive" method:
// position i*(n+1)/4, linear between neighbours), so spreads computed
// here match the ones the acceptance check computes. Fewer than two
// values have no spread: both quartiles read the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(3)
}

// iqrFrac is the interquartile distance of xs as a share of its median —
// the run-to-run (or round-to-round) spread the bounds are judged against.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
