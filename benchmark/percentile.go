package main

import (
	"math"
	"sort"
)

// tailSupport is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one or two outliers, not a tail.
const tailSupport = 10

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supports reports whether at least beyond of n samples lie past the
// q-quantile.
func supports(n int, q float64, beyond int) bool {
	return n-int(math.Ceil(q*float64(n))) >= beyond
}

// highestTail picks the highest of the usual tail percentiles that n samples
// support, or 0.5 when even p90 has too few samples beyond it.
func highestTail(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90} {
		if supports(n, q, tailSupport) {
			return q
		}
	}
	return 0.5
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
