package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rank is the 0-based nearest-rank index of quantile q in n sorted samples.
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n)))-1, 0)
}

// percentile returns the q-quantile of xs (nearest rank), refusing when
// fewer than minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", 100*q)
	}
	k := rank(q, n)
	if beyond := n - 1 - k; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	return sortedCopy(xs)[k], nil
}

// median is the middle sample (the mean of the two middle ones for even n).
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
