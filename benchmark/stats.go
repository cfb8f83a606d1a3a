package main

import (
	"slices"
)

// median returns the middle value of vals (the mean of the two middle
// values for an even count). It returns 0 for an empty slice.
func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile returns the p-quantile of vals by linear interpolation between
// the two nearest order statistics. It returns 0 for an empty slice.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	k := p * float64(len(s)-1)
	i := int(k)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := k - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// quartiles returns the first and third quartile of vals exactly as
// Python's statistics.quantiles(vals, n=4) does (the exclusive method),
// which is what the benchmark driver computes spreads with. With fewer
// than two values both quartiles are the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// collect maps items to the number get extracts from each.
func collect[T any](items []T, get func(T) float64) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = get(it)
	}
	return out
}
