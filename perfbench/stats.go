package main

import (
	"math"
	"sort"
)

// quantile is one order statistic together with the number of samples
// it was taken over, so no figure is ever quoted without its base.
type quantile struct {
	Q     float64 // requested quantile in [0, 1]
	Value float64
	N     int // sample count
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the two middle values
// for an even count); NaN for an empty sample.
func median(xs []float64) quantile {
	q := quantile{Q: 0.5, N: len(xs), Value: math.NaN()}
	if len(xs) == 0 {
		return q
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		q.Value = s[m]
	} else {
		q.Value = (s[m-1] + s[m]) / 2
	}
	return q
}

// percentile returns the nearest-rank q-quantile: the smallest sample
// with at least ⌈q·N⌉ samples at or below it. NaN for an empty sample.
func percentile(xs []float64, q float64) quantile {
	out := quantile{Q: q, N: len(xs), Value: math.NaN()}
	if len(xs) == 0 {
		return out
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	out.Value = s[rank-1]
	return out
}
