package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		got := median(tc.xs)
		if got.Value != tc.want || got.N != len(tc.xs) || got.Q != 0.5 {
			t.Errorf("median(%v) = %+v, want %v over %d", tc.xs, got, tc.want, len(tc.xs))
		}
	}
	if got := median(nil); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("median(nil) = %+v, want NaN over 0", got)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1},
	} {
		got := percentile(xs, tc.q)
		if got.Value != tc.want || got.N != 100 || got.Q != tc.q {
			t.Errorf("percentile(1..100, %v) = %+v, want %v over 100", tc.q, got, tc.want)
		}
	}
	if got := percentile([]float64{4, 2}, 0.9); got.Value != 4 || got.N != 2 {
		t.Errorf("percentile({4,2}, 0.9) = %+v, want 4 over 2", got)
	}
	if got := percentile(nil, 0.9); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("percentile(nil) = %+v, want NaN over 0", got)
	}
}
