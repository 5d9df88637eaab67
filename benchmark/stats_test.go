package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3372, 3980, 3986, 4036, 4075, 4148, 4231, 4569}, 3981.5, 4210.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{2, 4, 9}, 2, 9},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if q1, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("one value: %v, %v", q1, q3)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 99: 10, 10: 1, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}
