package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 40}, 10, 40},
		{[]float64{7}, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); !math.IsNaN(m) {
		t.Errorf("empty median = %v, want NaN", m)
	}
}

// The percentile rule: p50 plus the highest percentile that still has ten
// samples beyond it.
func TestTailRule(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	v, pct, ok := tailRule(xs)
	if !ok || v != 90 || !near(pct, 90) {
		t.Errorf("n=100: got %v at p%v ok=%v; want 90 at p90", v, pct, ok)
	}
	v, pct, ok = tailRule(xs[:11]) // 100..90: one sample has ten beyond it
	if !ok || v != 90 || !near(pct, 100.0/11) {
		t.Errorf("n=11: got %v at p%v ok=%v; want the minimum at p9.09", v, pct, ok)
	}
	v, pct, ok = tailRule(xs[:10])
	if ok || v != 100 || pct != 100 {
		t.Errorf("n=10: got %v at p%v ok=%v; want the maximum, unresolved", v, pct, ok)
	}
	if _, _, ok := tailRule(nil); ok {
		t.Error("empty input resolved a tail")
	}
}
