package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the rule the pipeline applies to this benchmark's own outputs.
// With fewer than two samples both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on the 1-based sorted list; j is clamped to
		// 1..n-1 before delta is taken, exactly as the Python source does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tailRule is the guide's percentile rule: the highest percentile that
// still has at least ten samples beyond it. With n samples that is the
// value at sorted index n-11, the (n-10)/n quantile. Below eleven samples
// no percentile qualifies; the maximum is returned with pct 100 and
// ok=false so the caller can print that the tail is not resolved.
func tailRule(xs []float64) (value, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), 0, false
	}
	if n < 11 {
		return s[n-1], 100, false
	}
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
