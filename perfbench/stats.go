package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts in
// place): the smallest sample with at least a q share of the samples at or
// below it. For n samples the p99 has n − ⌈0.99n⌉ samples beyond it, ten
// at n = 1,000.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// bitEqual reports whether got and want hold the same float64 bit
// patterns.
func bitEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// relErr returns ‖got − want‖∞ / max(‖want‖∞, tiny).
func relErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	diff, scale := 0.0, 0.0
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		scale = math.Max(scale, math.Abs(want[i]))
	}
	return diff / math.Max(scale, 1e-300)
}
