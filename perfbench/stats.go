package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// quantile returns the p-th percentile (p in [0, 100]) of xs by linear
// interpolation between the closest ranks; zero for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	idx := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	return xs[lo] + (xs[hi]-xs[lo])*(idx-float64(lo))
}

// median is quantile(xs, 50).
func median(xs []float64) float64 { return quantile(xs, 50) }

// mean is the arithmetic mean of xs; zero for an empty sample.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or zero when b is zero — per-layer shares of layers a
// workload never reaches read as 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is the result's name → figure map.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// counterDelta returns after[key] − before[key] for a monotone
// counter or histogram _sum/_count key of an engine metrics snapshot.
func counterDelta(before, after map[string]uint64, key string) float64 {
	return float64(after[key] - before[key])
}
