package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending-sorted
// sample by linear interpolation between closest ranks; 0 for an empty
// sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// fastQuarter returns the mean of the fastest quarter (at least one) of an
// ascending-sorted sample of durations. On a shared box a neighbour's load
// only ever adds time, so the fast quarter is the part of a sample least
// disturbed by it: across runs it moves about half as much as the median.
func fastQuarter(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := max(1, len(sorted)/4)
	sum := 0.0
	for _, x := range sorted[:k] {
		sum += x
	}
	return sum / float64(k)
}

// dist is how every sampled metric is reported: the headline value, and
// the median, quartiles and size of the sample behind it.
type dist struct {
	Value            float64
	Median, P25, P75 float64
	N                int
}

// describe fills in everything but the headline from a sorted sample.
func describe(sorted []float64) dist {
	return dist{Median: quantile(sorted, 0.5), P25: quantile(sorted, 0.25), P75: quantile(sorted, 0.75), N: len(sorted)}
}

// summarize describes a sample whose headline is its median.
func summarize(xs []float64) dist {
	d := describe(sortedCopy(xs))
	d.Value = d.Median
	return d
}

// timing describes a sample of durations: its headline is the fast-quarter
// mean.
func timing(xs []float64) dist {
	s := sortedCopy(xs)
	d := describe(s)
	d.Value = fastQuarter(s)
	return d
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile of an unsorted sample.
func percentile(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) }

// stat is a dist for one statistic taken over n samples (a rate, a tail
// percentile, a difference of two headlines); point is one for a value
// measured once (a count, a peak).
func stat(v float64, n int) dist { return dist{Value: v, Median: v, P25: v, P75: v, N: n} }
func point(v float64) dist       { return stat(v, 1) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mapF applies f to every element of xs.
func mapF[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
