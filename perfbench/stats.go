package main

import (
	"math"
	"sort"
	"time"
)

// summary is one metric's sample statistics. The quartiles use the
// exclusive method (Python's statistics.quantiles default), so a report
// reads the same as an external analysis of the same samples.
type summary struct {
	Unit string `json:"unit"`
	// Value is the reported figure: the median, or a tail percentile.
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarize returns the statistics of xs (which it does not modify).
func summarize(unit string, xs []float64) summary {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return summary{Unit: unit}
	}
	out := summary{Unit: unit, N: n, Median: median(s), Min: s[0], Max: s[n-1]}
	out.Value = out.Median
	out.Q1, out.Q3 = s[0], s[0]
	if n >= 2 {
		out.Q1 = exclusiveQuartile(s, 1)
		out.Q3 = exclusiveQuartile(s, 3)
	}
	return out
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// exclusiveQuartile is quartile i (1..3) of an ascending slice of at
// least two values, by statistics.quantiles(s, n=4) with its clamping.
func exclusiveQuartile(s []float64, i int) float64 {
	ld := len(s)
	m := ld + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// percentile interpolates the p-th quantile (0..1) of xs linearly
// between closest ranks. Tail percentiles are reported only where at
// least ten samples lie beyond them.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// scaled converts durations to floats in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}
