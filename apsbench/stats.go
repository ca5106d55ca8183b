package main

import (
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{99.9, 99, 90, 50}

// tailLevel applies the reporting rule for tails: the highest percentile with
// at least ten samples beyond it. ok is false when n is too small for any
// level (fewer than 20 samples).
func tailLevel(n int) (level float64, ok bool) {
	for _, p := range tailLevels {
		// Rounded so that 1000 samples qualify for p99 despite float error.
		if math.Round(float64(n)*(100-p)/100*1e6)/1e6 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest value with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(math.Round(p/100*float64(len(sorted))*1e6) / 1e6))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail reports the tail of xs by the tailLevel rule; below 20 samples it
// falls back to the maximum, and level reads 100.
func tail(xs []float64) (value, level float64) {
	s := sortedCopy(xs)
	if p, ok := tailLevel(len(s)); ok {
		return percentile(s, p), p
	}
	if len(s) == 0 {
		return 0, 100
	}
	return s[len(s)-1], 100
}

// segmented splits xs, in the order the samples were taken, into parts
// contiguous segments, applies stat to each and returns the median of the
// results. A burst of host contention that spoils a minority of the
// segments then does not move the result.
func segmented(xs []float64, parts int, stat func([]float64) float64) float64 {
	if parts < 1 || len(xs) < parts {
		return stat(xs)
	}
	vals := make([]float64, parts)
	for i := range vals {
		vals[i] = stat(xs[i*len(xs)/parts : (i+1)*len(xs)/parts])
	}
	return median(vals)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
