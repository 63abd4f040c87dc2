package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of ds by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[hi]-s[lo]))
}

// sample is one operation completed in the window: when it finished,
// counted from the window start, and its latency.
type sample struct{ at, lat time.Duration }

func latencies(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lat
	}
	return out
}

// minSliceSamples is the fewest samples one slice of the window may hold:
// enough for a 99th percentile with ten samples beyond it.
const minSliceSamples = 1000

// maxSlices caps how many equal parts of the window a metric is computed
// on. Each metric reports the median part, so outside load on the machine
// during part of one run moves it less.
const maxSlices = 5

// sliceMedian splits samples into equal slices of the window by completion
// time, as many as keep minSliceSamples each (at most maxSlices, at least
// one), applies f to each slice and returns the median result.
func sliceMedian(ss []sample, window time.Duration, f func(part []sample) float64) float64 {
	k := min(max(len(ss)/minSliceSamples, 1), maxSlices)
	parts := make([][]sample, k)
	for _, s := range ss {
		if i := int(s.at * time.Duration(k) / window); i >= 0 && i < k {
			parts[i] = append(parts[i], s)
		}
	}
	vals := make([]float64, k)
	for i, p := range parts {
		vals[i] = f(p)
	}
	sort.Float64s(vals)
	if k%2 == 0 {
		return (vals[k/2-1] + vals[k/2]) / 2
	}
	return vals[k/2]
}

// perSecond is the completion rate between the first and last completion
// of a slice.
func perSecond(part []sample) float64 {
	if len(part) < 2 {
		return 0
	}
	first, last := part[0].at, part[0].at
	for _, s := range part {
		first, last = min(first, s.at), max(last, s.at)
	}
	return ratio(float64(len(part)-1), (last - first).Seconds())
}

func quantileMs(q float64) func([]sample) float64 {
	return func(part []sample) float64 { return ms(quantile(latencies(part), q)) }
}

// geomeanMedian is the geometric mean, over the groups, of each group's
// median latency (TPC-H power style: no single slow group dominates).
// Empty groups are skipped.
func geomeanMedian(groups [][]sample) time.Duration {
	sum, n := 0.0, 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		sum += math.Log(float64(quantile(latencies(g), 0.5)))
		n++
	}
	if n == 0 {
		return 0
	}
	return time.Duration(math.Exp(sum / float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
