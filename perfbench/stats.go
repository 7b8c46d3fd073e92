package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// samples, sorting them in place. It returns NaN for no samples.
func percentile(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	k := int(math.Ceil(p*float64(len(samples)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(samples[k])
}

func p50(s []int64) float64 { return percentile(s, 0.50) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count), leaving xs unchanged. NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// selfTimes returns, for every span named parent, its duration minus
// the summed durations of its children whose names are in kernels.
// Children are matched to their parent by index. The replayed kernel
// calls run after the traced phase rather than inside the parent's
// interval, so a child's whole duration is what the layer below
// costs on the same input.
func selfTimes(spans []span, parent spanName, kernels ...spanName) []float64 {
	isKernel := map[spanName]bool{}
	for _, k := range kernels {
		isKernel[k] = true
	}
	child := map[int32]int64{}
	for i := range spans {
		if sp := spans[i]; sp.parent >= 0 && isKernel[sp.name] {
			child[sp.parent] += sp.end - sp.start
		}
	}
	var out []float64
	for i := range spans {
		if spans[i].name == parent {
			out = append(out, float64(spans[i].end-spans[i].start-child[int32(i)]))
		}
	}
	return out
}

// kernelTimes returns, per parent span of name parent that has at
// least one child named kernel, the summed duration of those children.
func kernelTimes(spans []span, parent, kernel spanName) []float64 {
	sum := map[int32]int64{}
	for i := range spans {
		if sp := spans[i]; sp.parent >= 0 && sp.name == kernel && spans[sp.parent].name == parent {
			sum[sp.parent] += sp.end - sp.start
		}
	}
	out := make([]float64, 0, len(sum))
	for _, v := range sum {
		out = append(out, float64(v))
	}
	return out
}

// durations returns the durations of every span named name.
func durations(spans []span, name spanName) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].name == name {
			out = append(out, float64(spans[i].end-spans[i].start))
		}
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (no events to take a share of).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
