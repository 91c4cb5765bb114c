package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"ivm"
)

// samples is a set of durations in nanoseconds.
type samples []int64

// percentile returns the nearest-rank p-th percentile (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
// An empty set reads 0.
func (s samples) percentile(p float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return time.Duration(sorted[rank-1])
}

func (s samples) median() time.Duration { return s.percentile(50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, reading 0 when b is 0 (the layer was not crossed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianOf returns the median of xs (mean of the two middle values for
// an even count), 0 when empty.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a flat image of metric registries: counters and gauges
// under their names, histograms as <name>_count and <name>_sum_ns — the
// shape the /v1/metrics exposition has, so registries read in process
// and over HTTP merge into one map.
type counters map[string]float64

func (c counters) addSnapshot(s ivm.MetricsSnapshot) {
	for name, v := range s.Counters {
		c[name] = float64(v)
	}
	for name, v := range s.Gauges {
		c[name] = float64(v)
	}
	for name, h := range s.Histograms {
		c[name+"_count"] = float64(h.Count)
		c[name+"_sum_ns"] = float64(h.Sum)
	}
}

func (c counters) addMap(m map[string]int64) {
	for name, v := range m {
		c[name] = float64(v)
	}
}

// sub returns c − before, name by name.
func (c counters) sub(before counters) counters {
	out := make(counters, len(c))
	for name, v := range c {
		out[name] = v - before[name]
	}
	return out
}

// meanUS is a histogram's mean observation in microseconds.
func (c counters) meanUS(hist string) float64 {
	return ratio(c[hist+"_sum_ns"], c[hist+"_count"]) / 1e3
}
