package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the sample-count rule for tail percentiles: a percentile is
// reported only when at least this many samples lie beyond it, so one
// stray sample cannot be the whole tail.
const minTail = 10

// dist is a sorted sample of durations.
type dist []time.Duration

// newDist sorts samples in place and returns them as a dist.
func newDist(samples []time.Duration) dist {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return dist(samples)
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1): the smallest
// sample with at least q of the samples at or below it. Zero for an empty
// dist.
func (d dist) quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d) {
		rank = len(d)
	}
	return d[rank-1]
}

// beyond returns how many samples lie strictly above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailOK reports whether n samples support the q-quantile under the
// ten-samples-beyond rule.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minTail }

// median returns the middle of xs (mean of the middle two for even
// lengths), sorting a copy; NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// windowed splits samples into consecutive windows by their due time and
// returns each window's q-quantile, for windows holding enough samples to
// support q. The capacity ladder judges a rung by its windows, so that a
// backlog growing late in the window is not averaged away.
func windowed(due, lat []time.Duration, window time.Duration, q float64) []float64 {
	if len(due) == 0 || window <= 0 {
		return nil
	}
	start := due[0]
	for _, d := range due {
		if d < start {
			start = d
		}
	}
	buckets := map[int][]time.Duration{}
	for i, d := range due {
		k := int((d - start) / window)
		buckets[k] = append(buckets[k], lat[i])
	}
	keys := make([]int, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var out []float64
	for _, k := range keys {
		b := buckets[k]
		if !tailOK(len(b), q) {
			continue
		}
		out = append(out, float64(newDist(b).quantile(q)))
	}
	return out
}

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
