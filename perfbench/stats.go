package main

import (
	"math"
	"sort"
	"time"
)

// samples collects per-operation durations.
type samples []time.Duration

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no samples.
func (s samples) median() time.Duration {
	if len(s) == 0 {
		return 0
	}
	o := s.sorted()
	n := len(o)
	if n%2 == 1 {
		return o[n/2]
	}
	return (o[n/2-1] + o[n/2]) / 2
}

// tail returns the highest-percentile sample that still has at least ten
// samples above it, with that percentile. Below 110 samples that rank
// would fall under p90 (at 21 samples it is the median), so the tail is
// then p90 by nearest rank, and the sample count printed beside it says how
// little it rests on.
//
// The samples are in the order they were taken. When there are enough of
// them, tail cuts them into up to maxSlices consecutive slices of at least
// minSlice samples, takes that tail in each slice and returns the median,
// with the slices' mean percentile and the number of slices. A host that
// stalls for a second or two then moves one slice's tail, not the run's.
func (s samples) tail() (time.Duration, float64, int) {
	if len(s) == 0 {
		return 0, 0, 0
	}
	k := min(maxSlices, max(1, len(s)/minSlice))
	var tails samples
	var pct float64
	for i := 0; i < k; i++ {
		t, p := s[i*len(s)/k : (i+1)*len(s)/k].sliceTail()
		tails = append(tails, t)
		pct += p / float64(k)
	}
	return tails.median(), pct, k
}

// The slicing of tail: slices of at least 200 samples put each slice's
// tail at p95 or above.
const (
	maxSlices = 5
	minSlice  = 200
)

func (s samples) sliceTail() (time.Duration, float64) {
	o := s.sorted()
	n := len(o)
	i := max(n-11, int(math.Ceil(0.9*float64(n)))-1)
	return o[i], 100 * float64(i+1) / float64(n)
}

func (s samples) total() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianFloat is median for plain numbers.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	o := append([]float64(nil), v...)
	sort.Float64s(o)
	n := len(o)
	if n%2 == 1 {
		return o[n/2]
	}
	return (o[n/2-1] + o[n/2]) / 2
}

// perK scales a count to a rate per thousand units, 0 when there were no
// units.
func perK(count, units float64) float64 {
	if units == 0 {
		return 0
	}
	return 1000 * count / units
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and ±Inf to 0 so the result line stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
