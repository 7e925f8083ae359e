package main

import (
	"math"
	"sort"
	"time"
)

// Every reported timing goes through one of the estimators in this file.
// Interference on a shared host only ever adds time, so timings are read
// from the good-side quartile of equal-work slices (or replays): what the
// program does when left alone, which still moves with anything that slows
// three quarters of the run.

// sorted returns xs in ascending order without modifying it.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
func p95(xs []float64) float64    { return quantile(xs, 0.95) }

// quietLow is the good-side quartile of a lower-is-better sample (latency):
// the order statistic a quarter of the way up, rounded to the good side, so
// of three replays it is the fastest and of twenty slices the fifth fastest.
func quietLow(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[(len(xs)-1)/4]
}

// quietHigh is the good-side quartile of a higher-is-better sample (rate).
func quietHigh(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[len(xs)-1-(len(xs)-1)/4]
}

// bestOf is the fastest of repeated builds of the same fixture.
func bestOf(xs []float64) float64 {
	best := math.Inf(1)
	for _, x := range xs {
		best = math.Min(best, x)
	}
	return best
}

// positionLatencies collapses replays of one operation list into one
// latency per position: position i does identical work in every replay, so
// its latency is its quiet quartile over the replays.
func positionLatencies(replays [][]float64) []float64 {
	if len(replays) == 0 {
		return nil
	}
	out := make([]float64, len(replays[0]))
	col := make([]float64, len(replays))
	for i := range out {
		for r := range replays {
			col[r] = replays[r][i]
		}
		out[i] = quietLow(col)
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func microsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = micros(d)
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
