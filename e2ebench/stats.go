package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples that must lie above a reported tail
// percentile: the tail is the highest percentile that still has this many
// samples beyond it, so it is never set by a handful of outliers.
const tailBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. It returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest sample that has at least tailBeyond samples
// strictly above it in rank, together with its percentile (the share of
// samples at or below it, in percent). ok is false when there are too few
// samples for any such value.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := sortedCopy(xs)
	idx := n - 1 - tailBeyond
	return s[idx], 100 * float64(idx+1) / float64(n), true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencies summarizes one sample set as median and tail, keeping the
// sample count and tail percentile for the report.
type latencies struct {
	P50, Tail, TailPct float64
	N                  int
}

func summarize(xs []float64) latencies {
	v, pct, ok := tail(xs)
	if !ok {
		v, pct = math.NaN(), 0
	}
	return latencies{P50: median(xs), Tail: v, TailPct: pct, N: len(xs)}
}
