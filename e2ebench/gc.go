package main

import (
	"math"
	"runtime/metrics"
)

// gcSample is a reading of the Go runtime's GC counters.
type gcSample struct {
	cpuS   float64
	pauses *metrics.Float64Histogram
	// pauseMaxMS is set on the difference of two samples: the upper edge
	// of the highest pause bucket that gained a count, in milliseconds.
	pauseMaxMS float64
}

const (
	gcCPUMetric   = "/cpu/classes/gc/total:cpu-seconds"
	gcPauseMetric = "/sched/pauses/total/gc:seconds"
)

func readGC() gcSample {
	s := []metrics.Sample{{Name: gcCPUMetric}, {Name: gcPauseMetric}}
	metrics.Read(s)
	return gcSample{cpuS: s[0].Value.Float64(), pauses: s[1].Value.Float64Histogram()}
}

// sub returns the GC work done between earlier and g.
func (g gcSample) sub(earlier gcSample) gcSample {
	out := gcSample{cpuS: g.cpuS - earlier.cpuS}
	for i := len(g.pauses.Counts) - 1; i >= 0; i-- {
		if g.pauses.Counts[i] > earlier.pauses.Counts[i] {
			edge := g.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = g.pauses.Buckets[i]
			}
			out.pauseMaxMS = edge * 1e3
			break
		}
	}
	return out
}
