package main

import (
	"context"
	"sync"
	"time"
)

// sample is one open-loop request: when it was due, when the generator
// sent it, and when it completed. Latency counts from due, not sent, so a
// stall also charges the wait it imposed on the requests queued behind it.
type sample struct {
	due, sent, done time.Time
	// slept is set when the generator was idle and slept until due; late
	// is then how long after due its timer woke it: the generator's own
	// lateness, as opposed to waiting for a free request slot.
	slept bool
	late  time.Duration
	err   error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// openLoop issues request i at start + i*every until the next due time
// reaches end or ctx is done, regardless of how earlier requests fared.
// At most inFlight requests run at once: one that is due while that many
// are outstanding is sent as soon as one completes. It returns once every
// request sent has completed.
func openLoop(ctx context.Context, start time.Time, every time.Duration, end time.Time, inFlight int, do func(i int) error) []sample {
	var (
		out  []*sample
		wg   sync.WaitGroup
		slot = make(chan struct{}, inFlight)
	)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if !due.Before(end) || ctx.Err() != nil {
			break
		}
		s := &sample{due: due}
		if wait := time.Until(due); wait > 0 {
			s.slept = true
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
			s.late = time.Since(due)
		}
		select {
		case slot <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		s.sent = time.Now()
		out = append(out, s)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.err = do(i)
			s.done = time.Now()
			<-slot
		}(i)
	}
	wg.Wait()
	res := make([]sample, len(out))
	for i, s := range out {
		res[i] = *s
	}
	return res
}

// lateness returns the generator's own lateness, in ms, over the requests
// it slept for.
func lateness(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if s.slept {
			out = append(out, ms(s.late))
		}
	}
	return out
}
