package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the system: an epoch, a pipeline stage, an HTTP request, a job or a
// retrieval probe. Times are offsets from the tracer's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: no parent
	Name   string        `json:"name"`
	Key    string        `json:"key"` // the epoch, request or job the span belongs to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(name, key string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// reserve allocates the ID of a span whose end is not known yet; finish
// fills it in. Children may name the ID as parent in between.
func (t *tracer) reserve(name, key string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	return t.add(name, key, parent, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.origin)
	t.mu.Unlock()
}

// adopt makes parent the parent of every parentless span keyed key.
func (t *tracer) adopt(key string, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if s := &t.spans[i]; s.Key == key && s.Parent == 0 && s.ID != parent {
			s.Parent = parent
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (clipped to the parent, overlaps
// counted once). The result is indexed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name over the spans for which keep
// returns true.
func selfByName(spans []span, keep func(span) bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if keep == nil || keep(s) {
			out[s.Name] += self[s.ID]
		}
	}
	return out
}

// checkEpochSum verifies that the stage spans' durations plus the epoch
// spans' own self time (core commit) add up to the epochs' wall time
// within 5%.
func checkEpochSum(stages, commit, wall time.Duration) error {
	if wall <= 0 {
		return nil
	}
	diff := stages + commit - wall
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.05*float64(wall) {
		return fmt.Errorf("stage times %v + commit %v differ from epoch wall time %v by more than 5%%",
			stages, commit, wall)
	}
	return nil
}
