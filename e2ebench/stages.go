package main

import (
	"fmt"
	"sync"
	"time"

	"repro/ltee"
	"repro/ltee/kb"
)

// stageRec turns one engine's progress events into stage spans. The
// engine emits an event at the start of every stage, so a stage ends when
// the next event arrives or when the epoch ends (close). Stage spans are
// keyed by class and epoch ("Song/e3", with an optional prefix); their
// parent is the epoch span named by open, or is assigned later with
// tracer.adopt when the epoch span is only known afterwards (serve-mixed).
// The recorder also notes each epoch's first event and sums the units
// entering each stage. The mutex lets the epoch end be observed on another
// goroutine than the engine's.
type stageRec struct {
	tr     *tracer
	prefix string
	class  kb.ClassID

	mu     sync.Mutex
	parent int
	name   string
	epoch  int
	start  time.Time
	counts map[ltee.Stage]int
	// epochStart holds the time of each epoch's first event.
	epochStart map[int]time.Time
}

func newStageRec(tr *tracer, prefix string, class kb.ClassID) *stageRec {
	return &stageRec{tr: tr, prefix: prefix, class: class,
		counts: make(map[ltee.Stage]int), epochStart: make(map[int]time.Time)}
}

// epochKey names an epoch's spans.
func (r *stageRec) epochKey(epoch int) string {
	return fmt.Sprintf("%s%s/e%d", r.prefix, kb.ClassShortName(r.class), epoch)
}

// event is the engine's progress callback.
func (r *stageRec) event(ev ltee.Event) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, seen := r.epochStart[ev.Epoch]; !seen {
		r.epochStart[ev.Epoch] = now
	}
	r.closeLocked(now)
	r.name, r.epoch, r.start = string(ev.Stage), ev.Epoch, now
	r.counts[ev.Stage] += ev.Count
}

// open names the epoch span the next stage spans belong to.
func (r *stageRec) open(parent int) {
	r.mu.Lock()
	r.parent = parent
	r.mu.Unlock()
}

// close ends the stage still running at the end of epoch, if any.
func (r *stageRec) close(epoch int, now time.Time) {
	r.mu.Lock()
	if r.epoch == epoch {
		r.closeLocked(now)
	}
	r.mu.Unlock()
}

func (r *stageRec) closeLocked(now time.Time) {
	if r.name != "" {
		r.tr.add(r.name, r.epochKey(r.epoch), r.parent, r.start, now)
		r.name = ""
	}
}

// started returns when epoch's first stage began.
func (r *stageRec) started(epoch int) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.epochStart[epoch]
	return t, ok
}

// count returns the units that entered stage so far.
func (r *stageRec) count(stage ltee.Stage) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[stage]
}

// stageNames are the epoch stages in order; their spans carry these names.
var stageNames = []ltee.Stage{
	ltee.StageMatch, ltee.StageBuild, ltee.StageCluster,
	ltee.StageFuse, ltee.StageDetect, ltee.StageWriteBack,
}
