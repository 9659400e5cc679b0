package core

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/newdet"
)

// countingMetric wraps a detection metric and counts its Compare calls:
// one call per (entity, candidate) pair the detector scores.
type countingMetric struct {
	newdet.Metric
	calls *atomic.Int64
}

func (m countingMetric) Compare(env *newdet.Env, e *fusion.Entity, inst kb.InstanceID) (float64, float64) {
	m.calls.Add(1)
	return m.Metric.Compare(env, e, inst)
}

// kbPrefix copies the first n instances of k into a fresh KB with the same
// ontology: the KB as it stood before later write-backs. Instance IDs are
// dense, so the copy's IDs, label index and candidate lists equal the
// original's at that point.
func kbPrefix(k *kb.KB, n int) *kb.KB {
	ins := make([]*kb.Instance, n)
	for id := range ins {
		ins[id] = k.Instance(kb.InstanceID(id))
	}
	p := kb.New()
	p.AddInstances(ins)
	return p
}

// memoEpoch is what one epoch of a memo test run observed.
type memoEpoch struct {
	out *Output
	// kbAtDetect is the KB instance count while the epoch detected (before
	// its write-back).
	kbAtDetect int
	// compares counts metric calls during the epoch's (single) detection.
	compares int64
}

// detectionMemoRun ingests tables in batches through a write-back engine
// with one iteration per epoch, calling between(i) before epoch i > 0.
func detectionMemoRun(t *testing.T, k *kb.KB, cfg Config, batches [][]int, between func(eng *Engine, i int)) []memoEpoch {
	t.Helper()
	var calls atomic.Int64
	det := defaultDetector(k)
	det.Metrics[0] = countingMetric{Metric: det.Metrics[0], calls: &calls}
	epochs := make([]memoEpoch, len(batches))
	cur := 0
	cfg.Iterations = 1
	cfg.Progress = func(ev Event) {
		if ev.Stage == StageDetect {
			epochs[cur].kbAtDetect = k.NumInstances()
			calls.Store(0)
		}
		if ev.Stage == StageWriteBack {
			epochs[cur].compares = calls.Load()
		}
	}
	eng := NewEngine(cfg, Models{Detector: det})
	for i, b := range batches {
		if i > 0 && between != nil {
			between(eng, i)
		}
		cur = i
		ver := k.Version()
		out, _, err := eng.Ingest(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if k.Version() == ver {
			t.Fatalf("epoch %d: KB version did not move", i+1)
		}
		epochs[i].out = out
	}
	return epochs
}

// checkFreshDetections asserts every detection of the epoch equals a
// fresh, memo-less Detector.Detect over the KB as it stood at detection.
func checkFreshDetections(t *testing.T, k *kb.KB, ep memoEpoch, epoch int) *newdet.Detector {
	t.Helper()
	fresh := defaultDetector(kbPrefix(k, ep.kbAtDetect))
	for i, ent := range ep.out.Entities {
		if want := fresh.Detect(ent); !reflect.DeepEqual(ep.out.Detections[i], want) {
			t.Fatalf("epoch %d entity %d %q: memoized %+v, fresh %+v",
				epoch, i, ent.Label(), ep.out.Detections[i], want)
		}
	}
	return fresh
}

// TestDetectionMemoExact proves the candidate-keyed detection memo is
// exact and used: over five write-back epochs (so the KB version moves
// every epoch) every detection equals a fresh detection, and from epoch 3
// on fewer (entity, candidate) pairs are scored than a memo-less pass
// would score. (Epoch 2 is the first to see epoch 1's clusters as
// retained, so it has nothing memoized yet.)
func TestDetectionMemoExact(t *testing.T) {
	w, corpus := engineFixture(t)
	tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
	if len(tables) < 5 {
		t.Fatalf("need at least five player tables, have %d", len(tables))
	}
	cfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
	epochs := detectionMemoRun(t, w.KB, cfg, splitBatches(tables, 5), nil)
	for i, ep := range epochs {
		fresh := checkFreshDetections(t, w.KB, ep, i+1)
		pairs := 0
		for _, ent := range ep.out.Entities {
			pairs += len(fresh.Candidates(ent))
		}
		t.Logf("epoch %d: %d entities, %d pairs, %d scored", i+1, len(ep.out.Entities), pairs, ep.compares)
		if i < 2 {
			continue
		}
		if ep.compares >= int64(pairs) {
			t.Errorf("epoch %d scored %d pairs, a memo-less pass scores %d: memo unused",
				i+1, ep.compares, pairs)
		}
	}
}

// TestDetectionMemoMissesOnNewCandidate adds, between two epochs, an
// instance whose label (and facts) equal a retained entity's. The entity's
// candidate list then changes, so its memo entry must be recomputed
// against the new list: the detection must equal a fresh one and match the
// new instance.
func TestDetectionMemoMissesOnNewCandidate(t *testing.T) {
	w, corpus := engineFixture(t)
	tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
	if len(tables) < 4 {
		t.Fatalf("need at least four player tables, have %d", len(tables))
	}
	cfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
	var (
		key   string
		prior newdet.Result
		added kb.InstanceID = -1
	)
	epochs := detectionMemoRun(t, w.KB, cfg, splitBatches(tables, 4), func(eng *Engine, i int) {
		if i != 2 {
			return
		}
		// Copy a retained, memoized entity into the KB under its label.
		for _, ent := range eng.Last().Entities {
			k := clusterMemoKey(ent.Rows)
			if _, ok := eng.detMemo[k]; !ok || len(ent.Labels) == 0 {
				continue
			}
			key = k
			prior = eng.detMemo[k].res
			added = w.KB.AddInstance(&kb.Instance{
				Class:  ent.Class,
				Labels: []string{ent.Label()},
				Facts:  ent.Facts,
			})
			return
		}
		t.Fatal("no memoized entity after epoch 2")
	})
	if added < 0 {
		t.Fatal("no instance was added")
	}
	checkFreshDetections(t, w.KB, epochs[2], 3)
	for i, ent := range epochs[2].out.Entities {
		if clusterMemoKey(ent.Rows) != key {
			continue
		}
		cands := defaultDetector(kbPrefix(w.KB, epochs[2].kbAtDetect)).Candidates(ent)
		if !slices.Contains(cands, added) {
			t.Fatalf("added instance %d is not a candidate of %q: %v", added, ent.Label(), cands)
		}
		// The copy outscores the earlier match, so a stale memo hit would
		// show here as the epoch-2 result.
		if got := epochs[2].out.Detections[i]; got == prior || !got.Matched || got.Instance != added {
			t.Fatalf("%q: epoch 3 detection %+v, epoch 2 %+v, want a match to the added instance %d",
				ent.Label(), got, prior, added)
		}
		return
	}
	t.Fatal("the chosen entity's cluster changed in epoch 3")
}

// TestDetectionMemoWorkersIdentical proves the memoized multi-epoch ingest
// is byte-identical at one and at several workers.
func TestDetectionMemoWorkersIdentical(t *testing.T) {
	var runs [][]memoEpoch
	var kbs []*kb.KB
	for _, workers := range []int{1, 4} {
		w, corpus := engineFixture(t)
		tables := classify(w.KB, corpus)[kb.ClassGFPlayer]
		cfg := DefaultConfig(w.KB, corpus, kb.ClassGFPlayer)
		cfg.Workers = workers
		runs = append(runs, detectionMemoRun(t, w.KB, cfg, splitBatches(tables, 4), nil))
		kbs = append(kbs, w.KB)
	}
	for i := range runs[0] {
		outputsEqual(t, runs[0][i].out, runs[1][i].out)
	}
	if kbBytes(t, kbs[0]) == nil || !reflect.DeepEqual(kbBytes(t, kbs[0]), kbBytes(t, kbs[1])) {
		t.Fatal("written-back KBs differ between worker counts")
	}
}
