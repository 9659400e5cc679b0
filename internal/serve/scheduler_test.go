package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/webtable"
	"repro/internal/world"
)

// gatedServer builds a single-class server whose engine parks at its
// first progress event until gate is closed, and signals on started once
// the parked job is actually executing. It lets tests hold a writer lane
// busy deterministically.
func gatedServer(t testing.TB, queueDepth int) (*Server, []int, func(), chan struct{}) {
	t.Helper()
	w, c, tables := fixture(t)
	cfg := core.DefaultConfig(w.KB, c, kb.ClassGFPlayer)
	cfg.Iterations = 1
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg.Progress = func(core.Event) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
	}
	s, err := New(Config{
		KB:     w.KB,
		Corpus: c,
		Engines: map[kb.ClassID]*core.Engine{
			kb.ClassGFPlayer: core.NewEngine(cfg, core.Models{}),
		},
		QueueDepth: queueDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	closeGate := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(s.Close)
	t.Cleanup(closeGate) // unpark before Close drains
	return s, tables, closeGate, started
}

// waitForStatus polls a job until it reaches want (or the deadline).
func waitForStatus(t testing.TB, s *Server, id int64, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var jv JobView
		do(t, s, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), "", &jv)
		if jv.Status == want {
			return jv
		}
		if terminalStatus(jv.Status) || time.Now().After(deadline) {
			t.Fatalf("job %d = %+v, want status %q", id, jv, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeJobDependencies: "after" gates dispatch on successful
// completion, failures cascade to dependents with a descriptive error,
// unknown dependency IDs are client errors, and snapshots can be ordered
// after ingests.
func TestServeJobDependencies(t *testing.T) {
	dir := t.TempDir()
	s, tables := newTestServer(t, dir)

	j1 := ingestWait(t, s, tables[:1])

	// A dependent of a successful job runs normally.
	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[1:2], After: []int64{j1.ID}})
	var j2 JobView
	if code := do(t, s, http.MethodPost, "/v1/ingest?wait=1", string(body), &j2); code != 200 || j2.Status != statusDone {
		t.Fatalf("dependent ingest = %d %+v", code, j2)
	}
	if len(j2.After) != 1 || j2.After[0] != j1.ID {
		t.Errorf("dependent view after = %v, want [%d]", j2.After, j1.ID)
	}

	// A failed dependency fails its dependents without running them.
	var jBad JobView
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", `{"class":"GF-Player","tables":[999999]}`, &jBad)
	if jBad.Status != statusFailed {
		t.Fatalf("bad ingest = %+v", jBad)
	}
	body, _ = json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[:1], After: []int64{jBad.ID}})
	var jDep JobView
	do(t, s, http.MethodPost, "/v1/ingest?wait=1", string(body), &jDep)
	if jDep.Status != statusFailed || !strings.Contains(jDep.Error, fmt.Sprintf("dependency job %d failed", jBad.ID)) {
		t.Fatalf("dependent of failed job = %+v", jDep)
	}

	// Unknown dependency IDs are a 400, not a queue slot.
	if code := do(t, s, http.MethodPost, "/v1/ingest", `{"class":"GF-Player","tables":[],"after":[987654]}`, nil); code != http.StatusBadRequest {
		t.Errorf("unknown dependency = %d, want 400", code)
	}

	// A snapshot can be ordered after an ingest.
	body, _ = json.Marshal(SnapshotRequest{After: []int64{j2.ID}})
	var jSnap JobView
	if code := do(t, s, http.MethodPost, "/v1/snapshot?wait=1", string(body), &jSnap); code != 200 || jSnap.Status != statusDone || jSnap.Manifest == nil {
		t.Fatalf("dependent snapshot = %d %+v", code, jSnap)
	}
}

// TestServeDependencyCancelCascade: cancelling a queued dependency fails
// the jobs waiting on it immediately, and the waitingOn view reflects the
// parked state while the dependency is live.
func TestServeDependencyCancelCascade(t *testing.T) {
	s, tables, closeGate, started := gatedServer(t, 8)

	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[:1]})
	var j1 JobView
	do(t, s, http.MethodPost, "/v1/ingest", string(body), &j1)
	<-started // j1 is executing, parked at its first progress event

	// j2 sits in the lane queue behind j1; j3 waits on j2.
	body, _ = json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[1:2]})
	var j2 JobView
	do(t, s, http.MethodPost, "/v1/ingest", string(body), &j2)
	body, _ = json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[:1], After: []int64{j2.ID}})
	var j3 JobView
	do(t, s, http.MethodPost, "/v1/ingest", string(body), &j3)
	if j3.Status != statusQueued || len(j3.WaitingOn) != 1 || j3.WaitingOn[0] != j2.ID {
		t.Fatalf("parked dependent = %+v", j3)
	}

	// Cancelling queued j2 must fail j3 on the spot.
	if code := do(t, s, http.MethodDelete, fmt.Sprintf("/v1/jobs/%d", j2.ID), "", nil); code != 200 {
		t.Fatalf("cancel queued job = %d", code)
	}
	var jv JobView
	do(t, s, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", j3.ID), "", &jv)
	if jv.Status != statusFailed || !strings.Contains(jv.Error, fmt.Sprintf("dependency job %d cancelled", j2.ID)) {
		t.Fatalf("dependent of cancelled job = %+v", jv)
	}

	closeGate()
	waitForStatus(t, s, j1.ID, statusDone)
}

// TestServeBackpressure429: a full writer lane rejects new jobs with
// 429 Too Many Requests and a Retry-After header — retryable
// backpressure, distinct from the 503 of a shut-down server — and
// accepts again once the lane drains.
func TestServeBackpressure429(t *testing.T) {
	s, tables, closeGate, started := gatedServer(t, 1)

	body, _ := json.Marshal(IngestRequest{Class: "GF-Player", Tables: tables[:1]})
	var j1 JobView
	do(t, s, http.MethodPost, "/v1/ingest", string(body), &j1)
	<-started // j1 occupies the writer, leaving the depth-1 queue empty

	var j2 JobView
	if code := do(t, s, http.MethodPost, "/v1/ingest", string(body), &j2); code != http.StatusAccepted {
		t.Fatalf("queued ingest = %d", code)
	}

	// The lane is now at capacity: reject with 429 + Retry-After.
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full lane = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response is missing Retry-After")
	}

	closeGate()
	waitForStatus(t, s, j2.ID, statusDone)
	if code := do(t, s, http.MethodPost, "/v1/ingest", string(body), nil); code != http.StatusAccepted {
		t.Errorf("ingest after drain = %d, want 202", code)
	}
}

// normalizeEntities strips the fields legitimately affected by cross-class
// interleaving — matched instance IDs are assigned in write-back order —
// leaving the per-class pipeline output that must be deterministic.
func normalizeEntities(v EntitiesView) EntitiesView {
	for i := range v.Entities {
		v.Entities[i].Instance = nil
	}
	return v
}

// twoClassFixture builds a server over both served classes with serial
// (Workers=1) engines, so concurrency across classes is the only
// parallelism in play. progress, when non-nil, holds per-class progress
// hooks installed on the engines before New chains its own.
func twoClassFixture(t testing.TB, progress map[kb.ClassID]func(core.Event)) (*Server, map[kb.ClassID][]int) {
	t.Helper()
	w := world.Generate(world.DefaultConfig(0.2))
	c := webtable.Synthesize(w, webtable.DefaultSynthConfig(0.12))
	byClass, _ := core.ClassifyTables(t.Context(), w.KB, c, 0.3, 0)
	engines := make(map[kb.ClassID]*core.Engine, 2)
	tables := make(map[kb.ClassID][]int, 2)
	for _, class := range []kb.ClassID{kb.ClassGFPlayer, kb.ClassSong} {
		if len(byClass[class]) < 2 {
			t.Fatalf("fixture has %d tables for %s, need at least 2", len(byClass[class]), class)
		}
		cfg := core.DefaultConfig(w.KB, c, class)
		cfg.Iterations = 1
		cfg.Workers = 1
		cfg.Progress = progress[class]
		engines[class] = core.NewEngine(cfg, core.Models{})
		tables[class] = byClass[class]
	}
	s, err := New(Config{KB: w.KB, Corpus: c, Engines: engines, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, tables
}

// TestServeCrossClassConcurrentIngest: two classes ingest concurrently on
// their own writer lanes, and each class's entity output is identical to
// the serial (single-writer-equivalent) baseline.
//
// Concurrency is checked by a rendezvous, not by wall-clock time: each
// engine's first progress event waits for the other engine's first event.
// Only lanes that run at once can meet; serialized lanes make the first
// one's wait time out, however loaded the machine is otherwise.
func TestServeCrossClassConcurrentIngest(t *testing.T) {
	classes := []kb.ClassID{kb.ClassGFPlayer, kb.ClassSong}
	// Serial baseline: one class at a time.
	serial, tables := twoClassFixture(t, nil)
	ingestJSON := func(class kb.ClassID) string {
		body, _ := json.Marshal(IngestRequest{Class: string(class), Tables: tables[class]})
		return string(body)
	}
	var jv JobView
	for _, class := range classes {
		if code := do(t, serial, http.MethodPost, "/v1/ingest?wait=1", ingestJSON(class), &jv); code != 200 || jv.Status != statusDone {
			t.Fatalf("serial %s ingest = %d %+v", class, code, jv)
		}
	}

	// Concurrent run over an identical fresh fixture: submit both, then
	// wait for both. Each engine's first progress event marks its class as
	// started and then waits for the other class to start.
	started := map[kb.ClassID]chan struct{}{}
	met := make(chan bool, len(classes))
	hooks := map[kb.ClassID]func(core.Event){}
	for i, class := range classes {
		started[class] = make(chan struct{})
		other := classes[1-i]
		var once sync.Once
		hooks[class] = func(core.Event) {
			once.Do(func() {
				close(started[class])
				select {
				case <-started[other]:
					met <- true
				case <-time.After(30 * time.Second):
					met <- false
				}
			})
		}
	}
	conc, _ := twoClassFixture(t, hooks)
	var jGF, jSong JobView
	if code := do(t, conc, http.MethodPost, "/v1/ingest", ingestJSON(kb.ClassGFPlayer), &jGF); code != http.StatusAccepted {
		t.Fatalf("concurrent GF-Player submit = %d", code)
	}
	if code := do(t, conc, http.MethodPost, "/v1/ingest", ingestJSON(kb.ClassSong), &jSong); code != http.StatusAccepted {
		t.Fatalf("concurrent Song submit = %d", code)
	}
	for range classes {
		select {
		case ok := <-met:
			if !ok {
				t.Fatal("an ingest waited 30 s at its first stage without the other class's ingest starting: the class lanes ran serially")
			}
		case <-time.After(90 * time.Second):
			t.Fatal("the ingests never reached their first stages")
		}
	}
	waitForStatus(t, conc, jGF.ID, statusDone)
	waitForStatus(t, conc, jSong.ID, statusDone)

	// Per-class outputs must match the serial baseline exactly (matched
	// instance IDs aside, which depend on write-back arrival order).
	for _, short := range []string{"GF-Player", "Song"} {
		var want, got EntitiesView
		do(t, serial, http.MethodGet, "/v1/classes/"+short+"/entities", "", &want)
		do(t, conc, http.MethodGet, "/v1/classes/"+short+"/entities", "", &got)
		w, _ := json.Marshal(normalizeEntities(want))
		g, _ := json.Marshal(normalizeEntities(got))
		if string(w) != string(g) {
			t.Errorf("%s entities diverge between serial and concurrent runs:\nserial:     %s\nconcurrent: %s", short, w, g)
		}
	}
}
