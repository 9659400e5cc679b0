package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // unsorted input: 100 .. 1
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	v, pct, ok = tail([]float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11})
	if !ok || v != 1 || pct < 9 || pct > 9.1 {
		t.Fatalf("tail of 11 samples = %v at p%v (ok %v), want the minimum at p9.09", v, pct, ok)
	}
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatalf("tail of %d samples should be undefined", tailBeyond)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const slow = 40 * time.Millisecond
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(slow)
	}))
	srv.Config.Protocols = new(http.Protocols)
	srv.Config.Protocols.SetHTTP1(true)
	srv.Config.Protocols.SetUnencryptedHTTP2(true)
	srv.Start()
	defer srv.Close()
	c := client(false)

	start := time.Now().Add(5 * time.Millisecond)
	every := 10 * time.Millisecond
	samples := openLoop(context.Background(), start, every, start.Add(8*every), 1, func(int) error {
		return call(c, "GET", srv.URL, nil, http.StatusOK, nil)
	})
	if len(samples) != 8 {
		t.Fatalf("%d requests sent, want 8", len(samples))
	}
	for i, s := range samples {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if want := start.Add(time.Duration(i) * every); !s.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", i, s.due, want)
		}
		if s.latency() != s.done.Sub(s.due) {
			t.Fatalf("request %d: latency is not measured from the due time", i)
		}
	}
	// The handler takes 40ms while requests are due every 10ms, so the
	// queue grows by 30ms per request: the last one waited ~210ms behind
	// the others although its own round trip took ~40ms.
	last := samples[len(samples)-1]
	if own := last.done.Sub(last.sent); last.latency() < 3*own || last.latency() < 7*(slow-every) {
		t.Fatalf("last request: latency %v, own round trip %v; the wait behind earlier requests is missing",
			last.latency(), own)
	}
	// Requests that fell due while the slot was busy count toward latency,
	// not toward the generator's own lateness.
	if late := lateness(samples); len(late) >= len(samples) {
		t.Fatalf("generator lateness counted for all %d requests, including overdue ones", len(late))
	}

	// With enough requests in flight on one HTTP/2 connection the loop is
	// open: the slow handler no longer delays the requests behind it.
	h2 := client(true)
	start = time.Now().Add(5 * time.Millisecond)
	samples = openLoop(context.Background(), start, every, start.Add(8*every), 8, func(int) error {
		return call(h2, "GET", srv.URL, nil, http.StatusOK, nil)
	})
	for i, s := range samples {
		if s.err != nil || s.latency() > 3*slow {
			t.Fatalf("request %d with 8 in flight: latency %v, err %v", i, s.latency(), s.err)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "epoch", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "match", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "build", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "cluster", Start: 8, End: 12}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "probe", Start: 3, End: 4},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 4, 2: 2, 3: 2, 4: 4, 5: 1}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
	if err := checkEpochSum(96, 4, 100); err != nil {
		t.Errorf("exact sum rejected: %v", err)
	}
	if err := checkEpochSum(90, 4, 100); err == nil {
		t.Errorf("6%% gap accepted")
	}

	// Stage spans that tile their epochs pass the check, with the time
	// before the first stage as commit.
	all := func(span) bool { return true }
	good := []span{
		{ID: 1, Name: "epoch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "match", Start: 4, End: 50},
		{ID: 3, Parent: 1, Name: "writeback", Start: 50, End: 100},
	}
	layer := make(map[string]float64)
	if err := addStageLayers(layer, good, all); err != nil {
		t.Errorf("tiled epoch rejected: %v", err)
	}
	if c := layer["core.commit_s"]; c != (4 * time.Nanosecond).Seconds() {
		t.Errorf("core.commit_s %v, want the 4ns before the first stage", c)
	}
	// A stage span that runs past its epoch into the next one fails it,
	// although self times, clipped to the parent, would still sum.
	leaked := append(good[:2:2],
		span{ID: 3, Parent: 1, Name: "writeback", Start: 50, End: 130},
		span{ID: 4, Name: "epoch", Start: 100, End: 200},
		span{ID: 5, Parent: 4, Name: "match", Start: 100, End: 200})
	if err := addStageLayers(make(map[string]float64), leaked, all); err == nil {
		t.Errorf("stage span past its epoch accepted")
	}
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload kind at a tiny
// size in both modes and compares the printed metric names and units with
// the ones BENCHMARK.json declares.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %s, benchmark runs %s", got, strings.Join(workloadNames(), ","))
	}

	tiny := ingestSpec{World: 0.12, Corpus: 0.07, Batch: 1, Orders: 2, Reads: 64}
	kinds := map[string]func(context.Context, runConfig, *result) error{
		"ingest": func(ctx context.Context, cfg runConfig, res *result) error {
			return runIngest(ctx, tiny, cfg, res)
		},
		"serve": func(ctx context.Context, cfg runConfig, res *result) error {
			return runServe(ctx, serveSpec{ingest: tiny, setups: 2, servings: 2, readEvery: 20 * time.Millisecond, readInFlight: 4,
				minJobEvery: 100 * time.Millisecond, snapEvery: 4, pollEvery: 2 * time.Millisecond, drain: time.Minute}, cfg, res)
		},
	}
	for kind, fn := range kinds {
		for _, traced := range []bool{false, true} {
			// record makes an ingest run exactly one pass per stream order,
			// so its sample counts do not depend on the machine's speed.
			cfg := runConfig{workload: "test-" + kind, seed: 1, window: 2 * time.Second, trace: traced,
				workers: 2, runDir: t.TempDir(), record: kind == "ingest"}
			res := &result{}
			if err := fn(context.Background(), cfg, res); err != nil {
				t.Fatalf("%s trace=%v: %v", kind, traced, err)
			}
			var stdout, stderr bytes.Buffer
			code := report(cfg, res, &stdout, &stderr)
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out struct {
				Correct bool
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", kind, traced, err)
			}
			if code != 0 || !out.Correct {
				t.Fatalf("%s trace=%v: exit %d, correct %v:\n%s", kind, traced, code, out.Correct, stderr.String())
			}
			var printed []string
			for name, m := range out.Metrics {
				printed = append(printed, name+" "+m.Unit)
			}
			sort.Strings(printed)
			want := declared(bench.EndToEnd)
			if traced {
				want = declared(bench.PerLayer)
			}
			if strings.Join(printed, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v printed\n  %v\nBENCHMARK.json declares\n  %v", kind, traced, printed, want)
			}
		}
	}
}
