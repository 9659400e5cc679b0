// Command e2ebench is the end-to-end benchmark of the long-tail entity
// extraction system. It runs one named workload for a seed, checks the
// outputs, and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured without
// tracing; with -trace 1 they are the per-layer metrics, computed from
// spans the benchmark records around its calls into the system (written to
// .bench_run/ when the run ends). See README.md for the workloads and
// what each metric means.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload ingest-stream --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	workers  int
	// record runs one ingest pass per stream order, only to print the
	// output digests.
	record bool
	// runDir holds the run's scratch files (snapshots, span dumps).
	runDir string
}

// result accumulates a run's outcome.
type result struct {
	attempted, failed int
	errs              []string
	notes             []string
	e2e, layer        map[string]float64
	spans             *tracer
	// digests are the output digests of the run's stream orders.
	digests []string
}

const maxErrs = 20

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < maxErrs {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// e2eUnits and layerUnits give every reported metric its unit; the two
// sets are the ones BENCHMARK.json lists.
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"ingest_tables_per_s": "tables/s",
	"epoch_ms_p50":        "ms",
	"epoch_ms_tail":       "ms",
	"ingest_job_ms_p50":   "ms",
	"search_ms_p50":       "ms",
	"search_ms_tail":      "ms",
	"lookup_ms_p50":       "ms",
	"lookup_ms_tail":      "ms",
	"read_alloc_bytes":    "bytes",
	"live_heap_mb":        "MB",
}

var layerUnits = map[string]string{
	"match.self_s": "s", "match.tables": "count",
	"build.self_s": "s", "build.tables": "count",
	"cluster.self_s": "s", "cluster.rows": "count",
	"fuse.self_s": "s", "fuse.clusters": "count",
	"detect.self_s": "s", "detect.entities": "count", "detect.matched": "count", "detect.new": "count",
	"writeback.self_s": "s", "writeback.candidates": "count", "writeback.written": "count",
	"writeback.useful_ratio":          "ratio",
	"core.commit_s":                   "s",
	"retrieval.candidates_us_p50":     "us",
	"retrieval.candidates_per_query":  "count",
	"retrieval.search_us_p50":         "us",
	"retrieval.search_hits_per_query": "count",
	"retrieval.exact_recall":          "ratio",
	"cache.hit_ratio.search":          "ratio",
	"cache.hit_ratio.instances":       "ratio",
	"cache.generations":               "count",
	"scheduler.enqueue_ms_p50":        "ms",
	"scheduler.queue_wait_ms_p50":     "ms",
	"scheduler.run_ms_p50":            "ms",
	"scheduler.lane_depth_max":        "count",
	"snapshot.job_ms_p50":             "ms",
	"snapshot.bytes_written":          "bytes",
	"snapshot.segments":               "count",
	"loadgen.late_ms_p50":             "ms",
	"loadgen.late_ms_max":             "ms",
	"loadgen.idle_capacity_rps":       "1/s",
	"runtime.gc_cpu_s":                "s",
	"runtime.gc_pause_ms_max":         "ms",
	"setup.world_s":                   "s",
	"setup.classify_s":                "s",
	"setup.server_s":                  "s",
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the output digests recorded for an ingest
// workload and seed, one per stream order, if any.
func recordedDigests(workload string, seed int64, orders int) ([]string, bool) {
	var all map[string]map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, false
	}
	d, ok := all[workload][fmt.Sprint(seed)]
	return d, ok && len(d) == orders
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	record := fs.Bool("record", false, "ingest workloads: run one pass per stream order and print the output digests to record for -seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		runDir:   filepath.Join(".bench_run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
	}
	cfg.record = *record
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.runDir)

	res := &result{}
	if err := w(context.Background(), cfg, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if *record {
		b, err := json.Marshal(map[string]any{"workload": cfg.workload, "seed": cfg.seed, "digests": res.digests})
		if err != nil || len(res.digests) == 0 {
			fmt.Fprintf(stderr, "e2ebench: %s has no digests to record\n", cfg.workload)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	if res.spans != nil {
		path := filepath.Join(".bench_run", fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := res.spans.write(path); err != nil {
			fmt.Fprintln(stderr, "e2ebench: writing spans:", err)
			return 1
		}
		res.note("spans written to %s", path)
	}
	return report(cfg, res, stdout, stderr)
}

// report prints the notes, errors and metrics, then the result line. It
// returns the exit code: 0 only for a correct run.
func report(cfg runConfig, res *result, stdout, stderr io.Writer) int {
	metrics, units := res.e2e, e2eUnits
	if cfg.trace {
		metrics, units = res.layer, layerUnits
	}
	out := make(map[string]any, len(units))
	for name, unit := range units {
		v, ok := metrics[name]
		if !ok || v != v { // missing or NaN
			res.attempted++
			res.fail("metric %s was not measured", name)
			continue
		}
		out[name] = map[string]any{"value": v, "unit": unit}
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	if cfg.trace && res.e2e != nil {
		// The traced run's end-to-end figures, for the tracing overhead.
		fmt.Fprintf(stdout, "# traced end-to-end: %s\n", formatMetrics(res.e2e))
	}
	for _, e := range res.errs {
		fmt.Fprintf(stderr, "e2ebench: FAILED: %s\n", e)
	}
	if res.attempted == 0 {
		res.attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.failed > 0 {
		return 1
	}
	return 0
}

func formatMetrics(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.4g", n, m[n])
	}
	return strings.Join(parts, " ")
}
