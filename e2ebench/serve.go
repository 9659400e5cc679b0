package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/ltee"
	"repro/ltee/kb"
	"repro/ltee/serve"
)

// serveSpec sizes the serve-mixed workload: the ingest-bigkb world behind
// ltee/serve, an open-loop reader and a scheduled writer.
type serveSpec struct {
	ingest ingestSpec
	// setups is how many times the system is set up; the last servings
	// of them each serve an equal share of the window.
	setups, servings int
	// readEvery is the reader's interval; reads alternate search, lookup.
	// readInFlight bounds the reads outstanding at once; above one, the
	// reader speaks HTTP/2 so they share its one connection.
	readEvery    time.Duration
	readInFlight int
	// The writer spreads its ingest jobs evenly over the window, at most
	// one per minJobEvery; snapEvery ingest jobs are followed by one
	// snapshot job.
	minJobEvery time.Duration
	snapEvery   int
	// pollEvery is how often the writer polls its unfinished jobs.
	pollEvery time.Duration
	// drain bounds the wait for unfinished jobs after the window.
	drain time.Duration
}

// system is one served set-up: world, engines, server and listener.
type system struct {
	w       *world
	engines map[kb.ClassID]*ltee.Engine
	recs    map[kb.ClassID]*stageRec
	srv     *serve.Server
	hs      *http.Server
	base    string
	// serverT is the time to build the engines and server and listen.
	serverT, setupT time.Duration
	served          chan error
}

func (s *system) close() error {
	err := s.hs.Close()
	s.srv.Close()
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func setUpServer(ctx context.Context, spec serveSpec, cfg runConfig, snapDir, prefix string, tr *tracer) (*system, error) {
	t0 := time.Now()
	// The writer's job plan is fixed: the classified tables in corpus
	// order. The seed draws the reads.
	w, err := buildWorld(ctx, spec.ingest.World, spec.ingest.Corpus, nil, cfg.workers)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return nil, err
	}
	engines := make(map[kb.ClassID]*ltee.Engine)
	sys := &system{w: w, engines: engines, recs: make(map[kb.ClassID]*stageRec)}
	for _, c := range kb.EvalClasses() {
		rec := newStageRec(tr, prefix, c)
		eng, err := ltee.NewEngine(w.kb, w.corpus, c, ltee.WithWorkers(cfg.workers), ltee.WithProgress(rec.event))
		if err != nil {
			return nil, err
		}
		engines[c], sys.recs[c] = eng, rec
	}
	sys.srv, err = serve.New(serve.Config{
		KB: w.kb, Corpus: w.corpus, Engines: engines, Tables: w.byClass,
		SnapshotDir: snapDir,
		WorldKey:    fmt.Sprintf("world=%g corpus=%g seed=%d", spec.ingest.World, spec.ingest.Corpus, cfg.seed),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sys.srv.Close()
		return nil, err
	}
	sys.hs = &http.Server{Handler: sys.srv.Handler(), Protocols: new(http.Protocols)}
	sys.hs.Protocols.SetHTTP1(true)
	sys.hs.Protocols.SetUnencryptedHTTP2(true)
	sys.served = make(chan error, 1)
	go func() { sys.served <- sys.hs.Serve(ln) }()
	sys.base = "http://" + ln.Addr().String()
	sys.serverT, sys.setupT = time.Since(t1), time.Since(t0)
	return sys, nil
}

// client returns an HTTP client limited to one connection: HTTP/1.1,
// or HTTP/2 without TLS when h2 is set, which multiplexes requests on it.
func client(h2 bool) *http.Client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, Protocols: new(http.Protocols)}
	if h2 {
		t.Protocols.SetUnencryptedHTTP2(true)
	} else {
		t.Protocols.SetHTTP1(true)
	}
	return &http.Client{Transport: t}
}

// call sends one request and decodes a JSON response into out (when non-
// nil). Any status other than want is an error.
func call(c *http.Client, method, url string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// servedWindow is what one served window measured.
type servedWindow struct {
	rd            *readLoad
	wl            *writeLoad
	before, after serve.StatsView
	snapBytes     int64
	gc            gcSample
	heapMB        float64
	readAlloc     float64
	capacity      float64
}

// runServe sets the system up spec.setups times; each of the last
// spec.servings set-ups then serves reads and writes for an equal share of
// the run's window. The windows' samples are pooled: every epoch of the
// fixed job plan is measured once per window.
func runServe(ctx context.Context, spec serveSpec, cfg runConfig, res *result) error {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setup, worldS, classifyS, serverS []float64
	var wins []*servedWindow
	var recs []*stageRec
	for i := 0; i < spec.setups; i++ {
		serving := i >= spec.setups-spec.servings
		prefix := fmt.Sprintf("s%d/", i)
		snapDir := filepath.Join(cfg.runDir, fmt.Sprintf("snap%d", i))
		// Only the serving set-ups' stage spans are traced.
		var t *tracer
		if serving {
			t = tr
		}
		sys, err := setUpServer(ctx, spec, cfg, snapDir, prefix, t)
		if err != nil {
			return err
		}
		setup = append(setup, sys.setupT.Seconds())
		worldS = append(worldS, sys.w.worldT.Seconds())
		classifyS = append(classifyS, sys.w.classifyT.Seconds())
		serverS = append(serverS, sys.serverT.Seconds())
		if !serving {
			if err := sys.close(); err != nil {
				return err
			}
			continue
		}
		win, err := serveWindow(ctx, sys, spec, cfg, cfg.window/time.Duration(spec.servings), snapDir, prefix, tr, res)
		if err != nil {
			return err
		}
		wins = append(wins, win)
		for _, r := range sys.recs {
			recs = append(recs, r)
		}
	}

	// Correctness beyond the per-request checks: every job finished done,
	// and the KB grew by exactly the entities the jobs wrote back.
	versions := make(map[uint64]bool)
	var probeUS, candUS []float64
	var probeHits, candHits, exactQueries, exactFound int
	var search, lookup, late []float64
	var epochs, jobs, enqueue, wait, run, snaps []float64
	var epochSum, tables, matched, isNew float64
	var written, laneMax, snapshots int
	var heap, alloc, capacity []float64
	var snapBytes int64
	var segments, searchHits, searchMisses, instHits, instMisses float64
	var gc gcSample
	for wi, win := range wins {
		rd, wl := win.rd, win.wl
		res.attempted += len(rd.samples) + wl.attempted + 1
		res.failed += wl.failed
		for _, e := range wl.errs {
			if len(res.errs) < maxErrs {
				res.errs = append(res.errs, e)
			}
		}
		for i, smp := range rd.samples {
			out, req := rd.outs[i], rd.reqs[i]
			if out.err != nil {
				res.fail("%v", out.err)
				continue
			}
			if req.lookup {
				lookup = append(lookup, ms(smp.latency()))
				continue
			}
			search = append(search, ms(smp.latency()))
			versions[uint64(wi)<<32|out.version] = true
			if out.probeUS > 0 {
				probeUS = append(probeUS, out.probeUS)
				probeHits += out.probeHits
			}
			if req.q.exact {
				exactQueries++
				if out.exact {
					exactFound++
				}
			}
		}
		if win.after.KBInstances != win.before.KBInstances+wl.written {
			res.fail("KB grew %d -> %d, but jobs wrote back %d", win.before.KBInstances, win.after.KBInstances, wl.written)
		}
		for _, j := range wl.jobs {
			if j.status != "done" {
				continue
			}
			if j.snapshot {
				snaps = append(snaps, ms(j.done.Sub(j.due)))
				continue
			}
			epochs = append(epochs, ms(j.runEnd.Sub(j.epochStart)))
			jobs = append(jobs, ms(j.done.Sub(j.due)))
			epochSum += j.runEnd.Sub(j.epochStart).Seconds()
			tables += float64(len(j.tables))
			matched += float64(j.stats.Matched)
			isNew += float64(j.stats.NewEntities)
			enqueue = append(enqueue, ms(j.accepted.Sub(j.sent)))
			// The epoch can start before the 202 reaches the writer; the
			// wait is then zero.
			wait = append(wait, ms(max(0, j.epochStart.Sub(j.accepted))))
			run = append(run, ms(j.runEnd.Sub(j.epochStart)))
		}
		written += wl.written
		snapshots += wl.snapshots
		laneMax = max(laneMax, wl.laneMax)
		candUS = append(candUS, wl.probeUS...)
		candHits += wl.probeHits
		late = append(late, lateness(rd.samples)...)
		heap = append(heap, win.heapMB)
		alloc = append(alloc, win.readAlloc)
		capacity = append(capacity, win.capacity)
		snapBytes += win.snapBytes
		segments += float64(win.after.Storage.Segments)
		b, a := win.before.Cache.ByPath, win.after.Cache.ByPath
		searchHits += float64(a["search"].Hits - b["search"].Hits)
		searchMisses += float64(a["search"].Misses - b["search"].Misses)
		instHits += float64(a["instances"].Hits - b["instances"].Hits)
		instMisses += float64(a["instances"].Misses - b["instances"].Misses)
		gc.cpuS += win.gc.cpuS
		gc.pauseMaxMS = max(gc.pauseMaxMS, win.gc.pauseMaxMS)
	}

	ep, se, lo := summarize(epochs), summarize(search), summarize(lookup)
	res.note("%d windows: %d ingest jobs, %d snapshots; epochs n=%d tail=p%.1f; searches n=%d tail=p%.1f; lookups n=%d tail=p%.1f",
		len(wins), len(epochs), snapshots, ep.N, ep.TailPct, se.N, se.TailPct, lo.N, lo.TailPct)
	res.note("searches for an unseen row label: %.1f%% (the share of classified row labels no seed KB label matches)",
		100*wins[0].rd.unseenShare)
	res.note("read latency limit %.0f ms on the tail: search %.1f ms, lookup %.1f ms (%s)",
		readLimitMS, se.Tail, lo.Tail, limitVerdict(se.Tail, lo.Tail))
	res.e2e = map[string]float64{
		"setup_s":             median(setup),
		"ingest_tables_per_s": ratio(tables, epochSum),
		"epoch_ms_p50":        ep.P50,
		"epoch_ms_tail":       ep.Tail,
		"ingest_job_ms_p50":   median(jobs),
		"search_ms_p50":       se.P50,
		"search_ms_tail":      se.Tail,
		"lookup_ms_p50":       lo.P50,
		"lookup_ms_tail":      lo.Tail,
		"read_alloc_bytes":    median(alloc),
		"live_heap_mb":        median(heap),
	}
	if !cfg.trace {
		return nil
	}

	n := float64(len(wins))
	layer := map[string]float64{
		"setup.world_s":           median(worldS),
		"setup.classify_s":        median(classifyS),
		"setup.server_s":          median(serverS),
		"runtime.gc_cpu_s":        gc.cpuS / n,
		"runtime.gc_pause_ms_max": gc.pauseMaxMS,
	}
	if err := addStageLayers(layer, tr.snapshot(), func(span) bool { return true }, recs...); err != nil {
		res.attempted++
		res.fail("%v", err)
	}
	// Stage self times and counts are per window, as the other layers.
	for _, st := range stageNames {
		layer[string(st)+".self_s"] /= n
	}
	layer["core.commit_s"] /= n
	for _, name := range []string{"match.tables", "build.tables", "cluster.rows", "fuse.clusters", "detect.entities", "writeback.candidates"} {
		layer[name] /= n
	}
	layer["detect.matched"] = matched / n
	layer["detect.new"] = isNew / n
	layer["writeback.written"] = float64(written) / n
	layer["writeback.useful_ratio"] = ratio(float64(written)/n, layer["writeback.candidates"])
	layer["retrieval.candidates_us_p50"] = median(candUS)
	layer["retrieval.candidates_per_query"] = ratio(float64(candHits), float64(len(candUS)))
	layer["retrieval.search_us_p50"] = median(probeUS)
	layer["retrieval.search_hits_per_query"] = ratio(float64(probeHits), float64(len(probeUS)))
	layer["retrieval.exact_recall"] = ratio(float64(exactFound), float64(exactQueries))
	layer["cache.hit_ratio.search"] = ratio(searchHits, searchHits+searchMisses)
	layer["cache.hit_ratio.instances"] = ratio(instHits, instHits+instMisses)
	layer["cache.generations"] = float64(len(versions)) / n
	layer["scheduler.enqueue_ms_p50"] = median(enqueue)
	layer["scheduler.queue_wait_ms_p50"] = median(wait)
	layer["scheduler.run_ms_p50"] = median(run)
	layer["scheduler.lane_depth_max"] = float64(laneMax)
	layer["snapshot.job_ms_p50"] = median(snaps)
	layer["snapshot.bytes_written"] = float64(snapBytes) / n
	layer["snapshot.segments"] = segments / n
	layer["loadgen.late_ms_p50"] = median(late)
	layer["loadgen.late_ms_max"] = quantile(late, 1)
	layer["loadgen.idle_capacity_rps"] = median(capacity)
	res.layer = layer
	res.spans = tr
	return nil
}

// serveWindow measures one window of reads and writes against sys, then
// closes it. Span keys carry prefix.
func serveWindow(ctx context.Context, sys *system, spec serveSpec, cfg runConfig, d time.Duration, snapDir, prefix string, tr *tracer, res *result) (*servedWindow, error) {
	win := &servedWindow{}
	reader, writer := client(spec.readInFlight > 1), client(false)
	defer reader.CloseIdleConnections()
	defer writer.CloseIdleConnections()
	if err := call(writer, "GET", sys.base+"/v1/stats", nil, http.StatusOK, &win.before); err != nil {
		sys.close()
		return nil, err
	}
	snapBytes0 := dirSize(snapDir)
	// Earlier set-ups' garbage is collected before the window.
	runtime.GC()
	gc0 := readGC()

	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(d)
	rd := newReadLoad(sys, reader, tr, prefix, cfg.seed, int(d/spec.readEvery)+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.samples = openLoop(ctx, start, spec.readEvery, end, spec.readInFlight, rd.do)
	}()
	ew := watchEpochs(sys.engines)
	wl := &writeLoad{sys: sys, c: writer, spec: spec, tr: tr, prefix: prefix, ends: ew}
	wl.run(ctx, planJobs(sys.w, spec, start, end))
	ew.stop()
	wg.Wait()
	win.gc = readGC().sub(gc0)
	win.rd, win.wl = rd, wl

	if err := call(writer, "GET", sys.base+"/v1/stats", nil, http.StatusOK, &win.after); err != nil {
		sys.close()
		return nil, err
	}
	// Stage spans are parented to their epoch span once the epoch's end
	// is known.
	for _, j := range wl.jobs {
		if j.epochSpan != 0 {
			tr.adopt(sys.recs[j.class].epochKey(j.classEpoch), j.epochSpan)
		}
	}
	if cfg.trace {
		win.capacity = idleCapacity(sys, reader, cfg.seed, spec.readInFlight, time.Second, res)
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	win.heapMB = float64(m.HeapAlloc) / (1 << 20)
	win.snapBytes = dirSize(snapDir) - snapBytes0
	if err := sys.close(); err != nil {
		return nil, err
	}
	// Allocation is measured over uniform draws, as on the ingest
	// workloads: popularity-skewed ones would make one seed's reads dearer
	// than another's.
	g := newQueryGen(sys.w, kb.EvalClasses(), cfg.seed, false)
	texts := make([]string, spec.ingest.Reads)
	ids := make([]kb.InstanceID, spec.ingest.Reads)
	for i := range texts {
		texts[i] = g.search().text
		ids[i], _ = g.lookup()
	}
	win.readAlloc = readAllocBytes(ctx, sys.w.kb, texts, ids)
	// The window's records must not keep its system alive into the next
	// window, whose collector would then pace against twice the heap.
	rd.sys, wl.sys, wl.ends = nil, nil, nil
	return win, nil
}

// idleCapacity returns the reads per second the server sustains with the
// writer idle: the reader's connection, inFlight reads outstanding, closed
// loop for d, over reads drawn as the window's are but from another seed
// stream. Each response is checked as in the window.
func idleCapacity(sys *system, c *http.Client, seed int64, inFlight int, d time.Duration, res *result) float64 {
	rd := newReadLoad(sys, c, nil, "", seed+1_000_003, 1<<14)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for range inFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				if i := int(next.Add(1) - 1); i < len(rd.reqs) {
					rd.outs[i].err = rd.read(i)
				}
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(rd.reqs))
	elapsed := time.Since(start)
	for i := range n {
		res.attempted++
		if err := rd.outs[i].err; err != nil {
			res.fail("idle capacity read: %v", err)
		}
	}
	return float64(n) / elapsed.Seconds()
}

// readLimitMS is the read latency limit: the tail of search and lookup
// latency on serve-mixed should stay below it at the workload's rate.
const readLimitMS = 250.0

func limitVerdict(tails ...float64) string {
	for _, t := range tails {
		if t > readLimitMS {
			return "missed"
		}
	}
	return "met"
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// readLoad is the open-loop reader: even requests search, odd ones look
// an instance up. The requests are drawn from the seed before the window
// opens; each one's outcome goes to its own slot, so requests in flight
// together share nothing.
type readLoad struct {
	sys         *system
	c           *http.Client
	tr          *tracer
	prefix      string
	unseenShare float64
	reqs        []readReq
	outs        []readOut
	samples     []sample
}

type readReq struct {
	lookup bool
	q      query
	id     kb.InstanceID
	label  string
}

type readOut struct {
	err     error
	version uint64
	// exact reports that a search for a KB label found that label.
	exact     bool
	probeUS   float64
	probeHits int
}

func newReadLoad(sys *system, c *http.Client, tr *tracer, prefix string, seed int64, n int) *readLoad {
	g := newQueryGen(sys.w, kb.EvalClasses(), seed, true)
	r := &readLoad{sys: sys, c: c, tr: tr, prefix: prefix, unseenShare: g.unseenShare, reqs: make([]readReq, n), outs: make([]readOut, n)}
	for i := range r.reqs {
		if i%2 == 1 {
			id, label := g.lookup()
			r.reqs[i] = readReq{lookup: true, id: id, label: label}
		} else {
			r.reqs[i] = readReq{q: g.search()}
		}
	}
	return r
}

func (r *readLoad) kind(i int) string {
	if r.reqs[i].lookup {
		return "lookup"
	}
	return "search"
}

func (r *readLoad) do(i int) error {
	sent := time.Now()
	defer func() { r.tr.add("http."+r.kind(i), fmt.Sprintf("%sr%d", r.prefix, i), 0, sent, time.Now()) }()
	r.outs[i].err = r.read(i)
	return r.outs[i].err
}

func (r *readLoad) read(i int) error {
	req, out := r.reqs[i], &r.outs[i]
	if req.lookup {
		var v serve.InstanceView
		if err := call(r.c, "GET", fmt.Sprintf("%s/v1/instances/%d", r.sys.base, req.id), nil, http.StatusOK, &v); err != nil {
			return fmt.Errorf("lookup %d: %v", req.id, err)
		}
		if v.ID != int(req.id) || len(v.Labels) == 0 || v.Labels[0] != req.label {
			return fmt.Errorf("lookup %d: got instance %d labels %q, want label %q", req.id, v.ID, v.Labels, req.label)
		}
		return nil
	}
	q := req.q
	var v serve.SearchView
	u := fmt.Sprintf("%s/v1/search?k=%d&q=%s", r.sys.base, searchK, url.QueryEscape(q.text))
	if err := call(r.c, "GET", u, nil, http.StatusOK, &v); err != nil {
		return fmt.Errorf("search %q: %v", q.text, err)
	}
	out.version = v.KBVersion
	hs := make([]hit, len(v.Hits))
	for j, h := range v.Hits {
		hs[j] = hit{kb.InstanceID(h.ID), h.Label, h.Score}
	}
	exact, err := checkHits(r.sys.w.kb, q, hs)
	if err != nil {
		return err
	}
	out.exact = exact
	if r.tr != nil {
		// Retrieval probe: the same query straight against the KB.
		t := time.Now()
		hits, err := r.sys.w.kb.SearchInstances(context.Background(), q.text, kb.CandidateOpts{K: searchK})
		d := time.Since(t)
		r.tr.add("probe.search", fmt.Sprintf("%sr%d", r.prefix, i), 0, t, t.Add(d))
		if err == nil {
			out.probeUS, out.probeHits = us(d), len(hits)
		}
	}
	return nil
}

// plannedJob is one scheduled writer action and what became of it.
type plannedJob struct {
	due      time.Time
	snapshot bool
	class    kb.ClassID
	tables   []int
	// classEpoch is the engine epoch the job runs as (the n-th ingest of
	// its class, engines being fresh).
	classEpoch int

	id                   int64
	sent, accepted, done time.Time
	epochStart, runEnd   time.Time
	status               string
	stats                *ltee.IngestStats
	epochSpan            int
}

// planJobs spreads each class's batches evenly through the plan, in
// stream order, and the plan evenly over [start, end), with a snapshot
// after every snapEvery ingest jobs. Batches that do not fit are left
// out. Interleaving by stream position makes every class's retained state,
// and so its epoch cost, grow at the same pace over the window, rather
// than the class with the most batches running its dearest epochs alone
// at the end.
func planJobs(w *world, spec serveSpec, start, end time.Time) []*plannedJob {
	var jobs []*plannedJob
	pos := make(map[*plannedJob]float64)
	for _, c := range kb.EvalClasses() {
		bs := batches(w.byClass[c], spec.ingest.Batch)
		for b, tables := range bs {
			j := &plannedJob{class: c, tables: tables, classEpoch: b + 1}
			jobs = append(jobs, j)
			pos[j] = (float64(b) + 0.5) / float64(len(bs))
		}
	}
	sort.SliceStable(jobs, func(a, b int) bool { return pos[jobs[a]] < pos[jobs[b]] })
	every := max(spec.minJobEvery, end.Sub(start)/time.Duration(len(jobs)))
	var plan []*plannedJob
	for n, j := range jobs {
		j.due = start.Add(time.Duration(n) * every)
		if !j.due.Before(end) {
			break
		}
		plan = append(plan, j)
		if (n+1)%spec.snapEvery == 0 {
			plan = append(plan, &plannedJob{due: j.due.Add(every / 2), snapshot: true})
		}
	}
	return plan
}

// writeLoad submits the planned jobs on schedule over one connection and
// polls each until it finishes.
type writeLoad struct {
	sys    *system
	c      *http.Client
	spec   serveSpec
	tr     *tracer
	prefix string
	ends   *epochWatch
	jobs   []*plannedJob

	attempted, failed int
	errs              []string
	written           int
	snapshots         int
	laneMax           int
	probeUS           []float64
	probeHits         int
}

func (w *writeLoad) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < maxErrs {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w *writeLoad) run(ctx context.Context, plan []*plannedJob) {
	w.jobs = plan
	next := 0
	var pending []*plannedJob
	var lastStats time.Time
	deadline := time.Time{}
	for next < len(plan) || len(pending) > 0 {
		if ctx.Err() != nil {
			return
		}
		now := time.Now()
		if next < len(plan) && !plan[next].due.After(now) {
			if w.submit(plan[next]) {
				pending = append(pending, plan[next])
			}
			next++
			continue
		}
		if next == len(plan) && deadline.IsZero() {
			deadline = now.Add(w.spec.drain)
		}
		if !deadline.IsZero() && now.After(deadline) {
			for _, j := range pending {
				w.fail("job %d (%s) not finished %v after the window", j.id, j.class, w.spec.drain)
			}
			return
		}
		pending = w.poll(pending)
		if w.tr != nil && now.Sub(lastStats) >= 100*time.Millisecond {
			w.sampleLanes()
			lastStats = now
		}
		wait := w.spec.pollEvery
		if next < len(plan) {
			wait = min(wait, time.Until(plan[next].due))
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
}

// submit posts one job and records its acceptance.
func (w *writeLoad) submit(j *plannedJob) bool {
	w.attempted++
	j.sent = time.Now()
	var v serve.JobView
	var err error
	if j.snapshot {
		err = call(w.c, "POST", w.sys.base+"/v1/snapshot", nil, http.StatusAccepted, &v)
	} else {
		err = call(w.c, "POST", w.sys.base+"/v1/ingest",
			serve.IngestRequest{Class: string(j.class), Tables: j.tables}, http.StatusAccepted, &v)
	}
	j.accepted = time.Now()
	if err != nil {
		w.fail("submit: %v", err)
		return false
	}
	j.id = v.ID
	return true
}

// poll checks every pending job once and returns those still unfinished.
func (w *writeLoad) poll(pending []*plannedJob) []*plannedJob {
	var still []*plannedJob
	for _, j := range pending {
		var v serve.JobView
		if err := call(w.c, "GET", fmt.Sprintf("%s/v1/jobs/%d", w.sys.base, j.id), nil, http.StatusOK, &v); err != nil {
			w.fail("job %d: %v", j.id, err)
			continue
		}
		switch v.Status {
		case "queued", "running":
			still = append(still, j)
			continue
		}
		j.done, j.status = time.Now(), v.Status
		if v.Status != "done" || v.Error != "" {
			w.fail("job %d (%s %s) ended %s: %s", j.id, j.class, v.Kind, v.Status, v.Error)
			continue
		}
		if j.snapshot {
			w.snapshots++
			w.tr.add("job.snapshot", fmt.Sprintf("%sj%d", w.prefix, j.id), 0, j.due, j.done)
			continue
		}
		w.finishIngest(j, v)
	}
	return still
}

// finishIngest checks a done ingest job and derives its epoch timing.
func (w *writeLoad) finishIngest(j *plannedJob, v serve.JobView) {
	rec := w.sys.recs[j.class]
	start, ok := rec.started(j.classEpoch)
	if !ok || v.Stats == nil {
		w.status(j, "job %d (%s): no epoch %d events or stats", j.id, j.class, j.classEpoch)
		return
	}
	st := *v.Stats
	j.stats = &st
	j.epochStart = start
	// The epoch ended when its engine published it: no later than the job
	// was seen done, nor than the class's next epoch began (a class's
	// epochs run one at a time).
	j.runEnd = j.done
	if end, ok := w.ends.end(j.class, j.classEpoch); ok && end.Before(j.runEnd) {
		j.runEnd = end
	}
	if next, ok := rec.started(j.classEpoch + 1); ok && next.Before(j.runEnd) {
		j.runEnd = next
	}
	rec.close(j.classEpoch, j.runEnd)
	switch {
	case st.Epoch != j.classEpoch:
		w.status(j, "job %d ran as epoch %d, planned %d", j.id, st.Epoch, j.classEpoch)
	case st.Matched+st.NewEntities != st.Entities:
		w.status(j, "job %d: matched %d + new %d != entities %d", j.id, st.Matched, st.NewEntities, st.Entities)
	case st.BatchTables != len(j.tables):
		w.status(j, "job %d: batch tables %d, sent %d", j.id, st.BatchTables, len(j.tables))
	}
	w.written += st.WrittenBack
	if w.tr == nil {
		return
	}
	key := fmt.Sprintf("%sj%d", w.prefix, j.id)
	jobSpan := w.tr.reserve("job", key, 0, j.due)
	w.tr.finish(jobSpan, j.done)
	w.tr.add("loadgen.wait", key, jobSpan, j.due, j.sent)
	w.tr.add("enqueue", key, jobSpan, j.sent, j.accepted)
	if j.epochStart.After(j.accepted) {
		w.tr.add("queue_wait", key, jobSpan, j.accepted, j.epochStart)
	}
	j.epochSpan = w.tr.add("epoch", rec.epochKey(j.classEpoch), jobSpan, j.epochStart, j.runEnd)
	_, hits, lat := candidateProbe(w.tr, key, jobSpan, w.sys.w, j.class, j.tables)
	w.probeUS = append(w.probeUS, lat...)
	w.probeHits += hits
}

// epochWatch notes when each engine publishes an epoch, by polling
// Engine.Epoch every millisecond in process: the job status a client polls
// over HTTP trails the epoch's end by however long that poll waits behind
// the reads in flight.
type epochWatch struct {
	done chan struct{}
	wg   sync.WaitGroup

	mu   sync.Mutex
	ends map[kb.ClassID]map[int]time.Time
}

func watchEpochs(engines map[kb.ClassID]*ltee.Engine) *epochWatch {
	ew := &epochWatch{done: make(chan struct{}), ends: make(map[kb.ClassID]map[int]time.Time)}
	last := make(map[kb.ClassID]int)
	for c, eng := range engines {
		ew.ends[c] = make(map[int]time.Time)
		last[c] = eng.Epoch()
	}
	ew.wg.Add(1)
	go func() {
		defer ew.wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ew.done:
				return
			case <-tick.C:
				now := time.Now()
				ew.mu.Lock()
				for c, eng := range engines {
					for e := eng.Epoch(); last[c] < e; {
						last[c]++
						ew.ends[c][last[c]] = now
					}
				}
				ew.mu.Unlock()
			}
		}
	}()
	return ew
}

// end returns when class published epoch, if the watch saw it.
func (ew *epochWatch) end(class kb.ClassID, epoch int) (time.Time, bool) {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	t, ok := ew.ends[class][epoch]
	return t, ok
}

// stop ends the watch and waits for its goroutine.
func (ew *epochWatch) stop() {
	close(ew.done)
	ew.wg.Wait()
}

// status records a failed job check.
func (w *writeLoad) status(j *plannedJob, format string, args ...any) {
	j.status = "bad"
	w.fail(format, args...)
}

// sampleLanes records the deepest writer lane seen.
func (w *writeLoad) sampleLanes() {
	var st serve.StatsView
	if err := call(w.c, "GET", w.sys.base+"/v1/stats", nil, http.StatusOK, &st); err != nil {
		w.fail("stats: %v", err)
		return
	}
	for _, q := range st.Queues {
		w.laneMax = max(w.laneMax, q.Queued)
	}
}
