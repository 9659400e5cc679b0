package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/ltee"
	"repro/ltee/dtype"
	"repro/ltee/kb"
	"repro/ltee/scenario"
	"repro/ltee/webtable"
)

// ingestSpec sizes an ingest workload. Each pass generates the world and
// corpus, classifies the corpus, and streams the classified tables of
// every evaluation class, in a seed-drawn order, through one fresh engine
// per class, Batch tables per epoch, write-back on.
type ingestSpec struct {
	World, Corpus float64
	Batch         int
	// Orders is the number of seed-drawn stream orders a run cycles
	// through, one per pass: the median epoch depends on which tables open
	// the Song stream, so each run averages over several orders.
	Orders int
	// Reads is the number of distinct seed-drawn searches, and of lookups,
	// that the read phase after each pass cycles through.
	Reads int
}

// candidateK is the new detector's label-candidate K (newdet CandidateK),
// used by the retrieval probe.
const candidateK = 20

// searchK is the serve layer's default search K.
const searchK = 10

// world is one set-up system: the generated scenario, its classified
// tables, and the per-phase set-up times.
type world struct {
	suite             *scenario.Suite
	kb                *kb.KB
	corpus            *webtable.Corpus
	byClass           map[kb.ClassID][]int
	worldT, classifyT time.Duration
}

// worldSeed seeds the generated world and corpus of every workload. The
// run's -seed draws the streams (the order in which the classified tables
// arrive, and so each batch) and the reads, not the world: worlds of
// different seeds differ by a third in ingest cost (120 Song tables hold
// 639 to 806 rows over seeds 1-6), which would swamp any change worth
// measuring.
const worldSeed = 1

// streamOrder returns the stream order of pass (1-based) of a run with
// seed that cycles through orders orders.
func streamOrder(seed int64, pass, orders int) *rand.Rand {
	return rand.New(rand.NewSource(seed*int64(orders) + int64((pass-1)%orders)))
}

// buildWorld generates the scenario and classifies its corpus; each
// class's stream is then its classified tables, shuffled by order unless
// it is nil.
func buildWorld(ctx context.Context, scale, corpus float64, order *rand.Rand, workers int) (*world, error) {
	t0 := time.Now()
	s := scenario.NewSuite(scenario.Options{WorldScale: scale, CorpusScale: corpus, Seed: worldSeed, Workers: workers})
	t1 := time.Now()
	byClass, err := s.TablesByClass(ctx)
	if err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	t2 := time.Now()
	out := make(map[kb.ClassID][]int, len(byClass))
	for _, c := range kb.EvalClasses() {
		ids := append([]int(nil), byClass[c]...)
		if order != nil {
			order.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		out[c] = ids
	}
	return &world{kb: s.World.KB, corpus: s.Corpus, byClass: out,
		worldT: t1.Sub(t0), classifyT: t2.Sub(t1)}, nil
}

// batches splits ids into consecutive batches of n.
func batches(ids []int, n int) [][]int {
	var out [][]int
	for i := 0; i < len(ids); i += n {
		out = append(out, ids[i:min(i+n, len(ids))])
	}
	return out
}

// passResult is what one ingest pass measured.
type passResult struct {
	setup, worldT, classifyT, engineT time.Duration
	epochs                            []float64 // ms
	tables                            int
	ingestWall                        time.Duration
	search, lookup                    []float64 // ms
	readAlloc                         float64   // bytes per read
	unseenShare                       float64
	heapMB                            float64
	digest                            string
	layer                             map[string]float64
}

// runIngest measures passes until the window closes (at least one) and
// reports the workload's metrics into res.
func runIngest(ctx context.Context, spec ingestSpec, cfg runConfig, res *result) error {
	var passes []passResult
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	minPasses, window := 1, cfg.window
	if cfg.record {
		minPasses, window = spec.Orders, 0
	}
	gc0 := readGC()
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < window {
		p, err := ingestPass(ctx, spec, cfg, len(passes)+1, tr, res)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	gc := readGC().sub(gc0)

	// Each pass's output must match the digest recorded for its seed and
	// stream order, and the pass that ran the same order before it.
	k := spec.Orders
	want, recorded := recordedDigests(cfg.workload, cfg.seed, k)
	for i, p := range passes {
		res.attempted++
		switch {
		case recorded && p.digest != want[i%k]:
			res.fail("pass %d: output digest %s, recorded for seed %d: %s", i+1, p.digest, cfg.seed, want[i%k])
		case i >= k && p.digest != passes[i-k].digest:
			res.fail("pass %d: output digest %s differs from pass %d (%s)", i+1, p.digest, i+1-k, passes[i-k].digest)
		}
	}
	for i := 0; i < len(passes) && i < k; i++ {
		res.digests = append(res.digests, passes[i].digest)
	}
	if !recorded {
		res.note("no digests recorded for %s seed %d; passes of one order checked against each other: %q",
			cfg.workload, cfg.seed, res.digests)
	}

	var setup, tput, heap, alloc, epochs, search, lookup []float64
	for _, p := range passes {
		setup = append(setup, p.setup.Seconds())
		alloc = append(alloc, p.readAlloc)
		tput = append(tput, float64(p.tables)/p.ingestWall.Seconds())
		heap = append(heap, p.heapMB)
		epochs = append(epochs, p.epochs...)
		search = append(search, p.search...)
		lookup = append(lookup, p.lookup...)
	}
	ep, se, lo := summarize(epochs), summarize(search), summarize(lookup)
	res.note("live heap after each pass, MB: %.1f", heap)
	res.note("searches for an unseen row label: %.1f%% (the share of classified row labels no seed KB label matches)",
		100*passes[0].unseenShare)
	res.note("%d passes of %d tables; epochs n=%d tail=p%.1f; searches n=%d tail=p%.1f; lookups n=%d tail=p%.1f",
		len(passes), passes[0].tables, ep.N, ep.TailPct, se.N, se.TailPct, lo.N, lo.TailPct)
	res.e2e = map[string]float64{
		"setup_s":             median(setup),
		"ingest_tables_per_s": median(tput),
		"epoch_ms_p50":        ep.P50,
		"epoch_ms_tail":       ep.Tail,
		// Every workload reports every end-to-end metric. Batches are due
		// back to back here, so a batch's due-to-done time is its epoch
		// time, and this repeats epoch_ms_p50; only serve-mixed separates
		// the two, by the scheduler's queueing.
		"ingest_job_ms_p50": ep.P50,
		"search_ms_p50":     se.P50,
		"search_ms_tail":    se.Tail,
		"lookup_ms_p50":     lo.P50,
		"lookup_ms_tail":    lo.Tail,
		"read_alloc_bytes":  median(alloc),
		"live_heap_mb":      median(heap),
	}
	if cfg.trace {
		layer := medianLayers(passes)
		// Layers only serve-mixed exercises: no cache, scheduler,
		// snapshot or open-loop generator runs here.
		for _, name := range serveOnlyLayers {
			layer[name] = 0
		}
		layer["runtime.gc_cpu_s"] = gc.cpuS / float64(len(passes))
		layer["runtime.gc_pause_ms_max"] = gc.pauseMaxMS
		res.layer = layer
		res.spans = tr
	}
	return nil
}

// serveOnlyLayers are the per-layer metrics of the serving path.
var serveOnlyLayers = []string{
	"cache.hit_ratio.search", "cache.hit_ratio.instances", "cache.generations",
	"scheduler.enqueue_ms_p50", "scheduler.queue_wait_ms_p50", "scheduler.run_ms_p50", "scheduler.lane_depth_max",
	"snapshot.job_ms_p50", "snapshot.bytes_written", "snapshot.segments",
	"loadgen.late_ms_p50", "loadgen.late_ms_max", "loadgen.idle_capacity_rps",
}

// medianLayers takes the per-pass median of every per-layer metric.
func medianLayers(passes []passResult) map[string]float64 {
	vals := make(map[string][]float64)
	for _, p := range passes {
		for k, v := range p.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// ingestPass sets up one system and streams every class through it.
func ingestPass(ctx context.Context, spec ingestSpec, cfg runConfig, pass int, tr *tracer, res *result) (passResult, error) {
	var p passResult
	// Every pass starts from a collected heap, so the previous pass's
	// garbage does not slow this one by a varying amount.
	runtime.GC()
	t0 := time.Now()
	w, err := buildWorld(ctx, spec.World, spec.Corpus, streamOrder(cfg.seed, pass, spec.Orders), cfg.workers)
	if err != nil {
		return p, err
	}
	classes := kb.EvalClasses()
	engines := make([]*ltee.Engine, len(classes))
	recs := make([]*stageRec, len(classes))
	passKey := fmt.Sprintf("p%d", pass)
	tEng := time.Now()
	for i, c := range classes {
		opts := []ltee.Option{ltee.WithWorkers(cfg.workers)}
		if tr != nil {
			recs[i] = newStageRec(tr, passKey+"/", c)
			opts = append(opts, ltee.WithProgress(recs[i].event))
		}
		if engines[i], err = ltee.NewEngine(w.kb, w.corpus, c, opts...); err != nil {
			return p, err
		}
	}
	p.worldT, p.classifyT, p.engineT = w.worldT, w.classifyT, time.Since(tEng)
	p.setup = time.Since(t0)

	passSpan := tr.reserve("pass", passKey, 0, time.Now())
	var probeUS []float64
	var probeHits, probeQueries, matched, isNew, written int
	for i, c := range classes {
		eng := engines[i]
		for bi, batch := range batches(w.byClass[c], spec.Batch) {
			key := fmt.Sprintf("%s/%s/e%d", passKey, kb.ClassShortName(c), bi+1)
			before := w.kb.NumInstances()
			t := time.Now()
			epochSpan := tr.reserve("epoch", key, passSpan, t)
			if recs[i] != nil {
				recs[i].open(epochSpan)
			}
			_, st, err := eng.Ingest(ctx, batch)
			done := time.Now()
			if recs[i] != nil {
				recs[i].close(bi+1, done)
			}
			tr.finish(epochSpan, done)
			d := done.Sub(t)
			res.attempted++
			if err != nil {
				res.fail("%s: epoch error: %v", key, err)
				continue
			}
			p.epochs = append(p.epochs, ms(d))
			p.ingestWall += d
			p.tables += len(batch)
			if err := checkStats(st, before, w.kb.NumInstances(), len(batch)); err != nil {
				res.fail("%s: %v", key, err)
			}
			matched += st.Matched
			isNew += st.NewEntities
			written += st.WrittenBack
			if tr != nil {
				n, hits, lat := candidateProbe(tr, key, passSpan, w, c, batch)
				probeQueries += n
				probeHits += hits
				probeUS = append(probeUS, lat...)
			}
		}
	}
	tr.finish(passSpan, time.Now())
	p.digest = outputDigest(w.kb, classes, engines)

	rs := inProcessReads(ctx, w, classes, cfg.seed, spec.Reads, tr != nil, res)
	p.search, p.lookup, p.readAlloc = rs.search, rs.lookup, rs.allocBytes
	p.unseenShare = rs.unseenShare

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heapMB = float64(m.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(w)
	runtime.KeepAlive(engines)

	if tr != nil {
		p.layer = map[string]float64{
			"setup.world_s":    p.worldT.Seconds(),
			"setup.classify_s": p.classifyT.Seconds(),
			"setup.server_s":   p.engineT.Seconds(),
		}
		inPass := func(s span) bool { return strings.HasPrefix(s.Key, passKey+"/") }
		if err := addStageLayers(p.layer, tr.snapshot(), inPass, recs...); err != nil {
			res.attempted++
			res.fail("pass %d: %v", pass, err)
		}
		p.layer["detect.matched"] = float64(matched)
		p.layer["detect.new"] = float64(isNew)
		p.layer["writeback.written"] = float64(written)
		p.layer["writeback.useful_ratio"] = ratio(float64(written), p.layer["writeback.candidates"])
		p.layer["retrieval.candidates_us_p50"] = median(probeUS)
		p.layer["retrieval.candidates_per_query"] = ratio(float64(probeHits), float64(probeQueries))
		p.layer["retrieval.search_us_p50"] = median(rs.searchUS)
		p.layer["retrieval.search_hits_per_query"] = ratio(float64(rs.hits), float64(len(rs.searchUS)))
		p.layer["retrieval.exact_recall"] = ratio(float64(rs.exactFound), float64(rs.exactQueries))
	}
	return p, nil
}

// In-process reads take microseconds, where one interrupt or timer tick
// would set the tail. So each latency sample is the mean over a chunk of
// consecutive calls lasting at least readChunk, long enough that a
// hiccup of a millisecond moves it by a few percent, and each pass takes
// readChunks samples of searches and as many of lookups.
const (
	readChunk  = 25 * time.Millisecond
	readChunks = 10
)

// readStats is what the in-process read phase measured.
type readStats struct {
	search, lookup []float64 // ms per read, one sample per chunk
	// allocBytes is the heap allocated per read; unseenShare is the
	// share of searches for an unseen row label.
	allocBytes, unseenShare float64
	// searchUS times each search on its own (traced runs only).
	searchUS                       []float64
	hits, exactQueries, exactFound int
}

// inProcessReads searches and looks up seed-drawn reads against the grown
// KB, closed loop, cycling through n of each, drawn uniformly: no cache
// sits in front of these calls, so skew would only make one seed's reads
// dearer than another's. The collector is paused over the timed chunks:
// a call takes microseconds and allocates about as many kilobytes, so
// whether a collection lands in a chunk would split the chunks into two
// modes, with the median or tail between them. A collection between
// chunks, untimed, keeps the garbage to one chunk's. The collection cost
// the reads cause shows instead in read_alloc_bytes, the heap they
// allocate per call, measured first. Every timed result is checked once
// its chunk has been timed.
func inProcessReads(ctx context.Context, w *world, classes []kb.ClassID, seed int64, n int, perCall bool, res *result) readStats {
	k := w.kb
	g := newQueryGen(w, classes, seed, false)
	qs := make([]query, n)
	texts := make([]string, n)
	ids := make([]kb.InstanceID, n)
	labels := make([]string, n)
	for i := range qs {
		qs[i] = g.search()
		texts[i] = qs[i].text
		ids[i], labels[i] = g.lookup()
	}
	opts := kb.CandidateOpts{K: searchK}
	rs := readStats{unseenShare: g.unseenShare}
	rs.allocBytes = readAllocBytes(ctx, k, texts, ids)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	type searched struct {
		q    query
		hits []kb.SearchHit
		err  error
	}
	var done []searched
	next := 0
	for c := 0; c < readChunks; c++ {
		runtime.GC()
		done = done[:0]
		t := time.Now()
		for len(done) == 0 || time.Since(t) < readChunk {
			q := qs[next%n]
			next++
			var s time.Time
			if perCall {
				s = time.Now()
			}
			hits, err := k.SearchInstances(ctx, q.text, opts)
			if perCall {
				rs.searchUS = append(rs.searchUS, us(time.Since(s)))
			}
			done = append(done, searched{q, hits, err})
		}
		rs.search = append(rs.search, ms(time.Since(t))/float64(len(done)))
		for _, d := range done {
			res.attempted++
			if d.err != nil {
				res.fail("search %q: %v", d.q.text, d.err)
				continue
			}
			rs.hits += len(d.hits)
			hs := make([]hit, len(d.hits))
			for x, h := range d.hits {
				hs[x] = hit{h.Instance, k.InstanceLabel(h.Instance), h.Score}
			}
			exact, err := checkHits(k, d.q, hs)
			if err != nil {
				res.fail("%v", err)
			} else if d.q.exact {
				rs.exactQueries++
				if exact {
					rs.exactFound++
				}
			}
		}
	}

	var found []*kb.Instance
	next = 0
	for c := 0; c < readChunks; c++ {
		runtime.GC()
		found = found[:0]
		first := next
		t := time.Now()
		for len(found) == 0 || time.Since(t) < readChunk {
			found = append(found, k.Instance(ids[next%n]))
			next++
		}
		rs.lookup = append(rs.lookup, ms(time.Since(t))/float64(len(found)))
		for x, in := range found {
			i := (first + x) % n
			res.attempted++
			if in == nil || in.Label() != labels[i] {
				res.fail("lookup %d: want label %q, got %v", ids[i], labels[i], in)
			}
		}
	}
	return rs
}

// readAllocBytes returns the heap bytes allocated per read over one round
// of the searches qs and the lookups ids, after an uncounted round has
// filled the KB's lazily built token caches, as they are in a long-lived
// process. Nothing else may allocate meanwhile.
func readAllocBytes(ctx context.Context, k *kb.KB, qs []string, ids []kb.InstanceID) float64 {
	opts := kb.CandidateOpts{K: searchK}
	round := func() {
		for _, q := range qs {
			k.SearchInstances(ctx, q, opts)
		}
		for _, id := range ids {
			k.Instance(id)
		}
	}
	round()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	round()
	runtime.ReadMemStats(&m1)
	return ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(qs)+len(ids)))
}

// checkStats verifies one epoch's IngestStats: the detections partition
// the entities, the batch was all new, and the KB grew by exactly the
// entities written back.
func checkStats(st ltee.IngestStats, before, after, batch int) error {
	switch {
	case st.Matched+st.NewEntities != st.Entities:
		return fmt.Errorf("matched %d + new %d != entities %d", st.Matched, st.NewEntities, st.Entities)
	case st.BatchTables != batch:
		return fmt.Errorf("batch tables %d, sent %d", st.BatchTables, batch)
	case after != before+st.WrittenBack || st.KBInstances != after:
		return fmt.Errorf("KB grew %d -> %d (stats say %d) but %d were written back",
			before, after, st.KBInstances, st.WrittenBack)
	}
	return nil
}

// candidateProbe times KB.Candidates for every row label of the batch
// with the detector's K, as the build and detect stages query it.
func candidateProbe(tr *tracer, key string, parent int, w *world, class kb.ClassID, batch []int) (queries, hits int, lat []float64) {
	t0 := time.Now()
	probe := tr.reserve("probe.candidates", key, parent, t0)
	for _, tid := range batch {
		t := w.corpus.Table(tid)
		for r := 0; r < t.NumRows(); r++ {
			label := t.RowLabel(r)
			if label == "" {
				continue
			}
			s := time.Now()
			c := w.kb.Candidates(label, kb.CandidateOpts{K: candidateK, Class: class})
			lat = append(lat, us(time.Since(s)))
			queries++
			hits += len(c)
		}
	}
	tr.finish(probe, time.Now())
	return queries, hits, lat
}

// addStageLayers adds the stage self times and unit counts of the spans
// selected by keep, and checks that stages plus commit sum to the epochs.
//
// core.commit_s is the epoch time outside every stage span. The engine
// emits no event after write-back, so the last stage span runs to the end
// of the epoch and covers the commit (stats and the publish under the
// engine lock); commit is the time before the first stage event (input
// checks and the match context). The check sums the stage spans' full
// durations, not their self times: a stage span that runs past its epoch,
// overlaps another, or was given no epoch makes the sum exceed the wall
// time and the run fail.
func addStageLayers(layer map[string]float64, spans []span, keep func(span) bool, recs ...*stageRec) error {
	self := selfByName(spans, keep)
	stage := make(map[string]bool, len(stageNames))
	for _, st := range stageNames {
		stage[string(st)] = true
		layer[string(st)+".self_s"] = self[string(st)].Seconds()
	}
	var stageSum, wall time.Duration
	for _, s := range spans {
		switch {
		case !keep(s):
		case s.Name == "epoch":
			wall += s.dur()
		case stage[s.Name]:
			stageSum += s.dur()
		}
	}
	layer["core.commit_s"] = self["epoch"].Seconds()
	counts := map[ltee.Stage]string{
		ltee.StageMatch: "match.tables", ltee.StageBuild: "build.tables", ltee.StageCluster: "cluster.rows",
		ltee.StageFuse: "fuse.clusters", ltee.StageDetect: "detect.entities", ltee.StageWriteBack: "writeback.candidates",
	}
	for st, name := range counts {
		n := 0
		for _, r := range recs {
			if r != nil {
				n += r.count(st)
			}
		}
		layer[name] = float64(n)
	}
	return checkEpochSum(stageSum, self["epoch"], wall)
}

// hit is one search result as the benchmark checks it.
type hit struct {
	id    kb.InstanceID
	label string
	score float64
}

// checkHits checks one search result list against the KB: at most K hits,
// scores non-increasing, each hit's label the KB's label of its instance,
// and at least one hit for a query that is a KB label. It also reports
// whether a hit carries the queried label exactly; the label index ranks
// by token TF-IDF, so ties on a common token can push the exact instance
// out of the top K, which the recall metric shows rather than a failure.
func checkHits(k *kb.KB, q query, hits []hit) (exact bool, err error) {
	if len(hits) > searchK {
		return false, fmt.Errorf("search %q: %d hits, asked for %d", q.text, len(hits), searchK)
	}
	if q.exact && len(hits) == 0 {
		return false, fmt.Errorf("search %q: no hits for a KB label", q.text)
	}
	for i, h := range hits {
		if i > 0 && h.score > hits[i-1].score {
			return false, fmt.Errorf("search %q: hit %d scores %g above hit %d", q.text, i, h.score, i-1)
		}
		if want := k.InstanceLabel(h.id); h.label != want {
			return false, fmt.Errorf("search %q: hit %d labelled %q, KB says %q", q.text, h.id, h.label, want)
		}
		exact = exact || strings.EqualFold(h.label, q.label)
	}
	return exact, nil
}

// outputDigest hashes what the streams produced: every class's final
// entities with their fused facts and detections, then the instances the
// engines wrote back into the KB.
func outputDigest(k *kb.KB, classes []kb.ClassID, engines []*ltee.Engine) string {
	h := sha256.New()
	for i, c := range classes {
		out := engines[i].Last()
		fmt.Fprintf(h, "class %s epoch %d\n", c, engines[i].Epoch())
		if out == nil {
			continue
		}
		for j, e := range out.Entities {
			d := out.Detections[j]
			fmt.Fprintf(h, "entity %q new=%t matched=%t inst=%d score=%.9g rows=%d\n",
				e.Labels, d.IsNew, d.Matched, d.Instance, d.BestScore, len(e.Rows))
			hashFacts(h, e.Facts)
		}
	}
	for _, c := range classes {
		for _, id := range k.InstancesOf(c) {
			prov, epoch := k.InstanceProvenance(id)
			if prov != kb.ProvenanceIngest {
				continue
			}
			in := k.Instance(id)
			fmt.Fprintf(h, "written %d %s epoch=%d labels=%q\n", id, c, epoch, in.Labels)
			hashFacts(h, in.Facts)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hashFacts writes facts to w in property order.
func hashFacts(w io.Writer, facts map[kb.PropertyID]dtype.Value) {
	pids := make([]string, 0, len(facts))
	for pid := range facts {
		pids = append(pids, string(pid))
	}
	sort.Strings(pids)
	for _, pid := range pids {
		fmt.Fprintf(w, " %s=%s\n", pid, facts[kb.PropertyID(pid)].String())
	}
}
