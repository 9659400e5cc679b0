package core

import (
	"context"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dtype"
	"repro/internal/fusion"
	"repro/internal/gold"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/newdet"
	"repro/internal/par"
	"repro/internal/webtable"
)

// Train learns all pipeline models from the gold standard, using only the
// clusters whose indices appear in trainClusters (the learning folds of the
// cross-validation). Passing all cluster indices trains on the full gold
// standard.
//
// Cancelling ctx abandons training at the next phase boundary (or inside
// the per-table fan-outs) and returns the context's error; the partial
// Models are discarded. Train has no side effects, so a cancelled call can
// simply be retried.
func Train(ctx context.Context, cfg Config, g *gold.Standard, trainClusters []int) (Models, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	trainSet := make(map[int]bool, len(trainClusters))
	for _, i := range trainClusters {
		trainSet[i] = true
	}
	// Training tables: annotated tables whose rows mostly belong to
	// training clusters.
	tableVotes := make(map[int][2]int) // table -> (train rows, total rows)
	for ref, ci := range g.RowCluster {
		v := tableVotes[ref.Table]
		if trainSet[ci] {
			v[0]++
		}
		v[1]++
		tableVotes[ref.Table] = v
	}
	var trainTables []int
	for _, tid := range g.TableIDs {
		v := tableVotes[tid]
		if v[1] > 0 && v[0]*2 >= v[1] {
			trainTables = append(trainTables, tid)
		}
	}
	sort.Ints(trainTables)
	trainTableSet := make(map[int]bool, len(trainTables))
	for _, tid := range trainTables {
		trainTableSet[tid] = true
	}

	// Attribute examples restricted to training tables.
	var attrs []match.Example
	for _, ex := range g.Attributes {
		if trainTableSet[ex.Table.ID] {
			attrs = append(attrs, ex)
		}
	}

	mc := match.NewContext(cfg.KB, cfg.Corpus)
	mc.Class = cfg.Class
	models := Models{}
	cfg.emit(Event{Stage: StageTrain, Detail: "attr-first", Count: len(attrs)})
	models.AttrFirst = match.Learn(mc, match.FirstIterationMatchers(), cfg.Class, attrs, cfg.Seed)
	if err := ctx.Err(); err != nil {
		return Models{}, err
	}

	// Iteration outputs for the second-iteration model come from the gold
	// annotations (standing in for a first pipeline run on the learning
	// set): gold correspondences as RowInstance, gold clusters as
	// RowCluster, and the first model's mapping as the preliminary
	// mapping.
	rowInstance := make(map[webtable.RowRef]kb.InstanceID)
	rowCluster := make(map[webtable.RowRef]int)
	for ref, ci := range g.RowCluster {
		if !trainSet[ci] {
			continue
		}
		rowCluster[ref] = ci
		c := g.Clusters[ci]
		if !c.IsNew {
			rowInstance[ref] = c.Instance
		}
	}
	prelim := make(map[match.ColRef]kb.PropertyID)
	mapping := make(map[int]map[int]kb.PropertyID)
	firstMatchers := match.FirstIterationMatchers()
	// First-iteration mapping per training table, fanned out over the pool
	// (trainTables is sorted and duplicate-free, so each worker owns its
	// table) and reduced serially in table order.
	perTable, err := par.Map(ctx, cfg.Workers, trainTables, func(_, tid int) map[int]kb.PropertyID {
		t := cfg.Corpus.Table(tid)
		match.EnsureDetected(t)
		return match.MatchAttributes(mc, models.AttrFirst, firstMatchers, t)
	})
	if err != nil {
		return Models{}, err
	}
	for i, tid := range trainTables {
		m := perTable[i]
		mapping[tid] = m
		for col, pid := range m {
			prelim[match.ColRef{Table: tid, Col: col}] = pid
		}
	}
	cfg.emit(Event{Stage: StageTrain, Detail: "attr-second", Count: len(attrs)})
	mc2 := mc.WithIterationOutput(rowInstance, rowCluster, prelim)
	models.AttrSecond = match.Learn(mc2, match.AllMatchers(), cfg.Class, attrs, cfg.Seed)
	if err := ctx.Err(); err != nil {
		return Models{}, err
	}

	// Row clustering: build rows for the training tables with the
	// first-iteration mapping and learn the combined aggregator from gold
	// pair labels.
	builder := &cluster.Builder{
		KB: cfg.KB, Corpus: cfg.Corpus, Class: cfg.Class, Mapping: mapping,
	}
	rows := builder.Build(trainTables)
	pairs := labeledPairs(g, trainSet, rows, 4000)
	cfg.emit(Event{Stage: StageTrain, Detail: "cluster-scorer", Count: len(pairs)})
	models.ClusterScorer, models.ClusterModel = cluster.LearnScorer(cluster.MetricSet(), pairs, cfg.Seed)
	if err := ctx.Err(); err != nil {
		return Models{}, err
	}

	// New detection: entities created from the gold training clusters,
	// labeled with the gold new/existing annotations.
	examples, err := detectionExamples(ctx, cfg, g, trainSet, rows, mapping)
	if err != nil {
		return Models{}, err
	}
	cfg.emit(Event{Stage: StageTrain, Detail: "detector", Count: len(examples)})
	detAgg, _ := newdet.LearnAggregator(cfg.KB, newdet.MetricSet(), examples, cfg.Seed)
	models.DetectorModel = detAgg
	models.Detector = newdet.LearnThresholds(cfg.KB, newdet.MetricSet(), detAgg, examples, cfg.Seed)
	return models, nil
}

// labeledPairs generates labeled row pairs from the gold clustering:
// positives are intra-cluster pairs; negatives are block-sharing pairs from
// different clusters plus a spread of random cross-cluster pairs. maxPairs
// bounds the output.
func labeledPairs(g *gold.Standard, trainSet map[int]bool, rows []*cluster.Row, maxPairs int) []cluster.PairExample {
	annotated := rows[:0:0]
	for _, r := range rows {
		if ci, ok := g.RowCluster[r.Ref]; ok && trainSet[ci] {
			annotated = append(annotated, r)
		}
	}
	var pairs []cluster.PairExample
	// Block index to find negative candidates cheaply.
	byBlock := make(map[string][]*cluster.Row)
	for _, r := range annotated {
		for _, b := range r.Blocks {
			byBlock[b] = append(byBlock[b], r)
		}
	}
	seen := make(map[[2]webtable.RowRef]bool)
	addPair := func(a, b *cluster.Row, match bool) {
		ka, kp := a.Ref, b.Ref
		if kp.Table < ka.Table || (kp.Table == ka.Table && kp.Row < ka.Row) {
			ka, kp = kp, ka
		}
		key := [2]webtable.RowRef{ka, kp}
		if seen[key] || ka == kp {
			return
		}
		seen[key] = true
		pairs = append(pairs, cluster.PairExample{A: a, B: b, Match: match})
	}
	// Positives: all intra-cluster pairs.
	byCluster := make(map[int][]*cluster.Row)
	for _, r := range annotated {
		byCluster[g.RowCluster[r.Ref]] = append(byCluster[g.RowCluster[r.Ref]], r)
	}
	cids := make([]int, 0, len(byCluster))
	for ci := range byCluster {
		cids = append(cids, ci)
	}
	sort.Ints(cids)
	for _, ci := range cids {
		members := byCluster[ci]
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				addPair(members[i], members[j], true)
			}
		}
	}
	// Negatives: block-sharing cross-cluster pairs (the hard cases).
	blocks := make([]string, 0, len(byBlock))
	for b := range byBlock {
		blocks = append(blocks, b)
	}
	sort.Strings(blocks)
	for _, b := range blocks {
		members := byBlock[b]
		for i := 0; i < len(members) && len(pairs) < maxPairs; i++ {
			for j := i + 1; j < len(members); j++ {
				if g.RowCluster[members[i].Ref] != g.RowCluster[members[j].Ref] {
					addPair(members[i], members[j], false)
				}
			}
		}
		if len(pairs) >= maxPairs {
			break
		}
	}
	// Easy negatives: adjacent rows across the annotated list.
	for i := 0; i+1 < len(annotated) && len(pairs) < maxPairs; i += 2 {
		a, b := annotated[i], annotated[i+1]
		if g.RowCluster[a.Ref] != g.RowCluster[b.Ref] {
			addPair(a, b, false)
		}
	}
	return pairs
}

// detectionExamples creates entities from the gold training clusters and
// labels them with the gold annotations.
func detectionExamples(ctx context.Context, cfg Config, g *gold.Standard, trainSet map[int]bool, rows []*cluster.Row, mapping map[int]map[int]kb.PropertyID) ([]newdet.Example, error) {
	rowByRef := make(map[webtable.RowRef]*cluster.Row, len(rows))
	for _, r := range rows {
		rowByRef[r.Ref] = r
	}
	src := &fusion.Sources{
		KB: cfg.KB, Corpus: cfg.Corpus, Class: cfg.Class,
		Mapping:    mapping,
		Thresholds: dtype.DefaultThresholds(),
		Scoring:    fusion.Voting,
	}
	// Entity creation per training cluster runs on the pool (VOTING scoring
	// keeps the sources read-only); the nil-filtering reduction keeps the
	// examples in cluster order.
	created, err := par.Map(ctx, cfg.Workers, g.Clusters, func(ci int, c *gold.Cluster) *newdet.Example {
		if !trainSet[ci] {
			return nil
		}
		var members []*cluster.Row
		for _, ref := range c.Rows {
			if r, ok := rowByRef[ref]; ok {
				members = append(members, r)
			}
		}
		if len(members) == 0 {
			return nil
		}
		e := fusion.Create(src, members)
		return &newdet.Example{Entity: e, IsNew: c.IsNew, Instance: c.Instance}
	})
	if err != nil {
		return nil, err
	}
	var out []newdet.Example
	for _, ex := range created {
		if ex != nil {
			out = append(out, *ex)
		}
	}
	return out, nil
}
