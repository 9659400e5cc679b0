package report

import (
	"context"
	"sort"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/gold"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/par"
	"repro/internal/webtable"
)

// Table7Row is one ablation step of the row clustering study.
type Table7Row struct {
	Run         string
	PCP, AR, F1 float64
	MI          float64 // metric importance of the newly added metric
}

// Table7Data reproduces the row clustering ablation (paper Table 7): for
// each prefix of the metric set (LABEL, +BOW, +PHI, +ATTRIBUTE,
// +IMPLICIT_ATT, +SAME_TABLE), learn the combined aggregator on the
// training folds, cluster the test-fold rows, and evaluate with the
// Hassanzadeh scores, averaging over classes and folds. The MI column is
// the learned importance of each metric in the all-metrics aggregator.
func (s *Suite) Table7Data(ctx context.Context) ([]Table7Row, error) {
	names := []string{"LABEL", "+ BOW", "+ PHI", "+ ATTRIBUTE", "+ IMPLICIT_ATT", "+ SAME_TABLE"}
	nMetrics := len(names)
	pcp := make([][]float64, nMetrics)
	ar := make([][]float64, nMetrics)
	f1 := make([][]float64, nMetrics)
	var importances [][]float64

	for _, class := range kb.EvalClasses() {
		g := s.Golds[class]
		folds := s.Folds(class)
		rows, mapping, err := s.clusterRows(ctx, class)
		if err != nil {
			return nil, err
		}
		rowByRef := make(map[webtable.RowRef]*cluster.Row, len(rows))
		for _, r := range rows {
			rowByRef[r.Ref] = r
		}
		_ = mapping
		for fold := range folds {
			train, test := splitFolds(folds, fold)
			trainSet := toSet(train)
			pairs := trainingPairs(g, trainSet, rows)
			// Test rows: rows of test-fold clusters.
			var testRows []*cluster.Row
			var goldRows [][]webtable.RowRef
			for _, ci := range test {
				c := g.Clusters[ci]
				var present []webtable.RowRef
				for _, ref := range c.Rows {
					if r, ok := rowByRef[ref]; ok {
						testRows = append(testRows, r)
						present = append(present, ref)
					}
				}
				if len(present) > 0 {
					goldRows = append(goldRows, present)
				}
			}
			if len(testRows) == 0 {
				continue
			}
			for n := 1; n <= nMetrics; n++ {
				metrics := cluster.MetricPrefix(n)
				scorer, combined := cluster.LearnScorer(metrics, pairs, s.Seed)
				cl := cluster.Cluster(ctx, testRows, scorer, s.clusterOptions())
				var produced [][]webtable.RowRef
				for _, members := range cl.Clusters {
					refs := make([]webtable.RowRef, len(members))
					for i, r := range members {
						refs[i] = r.Ref
					}
					produced = append(produced, refs)
				}
				cs := eval.EvaluateClustering(goldRows, produced)
				pcp[n-1] = append(pcp[n-1], cs.PCP)
				ar[n-1] = append(ar[n-1], cs.AR)
				f1[n-1] = append(f1[n-1], cs.F1)
				if n == nMetrics {
					importances = append(importances, combined.Importance())
				}
			}
		}
	}
	mi := averageVectors(importances, nMetrics)
	out := make([]Table7Row, nMetrics)
	for i := range out {
		out[i] = Table7Row{
			Run: names[i],
			PCP: avg(pcp[i]), AR: avg(ar[i]), F1: avg(f1[i]),
			MI: mi[i],
		}
	}
	return out, ctx.Err()
}

// Table7 renders Table7Data.
func (s *Suite) Table7(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Table 7: Row clustering ablation (averages over classes and folds)",
		Headers: []string{"Run", "PCP", "AR", "F1", "MI"},
	}
	rows, err := s.Table7Data(ctx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Add(r.Run, r.PCP, r.AR, r.F1, r.MI)
	}
	return t, nil
}

// ClusterRows returns the prepared rows of the class's gold tables,
// built with the learned first-iteration attribute mapping — the input a
// clustering study (e.g. examples/songs) feeds to cluster.Cluster with
// different scorers. The rows are cached per class; callers must treat
// them as read-only.
func (s *Suite) ClusterRows(ctx context.Context, class kb.ClassID) ([]*cluster.Row, error) {
	rows, _, err := s.clusterRows(ctx, class)
	return rows, err
}

// clusterRows builds (and caches per class) the prepared rows of a class's
// gold tables using the first-iteration attribute mapping. The matching
// fan-out runs on the suite's worker pool with an ordered reduction.
func (s *Suite) clusterRows(ctx context.Context, class kb.ClassID) ([]*cluster.Row, map[int]map[int]kb.PropertyID, error) {
	cr, err := s.rowsOf.Get(class, func() (classRows, error) {
		if err := s.prepare(ctx); err != nil {
			return classRows{}, err
		}
		g := s.Golds[class]
		models, err := s.ModelsFor(ctx, class)
		if err != nil {
			return classRows{}, err
		}
		mctx := match.NewContext(s.World.KB, s.Corpus)
		mctx.Class = class
		firstMatchers := match.FirstIterationMatchers()
		perTable, err := par.Map(ctx, s.Workers, g.TableIDs, func(_ int, tid int) map[int]kb.PropertyID {
			t := s.Corpus.Table(tid)
			match.EnsureDetected(t)
			return match.MatchAttributes(mctx, models.AttrFirst, firstMatchers, t)
		})
		if err != nil {
			return classRows{}, err
		}
		mapping := make(map[int]map[int]kb.PropertyID, len(g.TableIDs))
		for i, tid := range g.TableIDs {
			mapping[tid] = perTable[i]
		}
		builder := &cluster.Builder{
			KB: s.World.KB, Corpus: s.Corpus, Class: class, Mapping: mapping,
		}
		return classRows{rows: builder.Build(g.TableIDs), mapping: mapping}, nil
	})
	return cr.rows, cr.mapping, err
}

// trainingPairs builds labeled row pairs from the training clusters.
func trainingPairs(g *gold.Standard, trainSet map[int]bool, rows []*cluster.Row) []cluster.PairExample {
	var annotated []*cluster.Row
	for _, r := range rows {
		if ci, ok := g.RowCluster[r.Ref]; ok && trainSet[ci] {
			annotated = append(annotated, r)
		}
	}
	var pairs []cluster.PairExample
	byBlock := make(map[string][]*cluster.Row)
	for _, r := range annotated {
		for _, b := range r.Blocks {
			byBlock[b] = append(byBlock[b], r)
		}
	}
	seen := make(map[[2]webtable.RowRef]bool)
	add := func(a, b *cluster.Row, m bool) {
		ka, kp := a.Ref, b.Ref
		if kp.Table < ka.Table || (kp.Table == ka.Table && kp.Row < ka.Row) {
			ka, kp = kp, ka
		}
		key := [2]webtable.RowRef{ka, kp}
		if ka == kp || seen[key] {
			return
		}
		seen[key] = true
		pairs = append(pairs, cluster.PairExample{A: a, B: b, Match: m})
	}
	// Visit clusters and blocks in sorted order: pair order feeds the
	// learners, so map iteration order must not leak into the models.
	byCluster := make(map[int][]*cluster.Row)
	for _, r := range annotated {
		ci := g.RowCluster[r.Ref]
		byCluster[ci] = append(byCluster[ci], r)
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
				add(members[i], members[j], true)
			}
		}
	}
	blockNames := make([]string, 0, len(byBlock))
	for b := range byBlock {
		blockNames = append(blockNames, b)
	}
	sort.Strings(blockNames)
	for _, b := range blockNames {
		members := byBlock[b]
		for i := 0; i < len(members) && len(pairs) < 3000; i++ {
			for j := i + 1; j < len(members); j++ {
				if g.RowCluster[members[i].Ref] != g.RowCluster[members[j].Ref] {
					add(members[i], members[j], false)
				}
			}
		}
	}
	for i := 0; i+1 < len(annotated) && len(pairs) < 3000; i += 2 {
		if g.RowCluster[annotated[i].Ref] != g.RowCluster[annotated[i+1].Ref] {
			add(annotated[i], annotated[i+1], false)
		}
	}
	return pairs
}

func splitFolds(folds [][]int, test int) (train, testIdx []int) {
	for f, idx := range folds {
		if f == test {
			testIdx = append(testIdx, idx...)
		} else {
			train = append(train, idx...)
		}
	}
	return train, testIdx
}

func toSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

func averageVectors(vs [][]float64, n int) []float64 {
	out := make([]float64, n)
	if len(vs) == 0 {
		return out
	}
	for _, v := range vs {
		for i := 0; i < n && i < len(v); i++ {
			out[i] += v[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(vs))
	}
	return out
}

// AblationAggregation compares the three aggregation strategies on the full
// metric set (§3.2: weighted average 0.81, random forest 0.82, combined
// 0.83).
func (s *Suite) AblationAggregation(ctx context.Context) (*TextTable, error) {
	t := &TextTable{
		Title:   "Ablation: clustering score aggregation strategies (F1)",
		Headers: []string{"Aggregation", "F1"},
	}
	type variant struct {
		name string
		mode int // 0=WA, 1=RF, 2=combined
	}
	for _, v := range []variant{{"Weighted average", 0}, {"Random forest", 1}, {"Combined", 2}} {
		var f1s []float64
		for _, class := range kb.EvalClasses() {
			g := s.Golds[class]
			folds := s.Folds(class)
			rows, _, err := s.clusterRows(ctx, class)
			if err != nil {
				return nil, err
			}
			rowByRef := make(map[webtable.RowRef]*cluster.Row, len(rows))
			for _, r := range rows {
				rowByRef[r.Ref] = r
			}
			for fold := range folds {
				train, test := splitFolds(folds, fold)
				pairs := trainingPairs(g, toSet(train), rows)
				metrics := cluster.MetricSet()
				scorer, combined := cluster.LearnScorer(metrics, pairs, s.Seed)
				switch v.mode {
				case 0:
					scorer = &cluster.Scorer{Metrics: metrics, Agg: combined.WA}
				case 1:
					if combined.RF != nil {
						scorer = &cluster.Scorer{Metrics: metrics, Agg: combined.RF}
					}
				}
				var testRows []*cluster.Row
				var goldRows [][]webtable.RowRef
				for _, ci := range test {
					c := g.Clusters[ci]
					var present []webtable.RowRef
					for _, ref := range c.Rows {
						if r, ok := rowByRef[ref]; ok {
							testRows = append(testRows, r)
							present = append(present, ref)
						}
					}
					if len(present) > 0 {
						goldRows = append(goldRows, present)
					}
				}
				if len(testRows) == 0 {
					continue
				}
				cl := cluster.Cluster(ctx, testRows, scorer, s.clusterOptions())
				var produced [][]webtable.RowRef
				for _, members := range cl.Clusters {
					refs := make([]webtable.RowRef, len(members))
					for i, r := range members {
						refs[i] = r.Ref
					}
					produced = append(produced, refs)
				}
				f1s = append(f1s, eval.EvaluateClustering(goldRows, produced).F1)
			}
		}
		t.Add(v.name, avg(f1s))
	}
	return t, ctx.Err()
}
