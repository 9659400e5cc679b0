// Package core implements the paper's primary contribution: the complete
// LTEE pipeline that, given a knowledge base and a corpus of web tables,
// constructs descriptions of formerly unknown long-tail entities. The
// pipeline (Figure 1) runs schema matching, row clustering, entity
// creation, and new detection, iterating twice: the second iteration uses
// the row clusters and entity-to-instance correspondences of the first run
// to refine the schema mapping with the duplicate-based matchers.
//
// Two entry points share the implementation: Pipeline runs one-shot
// batches (the paper's setting), and Engine ingests table batches
// incrementally, writing newly discovered entities back into the KB after
// each epoch so later batches match against them.
package core

import (
	"context"
	"sort"

	"repro/internal/agg"
	"repro/internal/cluster"
	"repro/internal/fusion"
	"repro/internal/kb"
	"repro/internal/match"
	"repro/internal/newdet"
	"repro/internal/par"
	"repro/internal/webtable"
)

// Config configures a pipeline run for one class.
type Config struct {
	KB     *kb.KB
	Corpus *webtable.Corpus
	Class  kb.ClassID
	// Iterations is the number of pipeline iterations (default 2, as the
	// paper found a third iteration adds nothing).
	Iterations int
	// Scoring is the fusion value-scoring method (default Voting).
	Scoring fusion.ScoringMethod
	// ClusterOpts configures the clustering algorithms.
	ClusterOpts cluster.Options
	// MinClassRowFrac is the minimum fraction of rows with a KB candidate
	// for a table to be matched to a class (default 0.3).
	MinClassRowFrac float64
	// Dedup enables the post-clustering entity deduplication extension
	// (§5 lessons learned): near-identical entities whose facts agree are
	// merged before new detection, lowering the entity-to-instance
	// matching ratio for homonym-heavy classes.
	Dedup bool
	// DedupConfig tunes the deduplication when Dedup is set.
	DedupConfig fusion.DedupConfig
	// Seed drives all learned components.
	Seed int64
	// Workers bounds the worker pool of the per-table schema matching and
	// per-entity new detection fan-outs (0 = GOMAXPROCS, 1 = serial). The
	// parallel and serial paths produce identical output.
	Workers int
	// Progress, when non-nil, receives an Event at the start of every
	// pipeline stage (see Event for the callback contract). Progress never
	// affects the pipeline output.
	Progress func(Event)
}

// DefaultConfig returns the standard two-iteration configuration.
func DefaultConfig(k *kb.KB, corpus *webtable.Corpus, class kb.ClassID) Config {
	return Config{
		KB: k, Corpus: corpus, Class: class,
		Iterations:      2,
		Scoring:         fusion.Voting,
		ClusterOpts:     cluster.NewOptions(),
		MinClassRowFrac: 0.3,
		Seed:            1,
	}
}

// Models bundles the learned components of the pipeline.
type Models struct {
	// AttrFirst is the attribute-to-property model of the first iteration
	// (KB-Overlap and KB-Label only).
	AttrFirst *match.Model
	// AttrSecond is the refined model using all five matchers.
	AttrSecond *match.Model
	// ClusterScorer aggregates the row similarity metrics.
	ClusterScorer *cluster.Scorer
	// ClusterModel is the combined aggregator behind ClusterScorer (for
	// importance reporting).
	ClusterModel *agg.Combined
	// Detector is the learned new-detection classifier.
	Detector *newdet.Detector
	// DetectorModel is the combined aggregator behind Detector.
	DetectorModel *agg.Combined
}

// Output is the result of a pipeline run on one class.
type Output struct {
	Class kb.ClassID
	// TableIDs are the tables processed.
	TableIDs []int
	// Mapping is the final attribute-to-property mapping per table.
	Mapping map[int]map[int]kb.PropertyID
	// MatchScores holds the aggregated matching score per mapped column.
	MatchScores map[fusion.ColKey]float64
	// Rows are the prepared rows that were clustered.
	Rows []*cluster.Row
	// Clustering is the final row clustering.
	Clustering *cluster.Clustering
	// Entities are the created entities, parallel to Detections.
	Entities []*fusion.Entity
	// Detections classify each entity as new or existing.
	Detections []newdet.Result
	// RowInstance maps rows of matched entities to their KB instances.
	RowInstance map[webtable.RowRef]kb.InstanceID
}

// NewEntities returns the entities classified as new.
func (o *Output) NewEntities() []*fusion.Entity {
	var out []*fusion.Entity
	for i, e := range o.Entities {
		if o.Detections[i].IsNew {
			out = append(out, e)
		}
	}
	return out
}

// ExistingEntities returns the entities matched to existing instances,
// paired with their instances.
func (o *Output) ExistingEntities() ([]*fusion.Entity, []kb.InstanceID) {
	var es []*fusion.Entity
	var ids []kb.InstanceID
	for i, e := range o.Entities {
		if o.Detections[i].Matched {
			es = append(es, e)
			ids = append(ids, o.Detections[i].Instance)
		}
	}
	return es, ids
}

// Pipeline executes the LTEE process for one class as a one-shot batch: a
// thin wrapper over a single-use Engine with write-back disabled, so a Run
// leaves the knowledge base untouched.
type Pipeline struct {
	Cfg    Config
	Models Models
}

// New assembles a pipeline.
func New(cfg Config, models Models) *Pipeline {
	return &Pipeline{Cfg: normalizeConfig(cfg), Models: models}
}

// ClassifyTables runs data-type detection, label-attribute detection and
// table-to-class matching over the whole corpus and returns the table IDs
// matched to each class. Tables are matched concurrently on a pool of at
// most workers goroutines (0 = GOMAXPROCS, 1 = serial) — each worker owns
// its table, so the in-place detection annotations are race-free — and
// reduced in corpus order, making the output identical at every worker
// count. Cancelling ctx stops the fan-out between tables and returns the
// context's error.
func ClassifyTables(ctx context.Context, k *kb.KB, corpus *webtable.Corpus, minRowFrac float64, workers int) (map[kb.ClassID][]int, error) {
	if minRowFrac <= 0 {
		minRowFrac = 0.3
	}
	mctx := match.NewContext(k, corpus)
	classes, err := par.Map(ctx, workers, corpus.Tables, func(_ int, t *webtable.Table) kb.ClassID {
		match.EnsureDetected(t)
		return match.MatchTableClass(mctx, t, minRowFrac).Class
	})
	if err != nil {
		return nil, err
	}
	out := make(map[kb.ClassID][]int)
	for i, t := range corpus.Tables {
		if class := classes[i]; class != "" {
			out[class] = append(out[class], t.ID)
		}
	}
	return out, nil
}

// Run executes the configured number of pipeline iterations over the given
// tables (all already matched to the pipeline's class) and returns the
// final output. Run delegates to a fresh Engine ingesting everything as
// one batch; the KB is not modified.
//
// Cancelling ctx makes Run return the context's error at the next
// checkpoint (see Engine.Ingest); the one-shot engine is discarded, so a
// cancelled Run has no effect at all.
func (p *Pipeline) Run(ctx context.Context, tableIDs []int) (*Output, error) {
	e := NewEngine(p.Cfg, p.Models)
	e.WriteBack = false
	out, _, err := e.Ingest(ctx, tableIDs)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sortedTableIDs returns a deduplicated ascending copy of the table IDs:
// output assembly iterates tables in this order, and the parallel matching
// fan-out relies on distinct IDs so no two workers touch the same table.
func sortedTableIDs(tableIDs []int) []int {
	ids := make([]int, len(tableIDs))
	copy(ids, tableIDs)
	sort.Ints(ids)
	dedup := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			dedup = append(dedup, id)
		}
	}
	return dedup
}

// defaultScorer is the unlearned fallback: uniform weighted average over
// all six metrics with threshold 0.55.
func defaultScorer() *cluster.Scorer {
	metrics := cluster.MetricSet()
	w := make([]float64, len(metrics))
	for i := range w {
		w[i] = 1 / float64(len(w))
	}
	return &cluster.Scorer{
		Metrics: metrics,
		Agg:     &agg.WeightedAverage{Weights: w, Threshold: 0.55},
	}
}

// defaultDetector is the unlearned fallback detector.
func defaultDetector(k *kb.KB) *newdet.Detector {
	metrics := newdet.MetricSet()
	w := make([]float64, len(metrics))
	for i := range w {
		w[i] = 1 / float64(len(w))
	}
	return newdet.NewDetector(k, &agg.WeightedAverage{Weights: w, Threshold: 0.5})
}
