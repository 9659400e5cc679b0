// Package cluster re-exports the row clustering machinery: prepared rows,
// the similarity metric set, the learned scorer, and the one-shot
// clustering entry point — enough to run clustering studies (see
// examples/songs) on public imports only.
//
// This is a research-surface package with best-effort stability; it is not
// part of the v1 contract (see package ltee).
package cluster

import (
	"context"

	"repro/internal/cluster"
)

// Row is one prepared table row: its label forms, sparse vectors, typed
// values and blocking keys.
type Row = cluster.Row

// ImplicitAttr is one implicit attribute derived from a table's context.
type ImplicitAttr = cluster.ImplicitAttr

// Clustering is a produced row clustering.
type Clustering = cluster.Clustering

// Options configures a clustering run; NewOptions returns the defaults.
type Options = cluster.Options

// Scorer scores row pairs by aggregating the similarity metrics.
type Scorer = cluster.Scorer

// Metric is one row-pair similarity metric.
type Metric = cluster.Metric

// NewOptions returns the default clustering options: parallel greedy with
// blocking and KLj refinement.
func NewOptions() Options { return cluster.NewOptions() }

// MetricSet returns the full metric set of the paper (LABEL, BOW, PHI,
// ATTRIBUTE, IMPLICIT_ATT, SAME_TABLE).
func MetricSet() []Metric { return cluster.MetricSet() }

// MetricPrefix returns the first n metrics of the set (the ablation order
// of Table 7).
func MetricPrefix(n int) []Metric { return cluster.MetricPrefix(n) }

// Cluster partitions rows so that rows describing the same instance share
// a cluster (the one-shot form of the incremental clusterer the engine
// uses). Cancelling ctx stops the run early with a partial clustering.
func Cluster(ctx context.Context, rows []*Row, scorer *Scorer, opts Options) *Clustering {
	return cluster.Cluster(ctx, rows, scorer, opts)
}
