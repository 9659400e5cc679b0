package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestClusteringPartitionProperty: for random row sets, the clustering is
// always a partition — every row appears in exactly one cluster, and Assign
// agrees with cluster membership.
func TestClusteringPartitionProperty(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRows%40) + 2
		rows := make([]*Row, n)
		for i := range rows {
			label := fmt.Sprintf("Entity %d", rng.Intn(8))
			rows[i] = mkRow(i, 0, label, nil)
		}
		cl := Cluster(context.Background(), rows, labelScorer(), Options{
			Blocking: seed%2 == 0, KLj: seed%3 == 0,
			BatchSize:    int(absMod(seed, 5)) + 1,
			MaxKLjRounds: 2,
		})
		seen := make(map[string]int)
		for id, members := range cl.Clusters {
			for _, r := range members {
				seen[r.Ref.String()]++
				if cl.Assign[r.Ref] != id {
					return false
				}
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMetricsRangeProperty: every metric returns scores in [0, 1] and
// non-negative confidence for arbitrary row pairs.
func TestMetricsRangeProperty(t *testing.T) {
	f := func(la, lb string, ta, tb uint8) bool {
		if len(la) > 24 {
			la = la[:24]
		}
		if len(lb) > 24 {
			lb = lb[:24]
		}
		a := mkRow(int(ta), 0, la, nil)
		b := mkRow(int(tb), 0, lb, nil)
		for _, m := range MetricSet() {
			s, c := m.Compare(a, b)
			if s < 0 || s > 1 || c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestGreedyIdempotentOnSingletons: re-clustering a set of all-distinct
// rows keeps them singletons regardless of options.
func TestGreedyIdempotentOnSingletons(t *testing.T) {
	f := func(seed int64) bool {
		n := int(absMod(seed, 20)) + 3
		rows := make([]*Row, n)
		for i := range rows {
			rows[i] = mkRow(i, 0, fmt.Sprintf("Unique Entity Number %d Xyz", i), nil)
		}
		cl := Cluster(context.Background(), rows, labelScorer(), NewOptions())
		return cl.NumClusters() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// absMod returns |x mod m|, safe for negative x.
func absMod(x int64, m int64) int64 {
	v := x % m
	if v < 0 {
		v = -v
	}
	return v
}
