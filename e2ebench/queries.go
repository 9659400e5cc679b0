package main

import (
	"math/rand"
	"sort"
	"strings"

	"repro/ltee/kb"
)

// queryGen draws the read requests of a run from the seed. Lookups fetch a
// seed KB instance of the evaluation classes (not one an engine wrote
// back). Searches mostly ask for such an instance's label; in the share of
// the world's web-table row labels that carry no KB label, they ask for
// one of those unseen row labels instead, as a client searching for what
// it found in a table would. Instances are drawn in proportion to their
// popularity (kb.InstancePopularity, the world's rank^-0.8 link-count
// model) or, for reads that bypass any cache, uniformly. The world is
// fixed, so which instances are hot is too; the seed only draws the
// sequence.
type queryGen struct {
	ids    []kb.InstanceID
	labels []string
	// cum is the cumulative popularity over ids; nil draws uniformly.
	cum []float64
	// unseen holds the distinct row labels that match no KB label, and
	// unseenShare their share of all row labels.
	unseen      []string
	unseenShare float64
	rng         *rand.Rand
}

// query is one search request: the text, and for a KB label, the instance
// it names (for the correctness check and the exact-label recall).
type query struct {
	text  string
	exact bool
	id    kb.InstanceID
	label string
}

// newQueryGen collects the seed KB instances of classes and the row labels
// of w's classified tables; popular selects popularity-weighted draws.
func newQueryGen(w *world, classes []kb.ClassID, seed int64, popular bool) *queryGen {
	g := &queryGen{rng: rand.New(rand.NewSource(seed*7919 + 17))}
	known := make(map[string]bool)
	var total float64
	for _, c := range classes {
		for _, id := range w.kb.InstancesOf(c) {
			if prov, _ := w.kb.InstanceProvenance(id); prov == kb.ProvenanceIngest {
				continue
			}
			g.ids = append(g.ids, id)
			g.labels = append(g.labels, w.kb.InstanceLabel(id))
			for _, l := range w.kb.Instance(id).Labels {
				known[strings.ToLower(l)] = true
			}
			if popular {
				total += w.kb.InstancePopularity(id)
				g.cum = append(g.cum, total)
			}
		}
	}
	rows := 0
	unseen := make(map[string]bool)
	for _, c := range classes {
		for _, tid := range w.byClass[c] {
			t := w.corpus.Table(tid)
			for r := 0; r < t.NumRows(); r++ {
				label := t.RowLabel(r)
				if label == "" {
					continue
				}
				rows++
				if !known[strings.ToLower(label)] {
					unseen[label] = true
					g.unseenShare++
				}
			}
		}
	}
	g.unseenShare = ratio(g.unseenShare, float64(rows))
	for l := range unseen {
		g.unseen = append(g.unseen, l)
	}
	// byClass is in stream order; sorting makes the draws depend on the
	// seed alone.
	sort.Strings(g.unseen)
	return g
}

// pick draws the index of the next instance.
func (g *queryGen) pick() int {
	if g.cum == nil {
		return g.rng.Intn(len(g.ids))
	}
	return sort.SearchFloat64s(g.cum, g.rng.Float64()*g.cum[len(g.cum)-1])
}

// search draws the next search query.
func (g *queryGen) search() query {
	if len(g.unseen) > 0 && g.rng.Float64() < g.unseenShare {
		return query{text: g.unseen[g.rng.Intn(len(g.unseen))]}
	}
	i := g.pick()
	return query{text: g.labels[i], exact: true, id: g.ids[i], label: g.labels[i]}
}

// lookup draws the next instance lookup and the label it must return.
func (g *queryGen) lookup() (kb.InstanceID, string) {
	i := g.pick()
	return g.ids[i], g.labels[i]
}
