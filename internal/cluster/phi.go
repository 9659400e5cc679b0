package cluster

import "math"

// phiModel computes the PHI label-correlation table vectors of §3.2: for
// each label a vector of PHI correlations with co-occurring labels, and for
// each table the average of its row labels' vectors.
//
// Co-occurrence pair counts are maintained incrementally by addTable, so
// finalize costs O(co-occurring pairs) instead of re-deriving every count
// from the table sets — the difference between a model rebuild that stays
// proportional to the batch-touched neighborhood and one that rescans all
// accumulated state each epoch. finalizeReference (in the tests) keeps the
// original derivation as the executable specification.
type phiModel struct {
	// tables maps table ID to its (normalized) row labels.
	tables map[int][]string
	// labelTables maps label to the set of tables containing it.
	labelTables map[string]map[int]bool
	// cooc[x][y] counts the tables containing both x and y (symmetric; both
	// directions stored so finalize can range one map per label).
	cooc    map[string]map[string]int
	nLabels int
	vectors map[string]map[string]float64
}

func newPhiModel() *phiModel {
	return &phiModel{
		tables:      make(map[int][]string),
		labelTables: make(map[string]map[int]bool),
		cooc:        make(map[string]map[string]int),
	}
}

// addTable records a table's row labels. A table is immutable once in a
// corpus and its label column is a pure function of its cells, so a known
// table ID always comes back with the labels it was first added with (the
// engine re-builds each batch table once per pipeline iteration); adding
// it again is a no-op.
func (p *phiModel) addTable(id int, labels []string) {
	if _, ok := p.tables[id]; ok {
		return
	}
	p.tables[id] = labels
	var distinct []string
	for _, l := range labels {
		if p.labelTables[l] == nil {
			p.labelTables[l] = make(map[int]bool)
		}
		if p.labelTables[l][id] {
			continue
		}
		p.labelTables[l][id] = true
		// First time l appears in this table: it co-occurs with every
		// distinct label before it.
		for _, m := range distinct {
			p.bumpCooc(l, m)
			p.bumpCooc(m, l)
		}
		distinct = append(distinct, l)
	}
}

func (p *phiModel) bumpCooc(x, y string) {
	if p.cooc[x] == nil {
		p.cooc[x] = make(map[string]int)
	}
	p.cooc[x][y]++
}

// finalize computes the per-label PHI vectors:
//
//	PHI(x,y) = (n·n_xy − n_x·n_y) / sqrt(n_x·n_y·(n−n_x)·(n−n_y))
//
// where n is the total number of unique labels, n_xy the co-occurrence of x
// and y in the same table, and n_x the occurrence of label x in a table.
//
// It reads the incrementally maintained pair counts and is float-identical
// to the test-file specification finalizeReference: both accumulate n_xy as
// unit increments, evaluate the PHI expression in the same shape, and see
// the same candidate sets.
func (p *phiModel) finalize() {
	p.nLabels = len(p.labelTables)
	// Labels are append-only, so the vector maps of the previous finalize
	// can be cleared and refilled in place: re-finalizing over a grown
	// corpus then reuses ~all of its map storage instead of reallocating
	// O(labels) maps per epoch. (Clones start with nil vectors, so no two
	// models ever share these maps.)
	if p.vectors == nil {
		p.vectors = make(map[string]map[string]float64, p.nLabels)
	}
	n := float64(p.nLabels)
	if n == 0 {
		return
	}
	for x, xTables := range p.labelTables {
		vec := p.vectors[x]
		if vec == nil {
			vec = make(map[string]float64, len(p.cooc[x]))
			p.vectors[x] = vec
		} else {
			clear(vec)
		}
		nx := float64(len(xTables))
		for y, cnt := range p.cooc[x] {
			nxy := float64(cnt)
			ny := float64(len(p.labelTables[y]))
			den := math.Sqrt(nx * ny * (n - nx) * (n - ny))
			if den == 0 {
				continue
			}
			phi := (n*nxy - nx*ny) / den
			if phi > 0 {
				vec[y] = phi
			}
		}
	}
}

// tableVector averages the PHI vectors of a table's row labels.
func (p *phiModel) tableVector(table int) map[string]float64 {
	labels := p.tables[table]
	if len(labels) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, l := range labels {
		for k, v := range p.vectors[l] {
			out[k] += v
		}
	}
	inv := 1 / float64(len(labels))
	for k := range out {
		out[k] *= inv
	}
	return out
}
