package newdet

import (
	"testing"

	"repro/internal/kb"
)

// TestCandidateCacheExtendsOnKBGrowth is the write-back contract: an
// entity whose label had no candidates must, after the engine writes a
// matching instance into the KB, see that instance as a candidate — the
// detector's cache extends instead of serving the stale empty list.
func TestCandidateCacheExtendsOnKBGrowth(t *testing.T) {
	k := testKB()
	d := NewDetector(k, uniformAgg(len(MetricSet())))
	e := mkEntity("Zebulon Quirk", nil)

	if cands := d.Candidates(e); len(cands) != 0 {
		t.Fatalf("unexpected candidates before growth: %v", cands)
	}
	// Second lookup hits the cache (same version, same result).
	if cands := d.Candidates(e); len(cands) != 0 {
		t.Fatalf("cached lookup differs: %v", cands)
	}

	id := k.AddInstance(&kb.Instance{
		Class:       kb.ClassGFPlayer,
		Labels:      []string{"Zebulon Quirk"},
		Provenance:  kb.ProvenanceIngest,
		IngestEpoch: 1,
	})
	cands := d.Candidates(e)
	found := false
	for _, c := range cands {
		if c == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("written-back instance %d not in candidates %v after growth", id, cands)
	}

	// And the detector now matches the entity to its written-back copy.
	res := d.Detect(e)
	if !res.Matched || res.Instance != id {
		t.Errorf("Detect = %+v, want match to instance %d", res, id)
	}
}
