package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// batchCorpus generates n (doc, label) entries with a narrow alphabet so
// vocabulary collisions, repeat tokens, and multi-label docs all occur.
func batchCorpus(rng *rand.Rand, n int) []Entry {
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		doc := i
		if rng.Intn(5) == 0 && i > 0 {
			doc = rng.Intn(i) // multi-label doc
		}
		label := fmt.Sprintf("%s %s %d", randASCIIWord(rng), randASCIIWord(rng), i%13)
		if rng.Intn(7) == 0 {
			w := randASCIIWord(rng)
			label = w + " " + w // repeated token in one label
		}
		entries = append(entries, Entry{Doc: doc, Label: label})
	}
	return entries
}

// TestAddBatchEquivalentToAdds proves AddBatch produces byte-identical
// internal state to the same entries applied through serial Adds — postings,
// document frequencies, and every sharded deletion
// neighborhood list, regardless of worker count.
func TestAddBatchEquivalentToAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	entries := batchCorpus(rng, 300)
	serial := New()
	for _, e := range entries {
		serial.Add(e.Doc, e.Label)
	}
	for _, workers := range []int{1, 4, 16} {
		batched := New()
		batched.AddBatch(entries, workers)
		if !reflect.DeepEqual(serial.postings, batched.postings) {
			t.Fatalf("workers=%d: postings differ", workers)
		}
		if !reflect.DeepEqual(serial.docFreq, batched.docFreq) {
			t.Fatalf("workers=%d: docFreq differs", workers)
		}
		if !reflect.DeepEqual(serial.docs, batched.docs) {
			t.Fatalf("workers=%d: stored labels differ", workers)
		}
		if serial.numDocs != batched.numDocs {
			t.Fatalf("workers=%d: numDocs %d vs %d", workers, serial.numDocs, batched.numDocs)
		}
		for s := range serial.delNeighbors {
			a, b := serial.delNeighbors[s], batched.delNeighbors[s]
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d: deletion shard %d differs", workers, s)
			}
		}
	}
}

// TestAddBatchThenAdd proves a batch build composes with later incremental
// Adds exactly as an all-serial build does.
func TestAddBatchThenAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	entries := batchCorpus(rng, 200)
	serial := New()
	for _, e := range entries {
		serial.Add(e.Doc, e.Label)
	}
	mixed := New()
	mixed.AddBatch(entries[:150], 8)
	for _, e := range entries[150:] {
		mixed.Add(e.Doc, e.Label)
	}
	for i := 0; i < 100; i++ {
		q := randASCIIWord(rng) + " " + randASCIIWord(rng)
		if !reflect.DeepEqual(serial.Search(q, 10), mixed.Search(q, 10)) {
			t.Fatalf("Search(%q) differs between serial and batch+incremental builds", q)
		}
	}
}

// TestScoreDocsMatchesSearch proves the re-rank contract: scoring the full
// document universe through ScoreDocs with bound k reproduces Search's top
// k float-for-float, for exact, fuzzy, and mixed queries, at every k from
// one to past the hit count. Duplicate labels on different docs force score
// ties, so the bounded top-k's doc-ascending tie-break is exercised.
func TestScoreDocsMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := New()
	words := make([]string, 0, 250)
	allDocs := make([]int, 0, 250)
	for i := 0; i < 250; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		label := fmt.Sprintf("%s %s %d", w, randASCIIWord(rng), i%11)
		if i%5 == 4 {
			// Same label as an earlier doc: identical scores on two docs.
			label = ix.Labels(rng.Intn(i))[0]
		}
		ix.Add(i, label)
		allDocs = append(allDocs, i)
	}
	// Candidates arrive in arbitrary order; the ranking must not depend on it.
	rng.Shuffle(len(allDocs), func(i, j int) { allDocs[i], allDocs[j] = allDocs[j], allDocs[i] })
	ties := 0
	for i := 0; i < 300; i++ {
		w := words[rng.Intn(len(words))]
		q := w + " " + randASCIIWord(rng)
		switch i % 3 {
		case 0:
			q = w[:len(w)-1] + "zq " + w // misspelling → fuzzy path
		case 1:
			q = w[:len(w)-1] + "zq" // fuzzy only
		}
		for _, k := range []int{1, 3, 10, 60, len(allDocs) + 1} {
			want := ix.Search(q, k)
			got := ix.ScoreDocs(q, allDocs, k)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("ScoreDocs(%q, k=%d) = %+v, Search = %+v", q, k, got, want)
			}
			for j := 1; j < len(got); j++ {
				if got[j].Score == got[j-1].Score {
					ties++
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no score ties among the compared hits; the tie-break went untested")
	}
}

// TestScoreDocsSubset proves scoring a candidate subset yields exactly the
// Search scores of its members (scores are per-doc, independent of the
// candidate set), and that unknown docs are dropped.
func TestScoreDocsSubset(t *testing.T) {
	ix := New()
	ix.Add(1, "green bay packers")
	ix.Add(2, "green day")
	ix.Add(3, "bay city")
	ix.Add(2, "green bay")
	full := ix.Search("green bay", 10)
	byDoc := make(map[int]float64, len(full))
	for _, h := range full {
		byDoc[h.Doc] = h.Score
	}
	got := ix.ScoreDocs("green bay", []int{3, 1, 99, -4, 0}, 10)
	if len(got) != 2 {
		t.Fatalf("subset hits = %+v, want docs 1 and 3 only", got)
	}
	for _, h := range got {
		if byDoc[h.Doc] != h.Score {
			t.Fatalf("doc %d scored %v via subset, %v via Search", h.Doc, h.Score, byDoc[h.Doc])
		}
	}
	sorted := sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].Score != got[j].Score {
			return got[i].Score > got[j].Score
		}
		return got[i].Doc < got[j].Doc
	})
	if !sorted {
		t.Fatalf("subset hits not in (score desc, doc asc) order: %+v", got)
	}
}

// TestScoreDocsEmpty covers the degenerate inputs: each returns nil.
func TestScoreDocsEmpty(t *testing.T) {
	ix := New()
	ix.Add(1, "alpha beta")
	ix.Add(3, "alpha gamma")
	for _, tc := range []struct {
		name  string
		query string
		docs  []int
		k     int
	}{
		{"empty query", "", []int{1}, 5},
		{"no candidates", "alpha", nil, 5},
		{"k zero", "alpha", []int{1, 3}, 0},
		{"k negative", "alpha", []int{1, 3}, -2},
		{"no hits", "zzzz qqqq", []int{1, 3}, 5},
		{"unknown doc", "alpha", []int{2}, 5},
		{"negative doc", "alpha", []int{-1}, 5},
		{"out of range doc", "alpha", []int{4, 1 << 20}, 5},
	} {
		if h := ix.ScoreDocs(tc.query, tc.docs, tc.k); h != nil {
			t.Errorf("%s: ScoreDocs = %+v, want nil", tc.name, h)
		}
	}
}
