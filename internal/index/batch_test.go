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
		if !reflect.DeepEqual(serial.labels, batched.labels) {
			t.Fatalf("workers=%d: labels differ", workers)
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
// document universe through ScoreDocs and truncating to k reproduces
// Search's hits float-for-float, for exact, fuzzy, and mixed queries.
func TestScoreDocsMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := New()
	words := make([]string, 0, 250)
	allDocs := make([]int, 0, 250)
	for i := 0; i < 250; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		ix.Add(i, fmt.Sprintf("%s %s %d", w, randASCIIWord(rng), i%11))
		allDocs = append(allDocs, i)
	}
	for i := 0; i < 300; i++ {
		w := words[rng.Intn(len(words))]
		q := w + " " + randASCIIWord(rng)
		if i%3 == 0 {
			q = w[:len(w)-1] + "zq " + w // misspelling → fuzzy path
		}
		want := ix.Search(q, 10)
		got := ix.ScoreDocs(q, allDocs)
		if len(got) > 10 {
			got = got[:10]
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("ScoreDocs(%q) truncated = %+v, Search = %+v", q, got, want)
		}
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
	got := ix.ScoreDocs("green bay", []int{3, 1, 99})
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

// TestScoreDocsEmpty covers the degenerate inputs.
func TestScoreDocsEmpty(t *testing.T) {
	ix := New()
	ix.Add(1, "alpha beta")
	if h := ix.ScoreDocs("", []int{1}); h != nil {
		t.Fatalf("empty query scored %+v", h)
	}
	if h := ix.ScoreDocs("alpha", nil); h != nil {
		t.Fatalf("empty candidates scored %+v", h)
	}
	if h := ix.ScoreDocs("zzzz qqqq", []int{1}); h != nil {
		t.Fatalf("zero-overlap query scored %+v", h)
	}
}
