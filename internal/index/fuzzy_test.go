package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/strsim"
)

// randASCIIWord generates a lowercase word of 4-10 letters.
func randASCIIWord(rng *rand.Rand) string {
	n := 4 + rng.Intn(7)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(6)) // narrow alphabet → many near-misses
	}
	return string(b)
}

// scanMatchesRef is the executable specification of fuzzyMatches: scan the
// whole vocabulary for tokens at Levenshtein distance exactly one from t,
// sorted. The caller holds the read lock.
func scanMatchesRef(ix *Index, t string) []string {
	var out []string
	for vt := range ix.postings {
		if strsim.Levenshtein(vt, t) == 1 {
			out = append(out, vt)
		}
	}
	sort.Strings(out)
	return out
}

// searchRef is Search with the fuzzy fallback taken from scanMatchesRef.
func searchRef(ix *Index, label string, k int) []Hit {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	scores := make(map[int]float64)
	for _, t := range strsim.Tokens(label) {
		if ps, ok := ix.postings[t]; ok {
			for _, p := range ps {
				scores[p.doc] += p.tf * ix.idf(t)
			}
			continue
		}
		if len(t) < minFuzzyQueryLen {
			continue
		}
		for _, vt := range scanMatchesRef(ix, t) {
			for _, p := range ix.postings[vt] {
				scores[p.doc] += 0.5 * p.tf * ix.idf(vt)
			}
		}
	}
	var hits []Hit
	for doc, s := range scores {
		hits = append(hits, Hit{Doc: doc, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Doc < hits[j].Doc
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TestFuzzyMatchesAgreeWithScan proves the deletion-neighborhood index
// retrieves exactly the distance-1 vocabulary of a full scan, on a random
// ASCII vocabulary and on a multi-byte one.
func TestFuzzyMatchesAgreeWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := New()
	for i := 0; i < 400; i++ {
		ix.Add(i, randASCIIWord(rng)+" "+randASCIIWord(rng))
	}
	// A one-rune substitution that changes the byte length by two (ASCII
	// to a 3-byte rune), so the match is not within one byte of the
	// query's length.
	ix.Add(400, "tok東yo")
	queries := []string{"tokayo"}
	for i := 0; i < 500; i++ {
		queries = append(queries, randASCIIWord(rng))
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if got := ix.fuzzyMatches("tokayo"); !reflect.DeepEqual(got, []string{"tok東yo"}) {
		t.Fatalf("fuzzyMatches(%q) = %v, want the multi-byte neighbour", "tokayo", got)
	}
	for _, q := range queries {
		if _, exact := ix.postings[q]; exact {
			continue // Search would not fall back for this token
		}
		fast := ix.fuzzyMatches(q)
		slow := scanMatchesRef(ix, q)
		if len(fast) == 0 && len(slow) == 0 {
			continue
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("fuzzyMatches(%q) = %v, scan = %v", q, fast, slow)
		}
	}
}

// TestSearchEquivalentAcrossStrategies proves full Search retrieval equals
// the reference whose fuzzy fallback scans the vocabulary: same documents,
// same scores, same ranking.
func TestSearchEquivalentAcrossStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ix := New()
	words := make([]string, 0, 300)
	for i := 0; i < 300; i++ {
		w := randASCIIWord(rng)
		words = append(words, w)
		ix.Add(i, fmt.Sprintf("%s %s %d", w, randASCIIWord(rng), i%17))
	}
	for i := 0; i < 200; i++ {
		// Query with one misspelled vocabulary word, so the fuzzy path
		// carries the score.
		w := words[rng.Intn(len(words))]
		q := w[:len(w)-1] + "zq"
		got, want := ix.Search(q, 10), searchRef(ix, q, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Search(%q) = %v, reference = %v", q, got, want)
		}
	}
}

// TestFuzzyUnicodeRecall proves Search reaches a one-rune substitution that
// changes the byte length by two (ASCII → 3-byte rune).
func TestFuzzyUnicodeRecall(t *testing.T) {
	ix := New()
	ix.Add(1, "tok東yo sights")     // vocab token "tok東yo"
	hits := ix.Search("tokayo", 5) // one substitution away, byte length 6 vs 8
	found := false
	for _, h := range hits {
		if h.Doc == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("deletion index did not find the multi-byte substitution neighbor")
	}
}

// BenchmarkFuzzySearch measures a fuzzy (misspelled-token) search at a
// realistic vocabulary size.
func BenchmarkFuzzySearch(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 10000; i++ {
		ix.Add(i, randASCIIWord(rng)+" "+randASCIIWord(rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Search("abcdzq misspeled", 20)
	}
}
