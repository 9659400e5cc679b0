// Package index implements an inverted label index that substitutes for the
// Lucene index the paper uses in two places: blocking for row clustering
// (§3.2) and candidate selection for new detection (§3.4).
//
// Labels are tokenized with the shared normalizer; postings are scored with
// TF-IDF, and fuzzy retrieval additionally admits index tokens within edit
// distance one of any query token that has no exact posting of its own.
package index

import (
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/par"
	"repro/internal/strsim"
)

// Index is an inverted token index over string labels. Each added label is
// associated with a caller-chosen document ID; several labels may share an
// ID (e.g. an instance with multiple labels). Document IDs are small
// non-negative integers: both users number their documents densely (KB
// instance IDs, blocking label positions), so per-document state lives in
// a slice indexed by ID. All methods are safe for concurrent use: Add
// takes the write lock, Search/ScoreDocs/SearchLabels/Labels/Len take the
// read lock, so lookups may run while later batches add postings (each
// lookup observes a consistent snapshot — either before or after any
// concurrent Add, never a torn one).
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting // token -> docs containing it
	docFreq  map[string]int       // token -> number of distinct docs
	// docs holds each document's labels in insertion order, each with the
	// token list Add built for its postings, so ScoreDocs re-ranks from
	// stored tokens instead of re-tokenizing candidate labels per query.
	docs [][]storedLabel
	// delNeighbors is the single-deletion neighborhood index behind the
	// fuzzy fallback (the SymSpell construction): every vocabulary token
	// is filed under itself and each of its one-rune-deleted variants.
	// Two tokens within edit distance one necessarily share an entry
	// (equal, one a deletion of the other, or both deleting down to the
	// same variant on a substitution), so a query token reaches its
	// distance-1 vocabulary in O(|token|) map lookups plus a
	// bounded-Levenshtein verification per candidate — instead of
	// scanning the vocabulary. It retrieves every distance-1 token,
	// including multi-byte neighbours whose byte length differs by more
	// than one.
	//
	// The index is sharded by the variant's first byte so AddBatch can
	// build it in parallel: each worker owns a disjoint set of shards, so
	// no shard is ever written by two goroutines. Shards need no locks of
	// their own — ix.mu already excludes every reader while any writer
	// (Add, AddBatch) holds the write lock.
	delNeighbors [delShardCount]map[string][]string
	numDocs      int
}

// delShardCount is the number of first-byte shards of delNeighbors.
const delShardCount = 256

// delShardOf returns the shard index of a deletion variant (the empty
// variant of single-rune tokens lands in shard 0).
func delShardOf(v string) int {
	if len(v) == 0 {
		return 0
	}
	return int(v[0])
}

// minFuzzyQueryLen is the minimum query-token byte length for the fuzzy
// fallback (an edit on a 1-3 letter token changes its identity).
const minFuzzyQueryLen = 4

type posting struct {
	doc int
	tf  float64
}

// storedLabel is one indexed label: its normalized form and the tokens of
// that form (strings.Fields of norm, the slice the postings were built
// from; the tokens are substrings of norm).
type storedLabel struct {
	norm string
	toks []string
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]posting),
		docFreq:  make(map[string]int),
	}
}

// Add indexes label under the document ID doc, which must be non-negative;
// the index grows a slot for every ID up to the largest added.
func (ix *Index) Add(doc int, label string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range ix.addLocked(nil, doc, label) {
		ix.indexDeletions(t)
	}
}

// addLocked files label's postings under doc and appends the tokens new to
// the vocabulary to dst, in sorted order so the deletion-neighborhood lists
// built from them never inherit Go's randomized map iteration (the repo's
// outputs are bit-identical across runs). The caller holds the write lock.
func (ix *Index) addLocked(dst []string, doc int, label string) []string {
	// Tokenize the stored normalized label itself (strsim.Tokens is Fields
	// of Normalize), so the label and its new vocabulary tokens share one
	// string.
	norm := strsim.Normalize(label)
	toks := strings.Fields(norm)
	if len(toks) == 0 {
		return dst
	}
	counts := make(map[string]int, len(toks))
	for _, t := range toks {
		counts[t]++
	}
	if doc >= len(ix.docs) {
		ix.docs = append(ix.docs, make([][]storedLabel, doc+1-len(ix.docs))...)
	}
	if len(ix.docs[doc]) == 0 {
		ix.numDocs++
	}
	ix.docs[doc] = append(ix.docs[doc], storedLabel{norm: norm, toks: toks})
	ts := make([]string, 0, len(counts))
	for t := range counts {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	for _, t := range ts {
		// Count each doc once per token for document frequency.
		ps := ix.postings[t]
		if len(ps) == 0 || ps[len(ps)-1].doc != doc {
			ix.docFreq[t]++
		}
		if len(ps) == 0 {
			dst = append(dst, t)
		}
		ix.postings[t] = append(ps, posting{doc: doc, tf: float64(counts[t]) / float64(len(toks))})
	}
	return dst
}

// Entry is one (document, label) pair for AddBatch.
type Entry struct {
	Doc   int
	Label string
}

// AddBatch indexes a batch of labels, equivalent to calling Add for each
// entry in order, with the deletion-neighborhood construction — the bulk of
// a cold build or warm restart — parallelized over the worker pool. The
// write lock is held for the whole batch, so concurrent readers observe
// either none or all of it.
//
// Determinism: postings and document frequencies are built serially in
// entry order, exactly as repeated Adds would. The parallel
// phases cannot reorder anything — variant computation is pure, and the
// per-shard insertion phase groups (variant, token) pairs by shard in token
// discovery order before handing each shard to exactly one worker, so every
// neighborhood list is byte-identical to the serial build's.
func (ix *Index) AddBatch(entries []Entry, workers int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()

	// Phase 1: serial postings build, collecting first-seen vocabulary.
	var newTokens []string
	for _, e := range entries {
		newTokens = ix.addLocked(newTokens, e.Doc, e.Label)
	}
	if len(newTokens) == 0 {
		return
	}

	// Phase 2: per-token deletion variants, computed in parallel (pure).
	// AddBatch has no caller context: a nil ctx is never cancelled, so the
	// fan-outs always run to completion and their errors are always nil.
	variants, _ := par.Map(nil, workers, newTokens, func(_ int, t string) []string {
		return appendDeletionVariants(make([]string, 0, len(t)+1), t)
	})

	// Phase 3: group pairs by shard in token order, then insert with one
	// worker per shard (disjoint writes, no locks needed).
	var groups [delShardCount]struct{ vs, ts []string }
	for i, vs := range variants {
		for _, v := range vs {
			g := &groups[delShardOf(v)]
			g.vs = append(g.vs, v)
			g.ts = append(g.ts, newTokens[i])
		}
	}
	par.ForEach(nil, workers, delShardCount, func(s int) {
		g := &groups[s]
		if len(g.vs) == 0 {
			return
		}
		if ix.delNeighbors[s] == nil {
			ix.delNeighbors[s] = make(map[string][]string, len(g.vs))
		}
		for i, v := range g.vs {
			ix.delNeighbors[s][v] = append(ix.delNeighbors[s][v], g.ts[i])
		}
	})
}

// Len returns the number of distinct documents in the index.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.numDocs
}

// Labels returns the normalized labels stored for doc. The returned slice
// is a copy the caller may retain while concurrent Adds extend the doc.
func (ix *Index) Labels(doc int) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ls := ix.docLabels(doc)
	if ls == nil {
		return nil
	}
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.norm
	}
	return out
}

// docLabels returns doc's stored labels, or nil for an ID never added
// (negative or out of range included). The caller holds the read lock.
func (ix *Index) docLabels(doc int) []storedLabel {
	if doc < 0 || doc >= len(ix.docs) {
		return nil
	}
	return ix.docs[doc]
}

// Hit is one search result: a document and its retrieval score.
type Hit struct {
	Doc   int
	Score float64
}

// Search returns up to k documents whose labels best match the query label,
// scored by TF-IDF over shared tokens. Query tokens without any exact
// posting fall back individually to a fuzzy pass that admits index tokens
// within Levenshtein distance 1 (distance-penalized), which keeps recall up
// for misspelled long-tail labels even when the query's other tokens match
// exactly — "beatles yeserday" still reaches the documents of "yesterday".
func (ix *Index) Search(label string, k int) []Hit {
	toks := strsim.Tokens(label)
	if len(toks) == 0 || k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	scores := make(map[int]float64)
	for _, t := range toks {
		if ps, ok := ix.postings[t]; ok {
			idf := ix.idf(t)
			for _, p := range ps {
				scores[p.doc] += p.tf * idf
			}
			continue
		}
		// Fuzzy fallback, per token: admit vocabulary tokens within edit
		// distance one, distance-penalized. Short tokens are excluded
		// (an edit on a 1-3 letter token changes its identity). The
		// candidates come from the deletion-neighborhood index, verified
		// with the bounded Levenshtein, and are accumulated in sorted order so
		// float summation order is fixed across runs.
		if len(t) < minFuzzyQueryLen {
			continue
		}
		for _, vt := range ix.fuzzyMatches(t) {
			idf := ix.idf(vt)
			for _, p := range ix.postings[vt] {
				scores[p.doc] += 0.5 * p.tf * idf
			}
		}
	}
	if len(scores) == 0 {
		return nil
	}
	hits := make([]Hit, 0, len(scores))
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

// ScoreDocs scores the given candidate documents against the query label
// with exactly the TF-IDF computation Search uses and returns the top k of
// them with a nonzero score, in (score desc, doc asc) order. It is the
// re-rank half of LSH retrieval: when the candidate set covers Search's
// top-k documents, the result is float-for-float identical to Search's,
// because each document's score is accumulated in the same order (query
// tokens in order, sorted fuzzy variants within a token, the document's
// labels in insertion order) with the same tf and idf factors.
//
// Scoring reads the tokens Add stored with each label, so a query
// tokenizes only itself. The ranking is a bounded top-k kept in order
// while candidates are scored; candidates that cannot enter it are never
// sorted. Documents not in the index (unknown, negative or out-of-range
// IDs) and zero-overlap candidates are omitted. docs must not contain
// duplicates.
func (ix *Index) ScoreDocs(label string, docs []int, k int) []Hit {
	toks := strsim.Tokens(label)
	if len(toks) == 0 || len(docs) == 0 || k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()

	// Expand the query once: each contribution is an index token paired
	// with its weight factors, in Search's accumulation order.
	type contrib struct {
		tok   string
		idf   float64
		fuzzy bool
	}
	contribs := make([]contrib, 0, len(toks))
	for _, t := range toks {
		if _, ok := ix.postings[t]; ok {
			contribs = append(contribs, contrib{tok: t, idf: ix.idf(t)})
			continue
		}
		if len(t) < minFuzzyQueryLen {
			continue
		}
		for _, vt := range ix.fuzzyMatches(t) {
			contribs = append(contribs, contrib{tok: vt, idf: ix.idf(vt), fuzzy: true})
		}
	}
	if len(contribs) == 0 {
		return nil
	}

	var top []Hit
	for _, d := range docs {
		labels := ix.docLabels(d)
		if len(labels) == 0 {
			continue
		}
		score, found := 0.0, false
		for _, c := range contribs {
			for _, l := range labels {
				n := 0
				for _, x := range l.toks {
					if x == c.tok {
						n++
					}
				}
				if n == 0 {
					continue
				}
				// The same floats Add stored in the posting: tf is
				// count/len for this label, multiplied in Search's order.
				tf := float64(n) / float64(len(l.toks))
				if c.fuzzy {
					score += 0.5 * tf * c.idf
				} else {
					score += tf * c.idf
				}
				found = true
			}
		}
		if found {
			top = insertTopK(top, Hit{Doc: d, Score: score}, k)
		}
	}
	return top
}

// insertTopK inserts h into top, which holds at most k hits in (score
// desc, doc asc) order, dropping the weakest hit when top is full. A hit
// that ranks below a full top is discarded without shifting anything.
func insertTopK(top []Hit, h Hit, k int) []Hit {
	ranksBefore := func(a, b Hit) bool {
		return a.Score > b.Score || (a.Score == b.Score && a.Doc < b.Doc)
	}
	if len(top) == k && !ranksBefore(h, top[k-1]) {
		return top
	}
	i := len(top)
	for i > 0 && ranksBefore(h, top[i-1]) {
		i--
	}
	if len(top) < k {
		top = append(top, Hit{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = h
	return top
}

// DefaultRareCap is the posting-list length bound of AppendRareDocs used
// by the LSH retrieval paths. Tokens whose document frequency stays within
// the cap are exactly the high-IDF tokens whose single-token matches can
// rank above the relative score floors downstream — and whose posting
// walks are cheap by the same definition.
const DefaultRareCap = 64

// AppendRareDocs appends to dst every document posted under a query token
// whose posting list holds at most maxDocs documents, fuzzy-expanding
// query tokens without an exact posting exactly as Search does. It is the
// complement of MinHash retrieval: a match sharing only one rare token
// with the query sits at a low Jaccard similarity, where banding collides
// rarely, yet can carry enough IDF mass to belong in the exact top hits.
// IDF is invisible to MinHash signatures, so those matches are retrieved
// directly from the (bounded, by construction) postings instead. Common
// tokens — the ones whose posting lists grow with the corpus — stay
// excluded; matches through them need several shared tokens to rank,
// which is the high-similarity regime banding does cover.
//
// The result may contain duplicates and is unsorted; callers union it
// with the LSH candidates via SortDedupDocs before ScoreDocs.
func (ix *Index) AppendRareDocs(dst []int, label string, maxDocs int) []int {
	toks := strsim.Tokens(label)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, t := range toks {
		if ps, ok := ix.postings[t]; ok {
			if len(ps) <= maxDocs {
				for _, p := range ps {
					dst = append(dst, p.doc)
				}
			}
			continue
		}
		if len(t) < minFuzzyQueryLen {
			continue
		}
		for _, vt := range ix.fuzzyMatches(t) {
			if ps := ix.postings[vt]; len(ps) <= maxDocs {
				for _, p := range ps {
					dst = append(dst, p.doc)
				}
			}
		}
	}
	return dst
}

// SortDedupDocs sorts docs ascending and removes duplicates in place,
// returning the shortened slice — the candidate-set union step between
// retrieval (LSH buckets plus rare-token postings) and ScoreDocs, which
// requires duplicate-free input.
func SortDedupDocs(docs []int) []int {
	if len(docs) < 2 {
		return docs
	}
	sort.Ints(docs)
	n := 1
	for _, d := range docs[1:] {
		if d != docs[n-1] {
			docs[n] = d
			n++
		}
	}
	return docs[:n]
}

// SearchLabels returns the distinct normalized labels of the top-k hits for
// the query. Blocking uses this to assign rows to label blocks.
func (ix *Index) SearchLabels(label string, k int) []string {
	hits := ix.Search(label, k)
	seen := make(map[string]bool)
	var out []string
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, h := range hits {
		for _, l := range ix.docLabels(h.Doc) {
			if !seen[l.norm] {
				seen[l.norm] = true
				out = append(out, l.norm)
			}
		}
	}
	return out
}

// appendDeletionVariants appends t's neighborhood entries — t itself and
// each of its one-rune deletions — to dst. Adjacent equal runes produce
// identical variants and are emitted once.
func appendDeletionVariants(dst []string, t string) []string {
	dst = append(dst, t)
	var prev rune = -1
	for bi, r := range t {
		if r == prev {
			continue
		}
		prev = r
		dst = append(dst, t[:bi]+t[bi+utf8.RuneLen(r):])
	}
	return dst
}

// indexDeletions files a new vocabulary token under itself and each of
// its one-rune deletions. The caller holds the write lock.
func (ix *Index) indexDeletions(t string) {
	for _, v := range appendDeletionVariants(nil, t) {
		s := delShardOf(v)
		if ix.delNeighbors[s] == nil {
			ix.delNeighbors[s] = make(map[string][]string, 64)
		}
		ix.delNeighbors[s][v] = append(ix.delNeighbors[s][v], t)
	}
}

// fuzzyMatches returns the vocabulary tokens within edit distance exactly
// one of query token t, sorted (fixed float accumulation order for the
// caller). The caller holds the read lock.
func (ix *Index) fuzzyMatches(t string) []string {
	// Gather candidate tokens sharing a deletion-neighborhood entry with
	// t: the entry of t itself (insertions into t and t's own postings —
	// the latter cannot occur, Search only falls back for tokens without
	// postings) and the entries of t's one-rune deletions (deletions and
	// substitutions).
	var cand []string
	collect := func(list []string) {
		for _, vt := range list {
			dup := false
			for _, c := range cand {
				if c == vt {
					dup = true
					break
				}
			}
			if !dup {
				cand = append(cand, vt)
			}
		}
	}
	collect(ix.delNeighbors[delShardOf(t)][t])
	vbuf := make([]byte, 0, 64)
	var prev rune = -1
	for bi, r := range t {
		if r == prev {
			continue
		}
		prev = r
		vbuf = append(vbuf[:0], t[:bi]...)
		vbuf = append(vbuf, t[bi+utf8.RuneLen(r):]...)
		s := 0
		if len(vbuf) > 0 {
			s = int(vbuf[0])
		}
		// string(vbuf) in a map lookup does not allocate.
		collect(ix.delNeighbors[s][string(vbuf)])
	}
	// Verify: sharing a deletion variant bounds the distance by two, not
	// one ("ab" and "ba" share "a"), so each candidate is checked with
	// the bounded kernel.
	matches := cand[:0]
	for _, vt := range cand {
		if vt != t && strsim.LevenshteinBounded(vt, t, 1) == 1 {
			matches = append(matches, vt)
		}
	}
	sort.Strings(matches)
	return matches
}

func (ix *Index) idf(tok string) float64 {
	df := ix.docFreq[tok]
	if df == 0 {
		return 0
	}
	// Smoothed IDF; rare tokens weigh more.
	return 1 + float64(ix.numDocs)/float64(df+1)
}
