package strsim

import (
	"sync"
	"unicode/utf8"
)

// The edit-distance kernels below are the innermost loops of the whole
// pipeline: every LABEL metric, every blocking lookup, and the fuzzy index
// fallback bottom out here. The exported functions are allocation-free on
// the hot path — scratch DP rows and rune buffers come from a sync.Pool,
// all-ASCII inputs (the common case after normalization) skip rune
// decoding entirely, and common prefixes/suffixes are trimmed before the
// DP. The pre-optimization implementations are kept as unexported *Ref
// functions; randomized tests in kernel_test.go prove the optimized
// kernels return exactly the reference values.

// Levenshtein returns the edit distance between a and b over runes.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	sc := levPool.Get().(*levScratch)
	d, _, _ := sc.dist(a, b)
	levPool.Put(sc)
	return d
}

// LevenshteinSim normalizes the edit distance into a similarity in [0, 1].
// Both strings are decoded exactly once: the rune lengths the
// normalization needs are shared with the distance computation.
func LevenshteinSim(a, b string) float64 {
	if a == b {
		return 1
	}
	sc := levPool.Get().(*levScratch)
	d, la, lb := sc.dist(a, b)
	levPool.Put(sc)
	return simOf(d, la, lb)
}

// LevenshteinBounded returns the edit distance between a and b when it is
// at most max, and max+1 otherwise. The banded dynamic program touches
// only a 2·max+1 wide diagonal strip and abandons early, so "is the
// distance ≤ 1?" checks (the fuzzy index verification) cost O(n) instead
// of O(n²). max must be ≥ 0.
func LevenshteinBounded(a, b string, max int) int {
	if a == b {
		return 0
	}
	sc := levPool.Get().(*levScratch)
	defer levPool.Put(sc)
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if max >= la && max >= lb {
		d, _, _ := sc.dist(a, b)
		return d
	}
	return sc.distBounded(a, b, la, lb, max)
}

// LevenshteinSimBounded is LevenshteinSim for best-candidate searches: it
// abandons pairs that cannot beat floor. When the true similarity exceeds
// floor the exact LevenshteinSim value is returned; otherwise the result
// is some value ≤ floor (not necessarily the true similarity). Callers
// keeping a running best use it as
//
//	if s := LevenshteinSimBounded(a, b, best); s > best { best = s }
//
// The bound turns into a banded dynamic program (band width shrinks as
// floor rises) with an early exit once every path through the band is too
// expensive, so high floors cost O(k·n) instead of O(n²).
func LevenshteinSimBounded(a, b string, floor float64) float64 {
	if a == b {
		return 1
	}
	if floor >= 1 {
		return floor
	}
	sc := levPool.Get().(*levScratch)
	defer levPool.Put(sc)
	if floor < 0 {
		d, la, lb := sc.dist(a, b)
		return simOf(d, la, lb)
	}
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	// Any distance d with 1 − d/m > floor satisfies d ≤ k for this k
	// (one more than the exact cutoff, absorbing float rounding), so a
	// banded result of "> k" proves the similarity is strictly below
	// floor.
	k := int((1-floor)*float64(m)) + 1
	if k >= m {
		d, _, _ := sc.dist(a, b)
		return simOf(d, la, lb)
	}
	d := sc.distBounded(a, b, la, lb, k)
	if d > k {
		return floor
	}
	return simOf(d, la, lb)
}

func simOf(d, la, lb int) float64 {
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(d)/float64(m)
}

// ---------------------------------------------------------------------------
// Pooled scratch state.

// levScratch holds the reusable DP rows and rune buffers of one
// Levenshtein computation. Instances cycle through levPool, so
// steady-state kernel calls allocate nothing.
type levScratch struct {
	prev, cur []int
	ra, rb    []rune
}

var levPool = sync.Pool{New: func() any { return new(levScratch) }}

func (sc *levScratch) rows(n int) (prev, cur []int) {
	if cap(sc.prev) < n {
		sc.prev = make([]int, n)
		sc.cur = make([]int, n)
	}
	return sc.prev[:n], sc.cur[:n]
}

func (sc *levScratch) decode(a, b string) ([]rune, []rune) {
	sc.ra = appendRunes(sc.ra[:0], a)
	sc.rb = appendRunes(sc.rb[:0], b)
	return sc.ra, sc.rb
}

func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// dist computes the exact edit distance plus both rune lengths, decoding
// each string at most once (ASCII inputs are never decoded at all).
func (sc *levScratch) dist(a, b string) (d, la, lb int) {
	if isASCII(a) && isASCII(b) {
		return sc.distASCII(a, b), len(a), len(b)
	}
	ra, rb := sc.decode(a, b)
	return sc.distRunes(ra, rb), len(ra), len(rb)
}

// distASCII is the two-row DP over bytes with common prefix/suffix
// trimming (trimming never changes the distance).
func (sc *levScratch) distASCII(a, b string) int {
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev, cur := sc.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ca := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// distRunes is the two-row DP over decoded runes with prefix/suffix
// trimming.
func (sc *levScratch) distRunes(ra, rb []rune) int {
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev, cur := sc.rows(len(rb) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		ca := ra[i-1]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ca == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// distBounded returns the exact distance when it is ≤ k, and some value
// > k otherwise (the banded DP abandons the computation as soon as every
// path through the band exceeds k). la and lb are the rune lengths,
// already known to the caller.
func (sc *levScratch) distBounded(a, b string, la, lb, k int) int {
	if la-lb > k || lb-la > k {
		return k + 1
	}
	if isASCII(a) && isASCII(b) {
		return sc.bandedASCII(a, b, k)
	}
	ra, rb := sc.decode(a, b)
	return sc.bandedRunes(ra, rb, k)
}

// levInf is the band sentinel: larger than any real distance, small
// enough that +1 arithmetic cannot overflow.
const levInf = 1 << 29

func (sc *levScratch) bandedASCII(a, b string, k int) int {
	la, lb := len(a), len(b)
	prev, cur := sc.rows(lb + 1)
	// Row 0 inside the band, sentinel just past it.
	hi0 := k
	if hi0 > lb {
		hi0 = lb
	}
	for j := 0; j <= hi0; j++ {
		prev[j] = j
	}
	if hi0 < lb {
		prev[hi0+1] = levInf
	}
	for i := 1; i <= la; i++ {
		lo, hi := i-k, i+k
		if lo < 1 {
			lo = 1
		}
		if hi > lb {
			hi = lb
		}
		if lo == 1 {
			cur[0] = i
		} else {
			cur[lo-1] = levInf
		}
		rowMin := levInf
		ca := a[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ca == b[j-1] {
				cost = 0
			}
			v := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > k {
			return k + 1
		}
		if hi < lb {
			cur[hi+1] = levInf
		}
		prev, cur = cur, prev
	}
	if prev[lb] > k {
		return k + 1
	}
	return prev[lb]
}

func (sc *levScratch) bandedRunes(ra, rb []rune, k int) int {
	la, lb := len(ra), len(rb)
	prev, cur := sc.rows(lb + 1)
	hi0 := k
	if hi0 > lb {
		hi0 = lb
	}
	for j := 0; j <= hi0; j++ {
		prev[j] = j
	}
	if hi0 < lb {
		prev[hi0+1] = levInf
	}
	for i := 1; i <= la; i++ {
		lo, hi := i-k, i+k
		if lo < 1 {
			lo = 1
		}
		if hi > lb {
			hi = lb
		}
		if lo == 1 {
			cur[0] = i
		} else {
			cur[lo-1] = levInf
		}
		rowMin := levInf
		ca := ra[i-1]
		for j := lo; j <= hi; j++ {
			cost := 1
			if ca == rb[j-1] {
				cost = 0
			}
			v := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			cur[j] = v
			if v < rowMin {
				rowMin = v
			}
		}
		if rowMin > k {
			return k + 1
		}
		if hi < lb {
			cur[hi+1] = levInf
		}
		prev, cur = cur, prev
	}
	if prev[lb] > k {
		return k + 1
	}
	return prev[lb]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
