package strsim

// Reference implementations (pre-optimization): the executable
// specifications the randomized equivalence tests in kernel_test.go hold the
// optimized kernels to, value for value.

// levenshteinRef is the naive two-row DP over freshly decoded runes.
func levenshteinRef(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// levenshteinSimRef is the naive normalized similarity (re-decodes both
// strings for their lengths, as the pre-optimization code did).
func levenshteinSimRef(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(levenshteinRef(a, b))/float64(m)
}

func mongeElkanRef(a, b string) float64 {
	return mongeElkanTokensRef(Tokens(a), Tokens(b))
}

func mongeElkanSymRef(a, b string) float64 {
	ta, tb := Tokens(a), Tokens(b)
	return (mongeElkanTokensRef(ta, tb) + mongeElkanTokensRef(tb, ta)) / 2
}

func mongeElkanTokensRef(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	var sum float64
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := levenshteinSimRef(x, y); s > best {
				best = s
				if best == 1 {
					break
				}
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}
