package strsim

// MongeElkan computes the Monge-Elkan similarity between two strings using
// LevenshteinSim as the inner (token-level) similarity, exactly as the
// paper's LABEL metrics do. The strings are tokenized with the shared
// normalizer; for each token of a the best-matching token of b is found
// and the scores are averaged.
//
// Monge-Elkan is asymmetric; Sym averages both directions and is what
// callers should normally use. Both entry points run on interned token IDs
// with the shared token-pair memo; callers comparing the same labels
// repeatedly should Prepare (or PrepareCached) them once and use
// PreparedLabel.MongeElkanSym, which also skips re-tokenization.
func MongeElkan(a, b string) float64 {
	pa := idSlicePool.Get().(*[]int32)
	pb := idSlicePool.Get().(*[]int32)
	ia := appendTokenIDs((*pa)[:0], a)
	ib := appendTokenIDs((*pb)[:0], b)
	var s float64
	if hasNoID(ia) || hasNoID(ib) {
		s = mongeElkanStrs(Tokens(a), Tokens(b))
	} else {
		s = mongeElkanIDs(ia, ib)
	}
	*pa, *pb = ia[:0], ib[:0]
	idSlicePool.Put(pa)
	idSlicePool.Put(pb)
	return s
}

// MongeElkanSym returns the symmetrized Monge-Elkan similarity,
// (ME(a,b) + ME(b,a)) / 2.
func MongeElkanSym(a, b string) float64 {
	pa := idSlicePool.Get().(*[]int32)
	pb := idSlicePool.Get().(*[]int32)
	ia := appendTokenIDs((*pa)[:0], a)
	ib := appendTokenIDs((*pb)[:0], b)
	var s float64
	if hasNoID(ia) || hasNoID(ib) {
		ta, tb := Tokens(a), Tokens(b)
		s = (mongeElkanStrs(ta, tb) + mongeElkanStrs(tb, ta)) / 2
	} else {
		s = (mongeElkanIDs(ia, ib) + mongeElkanIDs(ib, ia)) / 2
	}
	*pa, *pb = ia[:0], ib[:0]
	idSlicePool.Put(pa)
	idSlicePool.Put(pb)
	return s
}

// MongeElkanSymCached is MongeElkanSym through the prepared-label cache:
// both strings are normalized and tokenized at most once per process
// lifetime. Use it for comparisons over recurring strings (labels, cell
// values); one-off strings should use MongeElkanSym to avoid growing the
// cache.
func MongeElkanSymCached(a, b string) float64 {
	return PrepareCached(a).MongeElkanSym(PrepareCached(b))
}

// mongeElkanIDs is the directed Monge-Elkan average over interned token
// IDs. Identical to the reference token implementation: same iteration
// order, same floats.
func mongeElkanIDs(ta, tb []int32) float64 {
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
			if s := levSimTok(x, y); s > best {
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

// mongeElkanStrs is the directed Monge-Elkan average over token strings —
// the path taken when tokens are not interned (interner at cap). The
// inner best-token search runs the bounded kernel: a token pair that
// cannot beat the running best is abandoned mid-DP, and the bounded
// result is exact whenever it exceeds the floor, so the maxima — and
// therefore the averages — are bit-identical to the unbounded path.
func mongeElkanStrs(ta, tb []string) float64 {
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
			if x == y {
				best = 1
				break
			}
			if s := LevenshteinSimBounded(x, y, best); s > best {
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
