package logic

// The tabular Quine–McCluskey prime generator that PrimeImplicants
// replaced, kept as the reference for widths the brute-force oracle
// cannot reach. The prime set of a function is unique, so both must
// return the same cubes in SortCubes order.

import (
	"math/bits"
	"sort"

	"fsmpredict/internal/bitseq"
)

// primeImplicantsTabular generates all prime implicants of the on+dc set
// by iterated pairwise combination. Each level is a sorted, deduplicated
// slice; cubes sharing a care mask and value popcount form a contiguous
// run, and a run's only plausible combine partners are the next run when
// it has the same care mask and popcount one higher.
func primeImplicantsTabular(p Problem) []bitseq.Cube {
	var cur []bitseq.Cube
	for _, m := range p.On {
		cur = append(cur, bitseq.Minterm(m, p.Width))
	}
	for _, m := range p.DC {
		cur = append(cur, bitseq.Minterm(m, p.Width))
	}

	var primes, next []bitseq.Cube
	for len(cur) > 0 {
		cur = sortDedupLevel(cur)
		used := make([]bool, len(cur))
		next = next[:0]
		// Walk the (care, pop) runs; run = cur[start:end).
		for start := 0; start < len(cur); {
			care, pop := cur[start].Care, bits.OnesCount32(cur[start].Value)
			end := start + 1
			for end < len(cur) && cur[end].Care == care && bits.OnesCount32(cur[end].Value) == pop {
				end++
			}
			// Partner run: cubes with the same care mask and one more set
			// bit, which the ordering places immediately after.
			pEnd := end
			if end < len(cur) && cur[end].Care == care && bits.OnesCount32(cur[end].Value) == pop+1 {
				pEnd = end + 1
				for pEnd < len(cur) && cur[pEnd].Care == care && bits.OnesCount32(cur[pEnd].Value) == pop+1 {
					pEnd++
				}
			}
			for i := start; i < end; i++ {
				for j := end; j < pEnd; j++ {
					if m, ok := cur[i].Combine(cur[j]); ok {
						used[i], used[j] = true, true
						next = append(next, m)
					}
				}
			}
			start = end
		}
		for i, c := range cur {
			if !used[i] {
				primes = append(primes, c)
			}
		}
		cur, next = next, cur[:0]
	}
	bitseq.SortCubes(primes)
	return primes
}

// sortDedupLevel orders one QM level by (care, value popcount, value) —
// the grouping key of the tabular method — and drops duplicate cubes.
func sortDedupLevel(cubes []bitseq.Cube) []bitseq.Cube {
	sort.Slice(cubes, func(i, j int) bool {
		a, b := cubes[i], cubes[j]
		if a.Care != b.Care {
			return a.Care < b.Care
		}
		pa, pb := bits.OnesCount32(a.Value), bits.OnesCount32(b.Value)
		if pa != pb {
			return pa < pb
		}
		return a.Value < b.Value
	})
	out := cubes[:0]
	for i, c := range cubes {
		if i == 0 || c.Value != cubes[i-1].Value || c.Care != cubes[i-1].Care {
			out = append(out, c)
		}
	}
	return out
}
