// Package logic performs two-level logic minimization, standing in for the
// Espresso PLA minimizer the paper uses in its pattern-compression step
// (§4.4). Given the "predict 1" set as an on-set and the "don't care" set
// as a dc-set, it produces a compact sum-of-products cover: a list of
// cubes (product terms) that covers every on-set minterm, may absorb
// don't-care minterms, and never covers an off-set minterm.
//
// Two engines are provided:
//
//   - Quine–McCluskey (MinimizeQM, widths up to 12): exact prime-implicant
//     generation from a dense implicant table over all 3^w cubes, followed
//     by unate covering with essential-prime extraction and exact
//     branch-and-bound on small residual tables (greedy beyond a size
//     limit).
//   - Espresso-style heuristic (MinimizeHeuristic): the classic
//     EXPAND / IRREDUNDANT / REDUCE loop working directly on cubes, which
//     scales to wider inputs without enumerating all primes.
//
// Both engines are verified against each other and against the functional
// specification by the package tests.
package logic

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"fsmpredict/internal/bitseq"
)

// Problem is a single-output minimization instance over Width input bits.
// Minterm values use the bitseq history convention. Any minterm not in On
// or DC is in the off-set.
type Problem struct {
	Width int
	On    []uint32 // minterms that must evaluate to 1
	DC    []uint32 // minterms free to evaluate either way
}

// Validate checks structural invariants: width in range, minterms within
// width, and On/DC disjoint.
func (p Problem) Validate() error {
	if p.Width < 1 || p.Width > 24 {
		return fmt.Errorf("logic: width %d out of range [1,24]", p.Width)
	}
	mask := uint32(1)<<uint(p.Width) - 1
	seen := make(map[uint32]byte, len(p.On)+len(p.DC))
	for _, m := range p.On {
		if m&^mask != 0 {
			return fmt.Errorf("logic: on-set minterm %#x exceeds width %d", m, p.Width)
		}
		seen[m] |= 1
	}
	for _, m := range p.DC {
		if m&^mask != 0 {
			return fmt.Errorf("logic: dc-set minterm %#x exceeds width %d", m, p.Width)
		}
		if seen[m]&1 != 0 {
			return fmt.Errorf("logic: minterm %#x in both on-set and dc-set", m)
		}
		seen[m] |= 2
	}
	return nil
}

// FromPartition converts a markov-style partition (lists of minterm cubes)
// into a Problem. On and DC cubes must be minterms of the same width.
func FromPartition(width int, on, dc []bitseq.Cube) Problem {
	p := Problem{Width: width}
	for _, c := range on {
		p.On = append(p.On, c.Value)
	}
	for _, c := range dc {
		p.DC = append(p.DC, c.Value)
	}
	return p
}

// Cost summarizes the quality of a cover.
type Cost struct {
	Cubes    int
	Literals int
}

// CoverCost computes the cost of a cover.
func CoverCost(cover []bitseq.Cube) Cost {
	c := Cost{Cubes: len(cover)}
	for _, cu := range cover {
		c.Literals += cu.Literals()
	}
	return c
}

// Less orders costs by cube count, then literal count.
func (c Cost) Less(d Cost) bool {
	if c.Cubes != d.Cubes {
		return c.Cubes < d.Cubes
	}
	return c.Literals < d.Literals
}

// Verify checks that the cover implements the problem: every on-set
// minterm is covered and no off-set minterm is covered. It returns a
// descriptive error on the first violation.
func Verify(p Problem, cover []bitseq.Cube) error {
	if err := p.Validate(); err != nil {
		return err
	}
	kind := make(map[uint32]byte, len(p.On)+len(p.DC))
	for _, m := range p.On {
		kind[m] = 1
	}
	for _, m := range p.DC {
		kind[m] = 2
	}
	for _, c := range cover {
		if c.Width != p.Width {
			return fmt.Errorf("logic: cover cube %v has width %d, want %d", c, c.Width, p.Width)
		}
	}
	for _, m := range p.On {
		if !bitseq.CoverMatches(cover, m) {
			return fmt.Errorf("logic: on-set minterm %s not covered",
				bitseq.HistoryString(m, p.Width))
		}
	}
	// Off-set check: enumerate matches of each cube and ensure they are
	// on or dc minterms. This avoids enumerating the whole off-set.
	for _, c := range cover {
		for _, m := range c.Minterms() {
			if kind[m] == 0 {
				return fmt.Errorf("logic: cover cube %v wrongly covers off-set minterm %s",
					c, bitseq.HistoryString(m, p.Width))
			}
		}
	}
	return nil
}

// Minimize picks an engine appropriate for the problem size: QM when the
// problem fits the implicant table (width at most 12), the heuristic
// engine otherwise. This mirrors how Espresso is used in the paper: exact
// quality on the small per-predictor tables, graceful degradation beyond.
func Minimize(p Problem) ([]bitseq.Cube, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Width <= maxQMWidth && len(p.On)+len(p.DC) <= 4096 {
		qm, err := MinimizeQM(p)
		if err != nil {
			return nil, err
		}
		// The heuristic occasionally beats pure QM-with-greedy-cover on
		// literal count; keep whichever is cheaper.
		he, err := MinimizeHeuristic(p)
		if err != nil {
			return qm, nil
		}
		if CoverCost(he).Less(CoverCost(qm)) {
			return he, nil
		}
		return qm, nil
	}
	return MinimizeHeuristic(p)
}

// MinimizeQM generates every prime implicant of the on+dc set and then
// solves the covering problem for the on-set. It accepts widths up to
// 12, the bound of the implicant table.
func MinimizeQM(p Problem) ([]bitseq.Cube, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Width > maxQMWidth {
		return nil, fmt.Errorf("logic: QM width %d exceeds %d", p.Width, maxQMWidth)
	}
	if len(p.On) == 0 {
		return nil, nil
	}
	primes, err := PrimeImplicants(p)
	if err != nil {
		return nil, err
	}
	cover := solveCover(p.On, primes, p.Width)
	bitseq.SortCubes(cover)
	return cover, nil
}

// maxQMWidth is the widest problem MinimizeQM accepts: its implicant
// table holds one byte per cube, 3^12 bytes (~0.5 MB) at width 12.
const maxQMWidth = 12

// pow3[b] is the weight of variable b in a base-3 cube index.
var pow3 = [maxQMWidth + 1]int{1, 3, 9, 27, 81, 243, 729, 2187, 6561, 19683, 59049, 177147, 531441}

// implPool recycles implicant tables across PrimeImplicants calls, so the
// designer's steady state does not allocate them.
var implPool = sync.Pool{New: func() any { return new([]byte) }}

// PrimeImplicants generates all prime implicants of the on+dc set, in
// SortCubes order, for widths 1..12. Every minterm must lie within the
// width, as Validate checks.
//
// It fills a dense implicant table over all 3^w cubes. A cube's index
// is base 3, digit b being 0 or 1 for a literal on variable b and 2 for
// a free variable, so both halves of a cube on any free variable have
// smaller indexes. A minterm is an implicant when it is in the on or dc
// set; a cube with a free variable is one exactly when both of its
// halves on its lowest free variable are. A prime is an implicant none
// of whose single-literal expansions is an implicant. The prime set is
// unique, so this returns the same cubes as the tabular Quine–McCluskey
// method (kept in the tests as the reference), at O(w·3^w) cost
// independent of the on+dc count.
func PrimeImplicants(p Problem) ([]bitseq.Cube, error) {
	w := p.Width
	if w < 1 || w > maxQMWidth {
		return nil, fmt.Errorf("logic: prime generation width %d out of range [1,%d]", w, maxQMWidth)
	}
	n := pow3[w]
	buf := implPool.Get().(*[]byte)
	if cap(*buf) < n {
		*buf = make([]byte, pow3[maxQMWidth])
	}
	impl := (*buf)[:n]
	clear(impl)
	for _, set := range [2][]uint32{p.On, p.DC} {
		for _, m := range set {
			i := 0
			for v := m; v != 0; v &= v - 1 {
				i += pow3[bits.TrailingZeros32(v)]
			}
			impl[i] = 1
		}
	}

	// Both passes walk the indexes in order with an odometer over the
	// (value, care) pair; incrementing digit b steps it 0 → 1 → 2 → 0,
	// i.e. literal 0, literal 1, free.
	full := uint32(1)<<uint(w) - 1
	step := func(value, care uint32) (uint32, uint32) {
		for b := uint32(1); b <= full; b <<= 1 {
			switch {
			case care&b != 0 && value&b == 0:
				return value | b, care
			case value&b != 0:
				return value &^ b, care &^ b
			}
			care |= b // digit 2 wraps to 0 and carries
		}
		return value, care
	}
	value, care := uint32(0), full
	for i := 0; i < n; i++ {
		if free := ^care & full; free != 0 {
			d := pow3[bits.TrailingZeros32(free)]
			impl[i] = impl[i-2*d] & impl[i-d]
		}
		value, care = step(value, care)
	}

	var primes []bitseq.Cube
	value, care = 0, full
	for i := 0; i < n; i++ {
		if impl[i] != 0 && isPrime(impl, i, value, care) {
			primes = append(primes, bitseq.Cube{Value: value, Care: care, Width: w})
		}
		value, care = step(value, care)
	}
	implPool.Put(buf)
	bitseq.SortCubes(primes)
	return primes, nil
}

// isPrime reports whether no single-literal expansion of implicant i (a
// cared variable's digit raised to 2) is also an implicant.
func isPrime(impl []byte, i int, value, care uint32) bool {
	for c := care; c != 0; c &= c - 1 {
		b := bits.TrailingZeros32(c)
		if impl[i+int(2-value>>uint(b)&1)*pow3[b]] != 0 {
			return false
		}
	}
	return true
}

// coverLimit bounds the branch-and-bound search; above it the covering
// step falls back to pure greedy selection.
const coverLimit = 26

// solveCover selects a minimal (or near-minimal) subset of primes that
// covers all on-set minterms.
func solveCover(on []uint32, primes []bitseq.Cube, width int) []bitseq.Cube {
	// Deduplicate the on-set.
	onSet := make([]uint32, 0, len(on))
	seen := make(map[uint32]bool, len(on))
	for _, m := range on {
		if !seen[m] {
			seen[m] = true
			onSet = append(onSet, m)
		}
	}
	sort.Slice(onSet, func(i, j int) bool { return onSet[i] < onSet[j] })

	// Build the covering table.
	coversOf := make([][]int, len(onSet)) // minterm index -> prime indexes
	mintermsOf := make([][]int, len(primes))
	for mi, m := range onSet {
		for pi, c := range primes {
			if c.Matches(m) {
				coversOf[mi] = append(coversOf[mi], pi)
				mintermsOf[pi] = append(mintermsOf[pi], mi)
			}
		}
	}

	chosen := make([]bool, len(primes))
	covered := make([]bool, len(onSet))
	remaining := len(onSet)

	choose := func(pi int) {
		if chosen[pi] {
			return
		}
		chosen[pi] = true
		for _, mi := range mintermsOf[pi] {
			if !covered[mi] {
				covered[mi] = true
				remaining--
			}
		}
	}

	// Essential primes: a minterm covered by exactly one prime forces it.
	for mi := range onSet {
		if len(coversOf[mi]) == 1 {
			choose(coversOf[mi][0])
		}
	}

	// Residual problem.
	if remaining > 0 {
		var resM []int
		for mi := range onSet {
			if !covered[mi] {
				resM = append(resM, mi)
			}
		}
		var resP []int
		for pi := range primes {
			if chosen[pi] {
				continue
			}
			for _, mi := range mintermsOf[pi] {
				if !covered[mi] {
					resP = append(resP, pi)
					break
				}
			}
		}
		var picked []int
		if len(resM) <= coverLimit && len(resP) <= coverLimit {
			picked = exactCover(resM, resP, mintermsOf, covered, primes)
		} else {
			picked = greedyCover(resM, resP, mintermsOf, covered, primes)
		}
		for _, pi := range picked {
			choose(pi)
		}
	}

	var out []bitseq.Cube
	for pi, ok := range chosen {
		if ok {
			out = append(out, primes[pi])
		}
	}
	return out
}

// greedyCover repeatedly picks the prime covering the most uncovered
// residual minterms (ties: fewer literals, then deterministic order).
func greedyCover(resM, resP []int, mintermsOf [][]int, already []bool, primes []bitseq.Cube) []int {
	covered := append([]bool(nil), already...)
	need := 0
	for _, mi := range resM {
		if !covered[mi] {
			need++
		}
	}
	var out []int
	for need > 0 {
		best, bestGain := -1, 0
		for _, pi := range resP {
			gain := 0
			for _, mi := range mintermsOf[pi] {
				if !covered[mi] {
					gain++
				}
			}
			if gain > bestGain ||
				(gain == bestGain && gain > 0 && best >= 0 &&
					primes[pi].Literals() < primes[best].Literals()) {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			break // unsatisfiable residual; caller's Verify will catch it
		}
		out = append(out, best)
		for _, mi := range mintermsOf[best] {
			if !covered[mi] {
				covered[mi] = true
				need--
			}
		}
	}
	return out
}

// exactCover performs branch and bound over the residual covering table.
// Residual sizes are bounded by coverLimit so bitmask state fits in uint32.
func exactCover(resM, resP []int, mintermsOf [][]int, already []bool, primes []bitseq.Cube) []int {
	idx := make(map[int]int, len(resM)) // minterm index -> bit
	for b, mi := range resM {
		idx[mi] = b
	}
	full := uint32(1)<<uint(len(resM)) - 1
	masks := make([]uint32, len(resP))
	for i, pi := range resP {
		for _, mi := range mintermsOf[pi] {
			if b, ok := idx[mi]; ok && !already[mi] {
				masks[i] |= 1 << uint(b)
			}
		}
	}
	var start uint32
	for _, mi := range resM {
		if already[mi] {
			start |= 1 << uint(idx[mi])
		}
	}

	best := append([]int(nil), greedyCover(resM, resP, mintermsOf, already, primes)...)
	bestN := len(best)

	var rec func(cov uint32, picked []int)
	rec = func(cov uint32, picked []int) {
		if cov == full {
			if len(picked) < bestN {
				bestN = len(picked)
				best = append([]int(nil), picked...)
			}
			return
		}
		if len(picked)+1 >= bestN {
			// Even a finishing pick would only tie the incumbent.
			return
		}
		// Branch on the uncovered minterm with fewest candidate primes.
		bestBit, bestCnt := -1, len(resP)+1
		for b := 0; b < len(resM); b++ {
			if cov>>uint(b)&1 == 1 {
				continue
			}
			cnt := 0
			for _, m := range masks {
				if m>>uint(b)&1 == 1 {
					cnt++
				}
			}
			if cnt < bestCnt {
				bestBit, bestCnt = b, cnt
			}
		}
		if bestBit < 0 || bestCnt == 0 {
			return
		}
		for i, m := range masks {
			if m>>uint(bestBit)&1 == 1 {
				rec(cov|m, append(picked, resP[i]))
			}
		}
	}
	rec(start, nil)
	return best
}
