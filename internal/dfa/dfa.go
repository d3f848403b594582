// Package dfa implements deterministic finite automata over {0,1} and the
// three reduction steps of §4.6–§4.7 of the paper: subset construction
// from an NFA, Hopcroft's partition-refinement minimization, and
// start-state (transient state) reduction, which removes the states only
// used while the input history is still undefined.
//
// The kernels run on dense bitsets (bitseq.Set) rather than map-of-int
// sets: subsets are interned by their packed-word key, the Hopcroft
// splitter sets are word-wise unions, and the recurrent-state iteration
// unions whole sets at once. The original map-based implementations are
// kept in the package tests as differential oracles.
package dfa

import (
	"fmt"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/nfa"
)

// DFA is a complete deterministic automaton: every state has exactly one
// successor for each input bit. Accept doubles as the Moore output (a
// predict-1 state accepts).
type DFA struct {
	// Next[s][b] is the successor of state s on input bit b.
	Next [][2]int
	// Accept[s] reports whether state s is accepting (predicts 1).
	Accept []bool
	// Start is the initial state.
	Start int
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.Next) }

// Validate checks structural invariants.
func (d *DFA) Validate() error {
	n := len(d.Next)
	if len(d.Accept) != n {
		return fmt.Errorf("dfa: %d transition rows but %d accept flags", n, len(d.Accept))
	}
	if n == 0 {
		return fmt.Errorf("dfa: no states")
	}
	if d.Start < 0 || d.Start >= n {
		return fmt.Errorf("dfa: start state %d out of range", d.Start)
	}
	for s, row := range d.Next {
		for b := 0; b < 2; b++ {
			if row[b] < 0 || row[b] >= n {
				return fmt.Errorf("dfa: state %d has invalid successor %d on %d", s, row[b], b)
			}
		}
	}
	return nil
}

// Run feeds the input through the automaton and reports whether it ends in
// an accepting state.
func (d *DFA) Run(input []bool) bool {
	s := d.Start
	for _, b := range input {
		if b {
			s = d.Next[s][1]
		} else {
			s = d.Next[s][0]
		}
	}
	return d.Accept[s]
}

// Step returns the successor of state s on the given input bit.
func (d *DFA) Step(s int, bit bool) int {
	if bit {
		return d.Next[s][1]
	}
	return d.Next[s][0]
}

// FromNFA performs subset construction. The resulting DFA is complete: a
// dead state is materialized if some subset has no successor. Subsets are
// bitsets over the NFA states, interned by their packed-word key; the
// ε-closure runs in place on the bitset with a reused stack.
func FromNFA(m *nfa.NFA) *DFA {
	nn := m.NumStates()
	d := &DFA{}
	ids := map[string]int{}
	var sets []*bitseq.Set

	stack := make([]int, 0, nn)
	// closure expands s in place with everything ε-reachable.
	closure := func(s *bitseq.Set) {
		stack = stack[:0]
		s.ForEach(func(u int) { stack = append(stack, u) })
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range m.Eps[u] {
				if !s.Has(t) {
					s.Add(t)
					stack = append(stack, t)
				}
			}
		}
	}
	intern := func(s *bitseq.Set) int {
		k := s.Key()
		if id, ok := ids[k]; ok {
			return id
		}
		id := len(sets)
		ids[k] = id
		sets = append(sets, s.Clone())
		d.Next = append(d.Next, [2]int{})
		d.Accept = append(d.Accept, s.Has(m.Accept))
		return id
	}

	cur := bitseq.NewSet(nn)
	cur.Add(m.Start)
	closure(cur)
	d.Start = intern(cur)
	for work := []int{d.Start}; len(work) > 0; {
		id := work[0]
		work = work[1:]
		set := sets[id]
		for b := 0; b < 2; b++ {
			table := m.On0
			if b == 1 {
				table = m.On1
			}
			cur.Reset(nn)
			set.ForEach(func(u int) {
				for _, t := range table[u] {
					cur.Add(t)
				}
			})
			closure(cur)
			before := len(sets)
			sid := intern(cur)
			if sid == before {
				work = append(work, sid)
			}
			d.Next[id][b] = sid
		}
	}
	return d
}

// trimUnreachable drops states not reachable from Start and renumbers the
// remainder in BFS order (0-edge before 1-edge), giving a canonical
// numbering for a fixed reachable structure.
func (d *DFA) trimUnreachable() *DFA {
	order := make([]int, 0, len(d.Next))
	newID := make([]int, len(d.Next))
	for i := range newID {
		newID[i] = -1
	}
	newID[d.Start] = 0
	order = append(order, d.Start)
	for i := 0; i < len(order); i++ {
		s := order[i]
		for b := 0; b < 2; b++ {
			t := d.Next[s][b]
			if newID[t] < 0 {
				newID[t] = len(order)
				order = append(order, t)
			}
		}
	}
	out := &DFA{
		Next:   make([][2]int, len(order)),
		Accept: make([]bool, len(order)),
		Start:  0,
	}
	for _, s := range order {
		id := newID[s]
		out.Accept[id] = d.Accept[s]
		out.Next[id][0] = newID[d.Next[s][0]]
		out.Next[id][1] = newID[d.Next[s][1]]
	}
	return out
}

// Canonicalize renumbers the reachable part of the automaton in BFS order.
// Two minimized automata recognize the same language from their start
// states iff their canonical forms are identical.
func (d *DFA) Canonicalize() *DFA { return d.trimUnreachable() }

// Minimize removes unreachable states and merges equivalent ones using
// Hopcroft's partition-refinement algorithm, then renumbers canonically.
// It neither modifies d nor retains any of its slices.
func (d *DFA) Minimize() *DFA {
	t := d.trimUnreachable()
	n := t.NumStates()

	// Initial partition: accepting vs non-accepting. Block ids and the
	// order of states inside a block are arbitrary: the final BFS
	// renumbering makes the result canonical.
	block := make([]int, n)
	var blocks [][]int
	accSt, rejSt := make([]int, 0, n), make([]int, 0, n)
	for s := 0; s < n; s++ {
		if t.Accept[s] {
			accSt = append(accSt, s)
		} else {
			rejSt = append(rejSt, s)
		}
	}
	addBlock := func(states []int) int {
		id := len(blocks)
		blocks = append(blocks, states)
		for _, s := range states {
			block[s] = id
		}
		return id
	}
	if len(rejSt) > 0 {
		addBlock(rejSt)
	}
	if len(accSt) > 0 {
		addBlock(accSt)
	}

	// Precompute reverse edges in CSR form: after the counting pass and
	// prefix sum, the predecessors of tgt on symbol b land in
	// revList[b][revEnd[b][tgt-1]:revEnd[b][tgt]] (0 for tgt == 0). The
	// fill pass bumps revEnd[b][tgt] past each insertion, leaving it as
	// the end offset — two flat arrays per symbol instead of n slices.
	var revEnd, revList [2][]int
	for b := 0; b < 2; b++ {
		revEnd[b] = make([]int, n)
		revList[b] = make([]int, n)
	}
	for s := 0; s < n; s++ {
		for b := 0; b < 2; b++ {
			revEnd[b][t.Next[s][b]]++
		}
	}
	for b := 0; b < 2; b++ {
		sum := 0
		for i := 0; i < n; i++ {
			sum += revEnd[b][i]
			revEnd[b][i] = sum - revEnd[b][i]
		}
	}
	for s := 0; s < n; s++ {
		for b := 0; b < 2; b++ {
			tgt := t.Next[s][b]
			revList[b][revEnd[b][tgt]] = s
			revEnd[b][tgt]++
		}
	}
	revPreds := func(b, tgt int) []int {
		start := 0
		if tgt > 0 {
			start = revEnd[b][tgt-1]
		}
		return revList[b][start:revEnd[b][tgt]]
	}

	// Worklist of (block id, symbol); membership tracked per symbol in a
	// dense array (block ids never exceed the state count).
	type work struct{ blk, sym int }
	var wl []work
	var inWL [2][]bool
	inWL[0] = make([]bool, n)
	inWL[1] = make([]bool, n)
	push := func(blk, sym int) {
		if !inWL[sym][blk] {
			inWL[sym][blk] = true
			wl = append(wl, work{blk, sym})
		}
	}
	for b := range blocks {
		push(b, 0)
		push(b, 1)
	}

	inX := bitseq.NewSet(n)     // states with a w.sym-edge into w.blk
	touched := bitseq.NewSet(n) // block ids crossed by inX
	for len(wl) > 0 {
		w := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		inWL[w.sym][w.blk] = false

		inX.Reset(n)
		for _, s := range blocks[w.blk] {
			for _, p := range revPreds(w.sym, s) {
				inX.Add(p)
			}
		}
		if inX.Empty() {
			continue
		}
		// Split every block crossed by inX.
		touched.Reset(n)
		inX.ForEach(func(p int) { touched.Add(block[p]) })
		touched.ForEach(func(blk int) {
			// Partition the block in place: inX members to the front.
			// The two parts share the block's backing array but never
			// grow, so neither can overwrite the other.
			states := blocks[blk]
			k := 0
			for i, s := range states {
				if inX.Has(s) {
					states[k], states[i] = states[i], states[k]
					k++
				}
			}
			inside, outside := states[:k:k], states[k:]
			if len(inside) == 0 || len(outside) == 0 {
				return
			}
			// Keep the larger part in place, move the smaller to a new
			// block (Hopcroft's trick).
			small, large := inside, outside
			if len(small) > len(large) {
				small, large = large, small
			}
			blocks[blk] = large
			newID := addBlock(small)
			// If (blk, sym) is already pending, refining against the new
			// part is enough; otherwise push the smaller part.
			for sym := 0; sym < 2; sym++ {
				push(newID, sym)
			}
		})
	}

	// Build the quotient automaton; trimUnreachable renumbers it
	// canonically (every block holds a reachable state, so it trims
	// nothing).
	out := &DFA{
		Next:   make([][2]int, len(blocks)),
		Accept: make([]bool, len(blocks)),
		Start:  block[t.Start],
	}
	for id, states := range blocks {
		rep := states[0]
		out.Accept[id] = t.Accept[rep]
		out.Next[id][0] = block[t.Next[rep][0]]
		out.Next[id][1] = block[t.Next[rep][1]]
	}
	return out.trimUnreachable()
}

// RecurrentStates returns the steady-state set of §4.7: the states the
// machine can occupy after arbitrarily many inputs. It iterates the image
// of the reachable set until the set sequence cycles and returns the union
// over the cycle. Sets are bitsets keyed by their packed words, so one
// iteration is two table lookups per member and the cycle union is a
// word-wise OR.
func (d *DFA) RecurrentStates() []int {
	n := len(d.Next)
	cur := bitseq.NewSet(n)
	cur.Add(d.Start)
	seen := map[string]int{}
	var history []*bitseq.Set
	for {
		k := cur.Key()
		if at, ok := seen[k]; ok {
			// Union of the cycle's sets.
			union := bitseq.NewSet(n)
			for _, set := range history[at:] {
				union.UnionWith(set)
			}
			return union.AppendTo(make([]int, 0, union.Len()))
		}
		seen[k] = len(history)
		history = append(history, cur)
		next := bitseq.NewSet(n)
		cur.ForEach(func(s int) {
			next.Add(d.Next[s][0])
			next.Add(d.Next[s][1])
		})
		cur = next
	}
}

// TrimStartup performs the start-state reduction of §4.7: it restricts the
// automaton to its recurrent (steady-state) set, choosing as the new start
// the first recurrent state reachable from the old start (BFS, 0-edge
// first), then renumbers canonically. The steady-state behaviour — the
// output after any sufficiently long input — is unchanged.
func (d *DFA) TrimStartup() *DFA {
	n := len(d.Next)
	rec := bitseq.NewSet(n)
	for _, s := range d.RecurrentStates() {
		rec.Add(s)
	}
	// BFS from the old start to find the nearest recurrent state.
	start := -1
	visited := bitseq.NewSet(n)
	visited.Add(d.Start)
	queue := []int{d.Start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if rec.Has(s) {
			start = s
			break
		}
		for b := 0; b < 2; b++ {
			t := d.Next[s][b]
			if !visited.Has(t) {
				visited.Add(t)
				queue = append(queue, t)
			}
		}
	}
	if start < 0 {
		// Cannot happen for a complete automaton, but fall back safely.
		return d.trimUnreachable()
	}
	out := &DFA{Next: d.Next, Accept: d.Accept, Start: start}
	return out.trimUnreachable()
}

// Equal reports whether two automata accept exactly the same language from
// their start states, via product-construction BFS over a dense pair set.
func Equal(a, b *DFA) bool {
	na, nb := len(a.Next), len(b.Next)
	seen := bitseq.NewSet(na * nb)
	type pair struct{ x, y int }
	queue := []pair{{a.Start, b.Start}}
	seen.Add(a.Start*nb + b.Start)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if a.Accept[p.x] != b.Accept[p.y] {
			return false
		}
		for bit := 0; bit < 2; bit++ {
			nx, ny := a.Next[p.x][bit], b.Next[p.y][bit]
			if id := nx*nb + ny; !seen.Has(id) {
				seen.Add(id)
				queue = append(queue, pair{nx, ny})
			}
		}
	}
	return true
}

// Isomorphic reports whether the reachable parts of two automata are
// identical up to state renumbering.
func Isomorphic(a, b *DFA) bool {
	ca, cb := a.Canonicalize(), b.Canonicalize()
	if ca.NumStates() != cb.NumStates() || ca.Start != cb.Start {
		return false
	}
	for s := range ca.Next {
		if ca.Next[s] != cb.Next[s] || ca.Accept[s] != cb.Accept[s] {
			return false
		}
	}
	return true
}
