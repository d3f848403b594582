// Package fsm defines the Moore-machine predictor produced by the design
// flow: a finite state machine over input alphabet {0,1} whose per-state
// output is the prediction of the next input (§1, §4.8 of the paper).
//
// The package provides simulation (predict/update), structural checks,
// serialization, DOT export for visualization, and the synchronization
// analysis that justifies the paper's update-on-every-branch policy
// (§7.3, §7.6): a predictor built from length-N histories reaches a state
// determined entirely by the last N inputs, no matter where it started.
package fsm

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/dfa"
)

// Machine is a Moore machine predictor. States are numbered 0..n-1.
// The zero value is not usable; construct via FromDFA or Parse, or fill
// the fields and call Validate.
type Machine struct {
	// Name optionally identifies what the predictor was built for
	// (a branch PC, a benchmark, ...).
	Name string
	// Output[s] is the prediction made in state s.
	Output []bool
	// Next[s][b] is the successor of state s after observing outcome b.
	Next [][2]int
	// Start is the initial state.
	Start int
}

// FromDFA converts an acceptance-labelled DFA into a predictor machine:
// accepting states predict 1.
func FromDFA(d *dfa.DFA) *Machine {
	m := &Machine{
		Output: append([]bool(nil), d.Accept...),
		Next:   append([][2]int(nil), d.Next...),
		Start:  d.Start,
	}
	return m
}

// ToDFA views the machine as a DFA whose accepting states are the
// predict-1 states.
func (m *Machine) ToDFA() *dfa.DFA {
	return &dfa.DFA{
		Accept: append([]bool(nil), m.Output...),
		Next:   append([][2]int(nil), m.Next...),
		Start:  m.Start,
	}
}

// NumStates returns the number of states.
func (m *Machine) NumStates() int { return len(m.Next) }

// Validate checks structural invariants.
func (m *Machine) Validate() error {
	if len(m.Next) == 0 {
		return fmt.Errorf("fsm: no states")
	}
	if len(m.Output) != len(m.Next) {
		return fmt.Errorf("fsm: %d outputs for %d states", len(m.Output), len(m.Next))
	}
	if m.Start < 0 || m.Start >= len(m.Next) {
		return fmt.Errorf("fsm: start state %d out of range", m.Start)
	}
	for s, row := range m.Next {
		for b := 0; b < 2; b++ {
			if row[b] < 0 || row[b] >= len(m.Next) {
				return fmt.Errorf("fsm: state %d successor on %d is %d, out of range", s, b, row[b])
			}
		}
	}
	return nil
}

// Step returns the successor of state s on outcome b.
func (m *Machine) Step(s int, b bool) int {
	if b {
		return m.Next[s][1]
	}
	return m.Next[s][0]
}

// Clone returns an independent copy.
func (m *Machine) Clone() *Machine {
	return &Machine{
		Name:   m.Name,
		Output: append([]bool(nil), m.Output...),
		Next:   append([][2]int(nil), m.Next...),
		Start:  m.Start,
	}
}

// Runner is the mutable execution state of one predictor instance. Many
// runners can share one Machine; a hardware deployment instantiates one
// runner per predictor entry.
type Runner struct {
	m     *Machine
	state int
}

// NewRunner returns a runner positioned at the machine's start state.
func (m *Machine) NewRunner() *Runner {
	return &Runner{m: m, state: m.Start}
}

// Predict returns the machine's prediction in the current state.
func (r *Runner) Predict() bool { return r.m.Output[r.state] }

// Update advances the machine with the observed outcome.
func (r *Runner) Update(outcome bool) { r.state = r.m.Step(r.state, outcome) }

// State returns the current state number.
func (r *Runner) State() int { return r.state }

// Reset returns the runner to the start state.
func (r *Runner) Reset() { r.state = r.m.Start }

// SetState positions the runner at an arbitrary state — the bridge
// that lets a blocked kernel advance a runner bank out-of-band and
// write the exit states back. It panics on an out-of-range state.
func (r *Runner) SetState(s int) {
	if s < 0 || s >= r.m.NumStates() {
		panic(fmt.Sprintf("fsm: state %d out of range [0,%d)", s, r.m.NumStates()))
	}
	r.state = s
}

// Machine returns the shared machine.
func (r *Runner) Machine() *Machine { return r.m }

// SimResult summarizes a simulation run.
type SimResult struct {
	Total   int
	Correct int
}

// MissRate returns the fraction of mispredictions.
func (s SimResult) MissRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Total-s.Correct) / float64(s.Total)
}

// Accuracy returns the fraction of correct predictions.
func (s SimResult) Accuracy() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Correct) / float64(s.Total)
}

// Simulate predicts every bit of the trace in sequence, updating after
// each outcome, and tallies correctness. skip outcomes at the head are
// consumed as warm-up without being scored (the paper scores steady-state
// behaviour). It packs the trace a stack buffer at a time and runs the
// byte-blocked walk (BlockTable.RunFrom) via the shared table cache —
// compiling the machine's closure table on first use, so steady-state
// calls allocate nothing — and falls back to SimulateScalar when the
// machine exceeds the table bound. Results are bit-identical either way.
func (m *Machine) Simulate(trace []bool, skip int) SimResult {
	t := BlockTableFor(m)
	if t == nil {
		return m.SimulateScalar(trace, skip)
	}
	const chunk = 1 << 12
	var buf [chunk >> 6]uint64
	var res SimResult
	state := t.StartState()
	for lo := 0; lo < len(trace); lo += chunk {
		part := trace[lo:min(lo+chunk, len(trace))]
		clear(buf[:])
		for i, b := range part {
			if b {
				buf[i>>6] |= 1 << uint(i&63)
			}
		}
		r, end := t.RunFrom(state, buf[:], len(part), skip-lo, nil)
		res.Total += r.Total
		res.Correct += r.Correct
		state = end
	}
	return res
}

// SimulateScalar is the bit-at-a-time reference walk — the oracle
// every blocked walk is tested against. The walk is inlined rather than
// going through a Runner so a simulation performs no allocations.
func (m *Machine) SimulateScalar(trace []bool, skip int) SimResult {
	state := m.Start
	var res SimResult
	for i, b := range trace {
		if i >= skip {
			res.Total++
			if m.Output[state] == b {
				res.Correct++
			}
		}
		if b {
			state = m.Next[state][1]
		} else {
			state = m.Next[state][0]
		}
	}
	return res
}

// SimulateBits is Simulate over a packed sequence: the hot entry point
// for callers that already hold bit-packed outcomes (the serving
// layer, the packed trace store), avoiding the []bool unpacking
// entirely.
func (m *Machine) SimulateBits(trace *bitseq.Bits, skip int) SimResult {
	res, _ := m.RunFrom(m.Start, trace.Words(), trace.Len(), skip, nil)
	return res
}

// The three packed walks below are the machine-level entry points of
// the simulation engine, with the signatures of the BlockTable walks of
// the same names. Each takes the machine's cached block table
// (BlockTableFor) when it has one and the scalar reference walk when it
// is over the table's state bound — the only place that bound is
// decided. A scalar walk ignores the run index; results are
// bit-identical either way. The machine must be valid.

// RunFrom is BlockTable.RunFrom for any valid machine: replay n events
// of the packed stream from state, the first skip unscored, returning
// the tally and the exit state.
func (m *Machine) RunFrom(state int, words []uint64, n, skip int, runs []bitseq.Run) (SimResult, int) {
	if t := BlockTableFor(m); t != nil {
		return t.RunFrom(state, words, n, skip, runs)
	}
	return m.runFromScalar(state, words, n, skip)
}

// RunSampled is BlockTable.RunSampled for any valid machine: advance
// from state through all n events, scoring only the listed positions.
func (m *Machine) RunSampled(state int, words []uint64, n int, pos []int32, runs []bitseq.Run) (misses, end int) {
	if t := BlockTableFor(m); t != nil {
		return t.RunSampled(state, words, n, pos, runs)
	}
	return m.RunSampledScalar(state, words, n, pos)
}

// ReplayGated is BlockTable.ReplayGated for any valid machine: the
// confidence-estimator replay from the start state.
func (m *Machine) ReplayGated(correct []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect int) {
	if t := BlockTableFor(m); t != nil {
		return t.ReplayGated(correct, n, runs)
	}
	return m.gatedScalar(correct, n)
}

// runFromScalar is the bit-at-a-time form of BlockTable.RunFrom — the
// full walk's packed reference, equal to SimulateScalar on the unpacked
// stream.
func (m *Machine) runFromScalar(state int, words []uint64, n, skip int) (SimResult, int) {
	n, skip = clampSpan(words, n, skip)
	correct := 0
	for i := 0; i < n; i++ {
		b := words[i>>6]>>uint(i&63)&1 == 1
		if i >= skip && m.Output[state] == b {
			correct++
		}
		if b {
			state = m.Next[state][1]
		} else {
			state = m.Next[state][0]
		}
	}
	return SimResult{Total: n - skip, Correct: correct}, state
}

// RunSampledScalar is the bit-at-a-time form of BlockTable.RunSampled —
// advance on every event of the packed stream from the given state,
// score only the listed positions (strictly ascending, each in [0, n))
// — the sampled walk's reference, taken by RunSampled for machines over
// the block-table bound. n beyond the words' capacity is clamped.
func (m *Machine) RunSampledScalar(state int, words []uint64, n int, pos []int32) (misses, end int) {
	n, _ = clampSpan(words, n, 0)
	c := 0
	for i := 0; i < n; i++ {
		b := words[i>>6]>>uint(i&63)&1 == 1
		if c < len(pos) && int(pos[c]) == i {
			if m.Output[state] != b {
				misses++
			}
			c++
		}
		if b {
			state = m.Next[state][1]
		} else {
			state = m.Next[state][0]
		}
	}
	return misses, state
}

// gatedScalar is the bit-at-a-time form of BlockTable.ReplayGated —
// the gated mode's reference: step on every bit of the correctness
// stream from the start state, tallying the positions the machine flags
// confident. n beyond the words' capacity is clamped.
func (m *Machine) gatedScalar(correct []uint64, n int) (flagged, flaggedCorrect int) {
	n, _ = clampSpan(correct, n, 0)
	s := m.Start
	for i := 0; i < n; i++ {
		cb := correct[i>>6]>>uint(i&63)&1 == 1
		if m.Output[s] {
			flagged++
			if cb {
				flaggedCorrect++
			}
		}
		s = m.Step(s, cb)
	}
	return flagged, flaggedCorrect
}

// SyncDepth analyzes the synchronization property (§7.6). It returns the
// smallest k such that after ANY k consecutive inputs the machine's state
// is a function of those inputs alone (independent of the starting
// state), and ok=false if no such k exists. Machines produced by the
// design flow from N-bit histories have SyncDepth <= N, which is why the
// paper can update every custom predictor on every branch without
// corrupting predictions.
func (m *Machine) SyncDepth() (k int, ok bool) {
	n := m.NumStates()
	// Pair graph over unordered off-diagonal pairs; an edge follows both
	// components on the same symbol. A word of length L fails to
	// synchronize iff some off-diagonal path of length L exists.
	type pair struct{ a, b int }
	norm := func(a, b int) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	nodes := map[pair]int{}
	var list []pair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			nodes[pair{a, b}] = len(list)
			list = append(list, pair{a, b})
		}
	}
	if len(list) == 0 {
		return 0, true
	}
	adj := make([][]int, len(list))
	for i, p := range list {
		for bit := 0; bit < 2; bit++ {
			na, nb := m.Next[p.a][bit], m.Next[p.b][bit]
			if na == nb {
				continue // this word prefix synchronized
			}
			adj[i] = append(adj[i], nodes[norm(na, nb)])
		}
	}
	// Longest path in the off-diagonal graph; a cycle means unbounded.
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int, len(list))
	depth := make([]int, len(list))
	var cyclic bool
	var dfs func(u int) int
	dfs = func(u int) int {
		switch state[u] {
		case inStack:
			cyclic = true
			return 0
		case done:
			return depth[u]
		}
		state[u] = inStack
		best := 0
		for _, v := range adj[u] {
			if d := dfs(v) + 1; d > best {
				best = d
			}
			if cyclic {
				break
			}
		}
		state[u] = done
		depth[u] = best
		return best
	}
	longest := 0
	for u := range list {
		if d := dfs(u); d > longest {
			longest = d
		}
		if cyclic {
			return 0, false
		}
	}
	// A pair surviving a path of length L means words of length L+1 that
	// leave it unsynchronized... the path length counts edges; a pair with
	// longest off-diagonal path L tolerates L further symbols, so k = L+1
	// inputs are required counting the one that enters the pair graph.
	return longest + 1, true
}

// Equal reports whether two machines produce identical predictions on all
// input sequences starting from their start states.
func Equal(a, b *Machine) bool {
	return dfa.Equal(a.ToDFA(), b.ToDFA())
}

// Isomorphic reports whether the reachable parts of two machines are
// identical up to renumbering.
func Isomorphic(a, b *Machine) bool {
	return dfa.Isomorphic(a.ToDFA(), b.ToDFA())
}

// DOT renders the machine in Graphviz format, with each state labelled by
// its number and prediction, matching the paper's figures.
func (m *Machine) DOT() string {
	var sb strings.Builder
	name := m.Name
	if name == "" {
		name = "fsm"
	}
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("\trankdir=LR;\n\tnode [shape=circle];\n")
	fmt.Fprintf(&sb, "\tinit [shape=point];\n\tinit -> s%d;\n", m.Start)
	for s := range m.Next {
		out := 0
		if m.Output[s] {
			out = 1
		}
		fmt.Fprintf(&sb, "\ts%d [label=\"s%d\\n[%d]\"];\n", s, s, out)
	}
	for s, row := range m.Next {
		if row[0] == row[1] {
			fmt.Fprintf(&sb, "\ts%d -> s%d [label=\"0,1\"];\n", s, row[0])
			continue
		}
		fmt.Fprintf(&sb, "\ts%d -> s%d [label=\"0\"];\n", s, row[0])
		fmt.Fprintf(&sb, "\ts%d -> s%d [label=\"1\"];\n", s, row[1])
	}
	sb.WriteString("}\n")
	return sb.String()
}

// String gives a compact one-line description.
func (m *Machine) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fsm(%d states, start s%d:", m.NumStates(), m.Start)
	for s, row := range m.Next {
		out := 0
		if m.Output[s] {
			out = 1
		}
		fmt.Fprintf(&sb, " s%d[%d]->(%d,%d)", s, out, row[0], row[1])
	}
	sb.WriteByte(')')
	return sb.String()
}

// WriteTo serializes the machine in a line-oriented text format:
//
//	fsm <numStates> <start> <name>
//	<output> <next0> <next1>     (one line per state)
func (m *Machine) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	k, err := fmt.Fprintf(bw, "fsm %d %d %s\n", m.NumStates(), m.Start, m.Name)
	n += int64(k)
	if err != nil {
		return n, err
	}
	for s, row := range m.Next {
		out := 0
		if m.Output[s] {
			out = 1
		}
		k, err = fmt.Fprintf(bw, "%d %d %d\n", out, row[0], row[1])
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a machine written by WriteTo.
func Read(r io.Reader) (*Machine, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("fsm: missing header")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 3 || fields[0] != "fsm" {
		return nil, fmt.Errorf("fsm: bad header %q", sc.Text())
	}
	var n, start int
	if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &n, &start); err != nil {
		return nil, fmt.Errorf("fsm: bad header %q: %v", sc.Text(), err)
	}
	m := &Machine{Start: start}
	if len(fields) > 3 {
		m.Name = strings.Join(fields[3:], " ")
	}
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("fsm: expected %d state rows, got %d", n, i)
		}
		var out, n0, n1 int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d %d", &out, &n0, &n1); err != nil {
			return nil, fmt.Errorf("fsm: bad state row %q: %v", sc.Text(), err)
		}
		m.Output = append(m.Output, out != 0)
		m.Next = append(m.Next, [2]int{n0, n1})
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, sc.Err()
}
