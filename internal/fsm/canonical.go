package fsm

import (
	"encoding/binary"

	"fsmpredict/internal/dfa"
)

// This file is the exported structural identity of a machine: a
// canonical byte encoding and a total order over machine structure.
// Both ignore Name — like blockHash, they describe only the
// simulation-relevant content (state count, start state, per-state
// outputs and transitions) — so renamed copies of one structure compare
// equal. Minimal maps every machine to the one canonical structure of
// its behaviour, so on minimal machines structural identity IS
// behavioural identity. The fitness memo keys on the canonical bytes
// (hashed together with the trace identity), the GA search keys them on
// each genome's minimal machine to dedup cohorts before compiling block
// tables, and sortByFitness uses the total order over the raw genomes
// as its deterministic tie-break.

// AppendCanonical appends the machine's canonical structural encoding
// to b and returns the extended slice: state count, start state, then
// per state the output bit and both successors, all little-endian
// uint32 (output packed as one byte). The encoding is injective over
// valid machines — distinct structures never collide — and excludes
// Name, so renamed copies encode identically.
func (m *Machine) AppendCanonical(b []byte) []byte {
	n := len(m.Next)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Start))
	for s := 0; s < n; s++ {
		o := byte(0)
		if m.Output[s] {
			o = 1
		}
		b = append(b, o)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Next[s][0]))
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Next[s][1]))
	}
	return b
}

// CompareStructural orders machines by structural content (Name
// ignored): first by state count, then start state, then state by state
// the output bit and both successors. It returns -1, 0, or +1, and
// returns 0 exactly when the two machines are structurally identical —
// the property the search's deterministic tie-break relies on.
func CompareStructural(a, b *Machine) int {
	if c := cmpInt(len(a.Next), len(b.Next)); c != 0 {
		return c
	}
	if c := cmpInt(a.Start, b.Start); c != 0 {
		return c
	}
	for s := range a.Next {
		ao, bo := 0, 0
		if a.Output[s] {
			ao = 1
		}
		if b.Output[s] {
			bo = 1
		}
		if c := cmpInt(ao, bo); c != 0 {
			return c
		}
		if c := cmpInt(a.Next[s][0], b.Next[s][0]); c != 0 {
			return c
		}
		if c := cmpInt(a.Next[s][1], b.Next[s][1]); c != 0 {
			return c
		}
	}
	return 0
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Minimal returns the canonical minimal machine equivalent to m:
// unreachable states trimmed, equivalent states merged (Hopcroft), and
// the rest renumbered in BFS order from the start state (which becomes
// 0), via dfa.Minimize. It predicts exactly as m does on every input
// from the start state, never has more states, and two machines are
// Equal exactly when their minimal machines have the same canonical
// bytes. Name is kept.
func (m *Machine) Minimal() *Machine {
	// Minimize neither mutates nor retains its receiver, so m's slices
	// serve as the DFA view without the copies ToDFA makes, and the
	// fresh result needs no copy either.
	d := (&dfa.DFA{Accept: m.Output, Next: m.Next, Start: m.Start}).Minimize()
	return &Machine{Name: m.Name, Output: d.Accept, Next: d.Next, Start: d.Start}
}
