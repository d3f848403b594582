package fsm

import (
	"fmt"
	"math/bits"

	"fsmpredict/internal/bitseq"
)

// This file is the byte-blocked superstep kernel: every replay loop in
// the flow ultimately walks a packed bitstream through a small Moore
// machine one event at a time, but a Moore machine's response to a
// fixed 8-bit outcome block — the eight predictions it makes and the
// state it lands in — is a pure function of the state it entered the
// block in. A BlockTable tabulates that function once per machine
// (NumStates × 256 entries) so simulation consumes the stream a byte
// per lookup instead of a bit per branch, and each entry carries the
// byte's miss count and miss mask beside the next state's row, so a
// byte's mispredictions cost one mask and one add. The scalar
// Machine.SimulateScalar/RunSampledScalar walks remain as the
// references; the table is built by composing the machine's own
// 2-symbol table, never by re-deriving behaviour, so every walk over it
// is bit-identical to them.

// blockShift is the log2 of the block width: kernels consume the input
// 8 events at a time. Eight is the sweet spot — the table for an
// S-state machine is S*256 uint32s (a 2-bit counter costs 4 KiB, a
// machine at the 256-state bound 256 KiB), one entry packs
// the next state's row with the byte's 8-bit miss mask and its count
// (walk.go), and byte extraction from a packed word stream never
// crosses a word boundary at aligned offsets.
const blockShift = 8

// maxBlockStates bounds the machines a BlockTable can represent:
// next-state and the block's prediction mask each fit a byte. Larger
// machines (some order-9 designs, hand-built machines over the wire)
// take the scalar references through the Machine walks; this bound is
// decided nowhere else.
const maxBlockStates = 256

// BlockTable is the compiled transition closure of one Machine over
// 8-bit input blocks: a one-slot layout (walk.go), so the
// single-machine walks and the fleet walks are the same code. It is
// immutable after compilation and safe for concurrent use; many
// simulations can share one table.
type BlockTable struct {
	layout
	// src is a private clone of the compiled machine, used to verify
	// cache hits (the shared cache keys on a 64-bit content hash).
	src *Machine
}

// newBlockTable wraps one machine's closure table, 2-symbol step rows
// and outputs as a one-slot layout with its (lazily grown) span power
// tables — the one constructor behind CompileBlockTable and the disk
// decoder.
func newBlockTable(tab []uint32, step, out []uint8, start uint8, src *Machine) *BlockTable {
	return &BlockTable{
		layout: layout{
			tab:   tab,
			step:  step,
			out:   out,
			start: []uint8{start},
			off:   []uint32{0, uint32(len(out))},
			spans: []*SpanTable{newSpanTable(step, out)},
		},
		src: src,
	}
}

// CompileBlockTable builds the closure table for a machine. It errors
// on an invalid machine or one with more than 256 states (BlockTableFor
// returns nil instead).
func CompileBlockTable(m *Machine) (*BlockTable, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.NumStates()
	if n > maxBlockStates {
		return nil, fmt.Errorf("fsm: %d states exceed the %d-state block-table bound", n, maxBlockStates)
	}
	step := make([]uint8, 2*n)
	out := make([]uint8, n)
	for s := 0; s < n; s++ {
		step[s<<1] = uint8(m.Next[s][0])
		step[s<<1|1] = uint8(m.Next[s][1])
		if m.Output[s] {
			out[s] = 1
		}
	}
	// T_4, the 16-entry nibble table, comes from direct 4-step walks of
	// the 2-symbol table; T_8 composes it once: a byte runs its low
	// nibble from s, then its high nibble from the intermediate state,
	// OR-ing the prediction masks. Bit j of a mask is the prediction
	// made before event j, so the byte entry replays 8 events exactly as
	// the scalar walk would. A nibble entry packs next-state in the low
	// byte and the 4-bit prediction mask above it; the byte entry turns
	// the 8-bit prediction mask into the miss mask and count against the
	// byte itself.
	const nibble = blockShift / 2
	nib := make([]uint16, n<<nibble)
	for s := 0; s < n; s++ {
		for v := 0; v < 1<<nibble; v++ {
			st, mask := s, uint16(0)
			for j := 0; j < nibble; j++ {
				mask |= uint16(out[st]) << j
				st = int(step[st<<1|v>>j&1])
			}
			nib[s<<nibble|v] = uint16(st) | mask<<8
		}
	}
	tab := make([]uint32, n<<blockShift)
	for s := 0; s < n; s++ {
		row := (*[1 << blockShift]uint32)(tab[s<<blockShift:])
		for lo, e := range nib[s<<nibble : (s+1)<<nibble] {
			mid, loMask := int(e&0xff), e>>8
			for hi, h := range (*[1 << nibble]uint16)(nib[mid<<nibble:]) {
				v := uint8(hi<<nibble | lo)
				miss := uint8(h>>8<<nibble|loMask) ^ v
				row[v] = uint32(miss)<<entryMask | uint32(h&0xff)<<blockShift | uint32(bits.OnesCount8(miss))
			}
		}
	}
	return newBlockTable(tab, step, out, uint8(m.Start), m.Clone()), nil
}

// NumStates returns the compiled machine's state count.
func (t *BlockTable) NumStates() int { return len(t.out) }

// StartState returns the compiled machine's start state.
func (t *BlockTable) StartState() int { return int(t.start[0]) }

// Machine returns the machine the table was compiled from (a private
// clone; callers must not mutate it).
func (t *BlockTable) Machine() *Machine { return t.src }

// Bytes estimates the table's retained size, the unit of the shared
// cache's bytes statistic.
func (t *BlockTable) Bytes() uint64 {
	n := uint64(t.NumStates())
	machine := n * (1 + 16) // Output bools + Next pairs of the src clone
	return 4*(n<<blockShift) + 3*n + machine
}

// compiledFrom reports whether the table was compiled from a machine
// behaviourally identical to m — the content check behind the hashed
// cache (Name is irrelevant to simulation and deliberately ignored).
func (t *BlockTable) compiledFrom(m *Machine) bool { return sameMachine(t.src, m) }

// sameMachine reports whether two machines are structurally identical
// (Name ignored).
func sameMachine(a, b *Machine) bool {
	if len(a.Next) != len(b.Next) || a.Start != b.Start {
		return false
	}
	for s, row := range a.Next {
		if row != b.Next[s] || a.Output[s] != b.Output[s] {
			return false
		}
	}
	return true
}

// RunFrom replays n events of a packed outcome stream (bit i of words is
// event i, bitseq layout; bits at n and beyond must be zero) from the
// given state, consuming the first skip events as unscored warm-up, and
// returns the tally and the exit state — the building block for
// stateful replay (bpred runner banks advance mid-stream). runs is an
// optional run index over the same words (bitseq.Runs, any minimum run
// length; nil means none): homogeneous runs then advance in O(log run)
// power-table lookups. The result is bit-identical to
// Machine.SimulateScalar on the unpacked stream for any index. n beyond
// the words' capacity is clamped rather than trusted. Allocates nothing.
func (t *BlockTable) RunFrom(state int, words []uint64, n, skip int, runs []bitseq.Run) (SimResult, int) {
	n, skip = clampSpan(words, n, skip)
	states := [1]uint8{uint8(state)}
	var correct [1]int
	var tally spanTally
	t.walkFull(0, 1, words, n, skip, states[:], correct[:], runs, &tally)
	tally.flush()
	return SimResult{Total: n - skip, Correct: correct[0]}, int(states[0])
}

// RunSampled advances from the given state through all n events of the
// packed stream but scores predictions only at the given positions
// (strictly ascending, each in [0, n)) — the §7.3 update-all replay,
// where a per-branch predictor trains on the global outcome stream yet
// predicts only its own branch's occurrences. runs is an optional run
// index as for RunFrom. It returns the misprediction count and the exit
// state, bit-identical to Machine.RunSampledScalar, and allocates
// nothing.
func (t *BlockTable) RunSampled(state int, words []uint64, n int, pos []int32, runs []bitseq.Run) (misses, end int) {
	n, _ = clampSpan(words, n, 0)
	var tally spanTally
	ln := t.lane(0)
	misses, s := ln.sampled(uint8(state), words, n, pos, runs, &tally)
	tally.flush()
	return misses, int(s)
}

// ReplayGated is the confidence-estimator replay: the machine steps on
// every bit of the correctness stream from its start state, and every
// position counts toward flagged (machine predicted confident) and
// flaggedCorrect (confident and the access was correct). runs is an
// optional run index over the stream. n beyond the words' capacity is
// clamped. Allocates nothing.
func (t *BlockTable) ReplayGated(correct []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect int) {
	n, _ = clampSpan(correct, n, 0)
	var tally spanTally
	ln := t.lane(0)
	flagged, flaggedCorrect = ln.gated(t.start[0], correct, n, runs, &tally)
	tally.flush()
	return flagged, flaggedCorrect
}
