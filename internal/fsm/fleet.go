package fsm

import (
	"context"
	"fmt"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/par"
)

// This file is the fleet: many machines scored against one trace in one
// pass — the GA search over machine encodings, Figure 4's synthesis
// batch and Figure 2's per-history threshold curves. A fleet is the
// engine's layout (walk.go) over any number of slots, plus the machines
// over the block-table bound (walked by their scalar references
// alongside the packed slots), plus two things a single table does not
// need:
//
//   - Structural dedup. Identical machines inside a fleet (converged
//     GA populations, repeated threshold designs) are detected by
//     content hash with full structural verification and simulated
//     once; results fan out to every input slot.
//   - Chunking. Slots are grouped into chunks whose closure tables
//     total at most fleetChunkBytes, so a chunk's tables plus one trace
//     segment stay L2-resident no matter how large the fleet grows, and
//     chunks shard across cores via internal/par.

// fleetChunkBytes bounds the summed closure-table bytes of one machine
// chunk (~half an L2), the unit of parallel sharding.
const fleetChunkBytes = 128 << 10

// Fleet is a compiled multi-machine batch: N machines packed
// side-by-side for single-pass scoring against a shared trace. It is
// immutable after construction and safe for concurrent use.
type Fleet struct {
	layout
	// idx maps each input machine to its unique member: idx[i] == idx[j]
	// iff machines i and j are structurally identical. Members below
	// slots() are packed slots; member slots()+k is big[k].
	idx []int32
	// nuniq is the number of real unique packed machines; slots beyond
	// it are lane padding (copies of the last unique table) that round
	// the packed slot count up to an eight-lane group so the whole pass
	// runs in the wide spanOct loop. No idx entry maps to a padding slot.
	nuniq int
	// big holds the unique machines over the block-table bound, which
	// walk through the Machine methods (the scalar references).
	big []*Machine
}

// NewFleet compiles a fleet from machines. Every machine must be
// non-nil and valid; otherwise an error names the offending index.
// Machines within the block-table bound are packed through the shared
// block-table cache, so recurring machines (GA elites, repeated batch
// requests) cost one table build process-wide; larger ones ride along
// on the scalar walks, with the same results and dedup.
func NewFleet(machines []*Machine) (*Fleet, error) {
	tabs := make([]*BlockTable, len(machines))
	for i, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("fsm: fleet machine %d is nil", i)
		}
		if tabs[i] = BlockTableFor(m); tabs[i] == nil {
			if err := m.Validate(); err != nil {
				return nil, fmt.Errorf("fsm: fleet machine %d: %v", i, err)
			}
		}
	}
	return packFleet(machines, tabs), nil
}

// FleetOfTables packs already-compiled block tables into a fleet — the
// entry point for callers that hold tables (the GA search, the
// fidelity ladder).
func FleetOfTables(tabs []*BlockTable) *Fleet {
	machines := make([]*Machine, len(tabs))
	for i, t := range tabs {
		machines[i] = t.src
	}
	return packFleet(machines, tabs)
}

// packFleet builds the fleet of machines, where tabs[i] is machine i's
// block table or nil over the bound. Structurally identical machines
// collapse into one member, and a fleet of one distinct table reuses
// that table's arrays.
func packFleet(machines []*Machine, tabs []*BlockTable) *Fleet {
	f := &Fleet{idx: make([]int32, len(machines))}
	// Dedup by content hash, verified structurally so a collision can
	// never alias two distinct machines. Over-bound members take
	// provisional ids ^k until the packed slot count is known.
	seen := make(map[uint64][]int32, len(machines))
	var uniq []*BlockTable
	src := func(u int32) *Machine {
		if u < 0 {
			return f.big[^u]
		}
		return uniq[u].src
	}
	for i, m := range machines {
		h := m.blockHash()
		u, found := int32(0), false
		for _, v := range seen[h] {
			if found = sameMachine(src(v), m); found {
				u = v
				break
			}
		}
		if !found {
			if tabs[i] != nil {
				u = int32(len(uniq))
				uniq = append(uniq, tabs[i])
			} else {
				u = ^int32(len(f.big))
				f.big = append(f.big, m)
			}
			seen[h] = append(seen[h], u)
		}
		f.idx[i] = u
	}
	f.nuniq = len(uniq)
	f.layout = packLayout(uniq)
	for i, u := range f.idx {
		if u < 0 {
			f.idx[i] = int32(f.slots()) + ^u
		}
	}
	return f
}

// packLayout concatenates the unique tables into one layout.
func packLayout(uniq []*BlockTable) layout {
	if len(uniq) == 1 {
		return uniq[0].layout
	}
	// Pad the packed slots to an eight-lane group: the one-lane walker
	// costs ~4x a spanOct lane per machine (one serially-dependent chain
	// exposes the full table-load latency every byte), so whenever the
	// tail would put three or more machines on it, duplicating the last
	// table into the spare lanes is cheaper than walking the tail
	// serially. Padding slots produce no results (idx never points at
	// them) and two or fewer tail machines stay on the one-lane path,
	// where padding would cost more than it saves.
	if tail := len(uniq) % 8; tail >= 3 {
		for len(uniq)%8 != 0 {
			uniq = append(uniq, uniq[len(uniq)-1])
		}
	}
	var l layout
	l.off = make([]uint32, len(uniq)+1)
	total := 0
	for u, t := range uniq {
		total += t.NumStates()
		l.off[u+1] = uint32(total)
	}
	l.tab = make([]uint16, total<<blockShift)
	l.step = make([]uint8, total<<1)
	l.out = make([]uint8, total)
	l.start = make([]uint8, len(uniq))
	l.spans = make([]*SpanTable, len(uniq))
	for u, t := range uniq {
		o := int(l.off[u])
		copy(l.tab[o<<blockShift:], t.tab)
		copy(l.step[o<<1:], t.step)
		copy(l.out[o:], t.out)
		l.start[u] = t.start[0]
		l.spans[u] = t.spans[0]
	}
	return l
}

// RunParallelSpans replays n events of the packed outcome stream
// through every fleet machine, the first skip events as unscored
// warm-up, with the machine chunks sharded over at most workers
// goroutines (<= 0 means GOMAXPROCS) alongside the over-bound machines'
// own walks. runs is an optional run index over the same words (nil
// means none); each chunk walks it with its own cursor. Result i is
// bit-identical to machines[i]'s Machine.RunFrom from its start state,
// for any worker count and any index; n beyond the words' capacity is
// clamped.
func (f *Fleet) RunParallelSpans(workers int, words []uint64, n, skip int, runs []bitseq.Run) []SimResult {
	res := make([]SimResult, len(f.idx))
	if len(f.idx) == 0 {
		return res
	}
	n, skip = clampSpan(words, n, skip)
	states := append([]uint8(nil), f.start...)
	nb := f.slots()
	correct := make([]int, nb+len(f.big))
	chunks := f.chunks()
	// The error is structurally impossible (the fn never fails and the
	// context is never cancelled), so the result is always complete.
	// The scalar walks go first: each is one long task.
	par.Map(context.Background(), workers, len(f.big)+len(chunks), func(i int) (struct{}, error) {
		if i < len(f.big) {
			m := f.big[i]
			r, _ := m.RunFrom(m.Start, words, n, skip, runs)
			correct[nb+i] = r.Correct
			return struct{}{}, nil
		}
		c := chunks[i-len(f.big)]
		var tally spanTally
		f.walkFull(int(c[0]), int(c[1]), words, n, skip, states, correct, runs, &tally)
		tally.flush()
		return struct{}{}, nil
	})
	for i, u := range f.idx {
		res[i] = SimResult{Total: n - skip, Correct: correct[u]}
	}
	return res
}

// chunks cuts the slots into contiguous ranges whose closure tables
// total roughly fleetChunkBytes. Cuts land only on lane-group
// (eight-slot) boundaries so every chunk but the fleet's last runs
// entirely in the wide spanOct loop — a mid-chunk remainder would put
// up to seven machines per chunk on the serial one-lane path, which
// profiling shows dominates the whole pass. A chunk is never smaller
// than one lane group, which is also the kernel's irreducible cache
// unit.
func (f *Fleet) chunks() [][2]int32 {
	nu := f.slots()
	var out [][2]int32
	lo, bytes := 0, 0
	for u := 0; u < nu; u++ {
		sz := int(f.off[u+1]-f.off[u]) << (blockShift + 1)
		if u > lo && (u-lo)&7 == 0 && bytes+sz > fleetChunkBytes {
			out = append(out, [2]int32{int32(lo), int32(u)})
			lo, bytes = u, 0
		}
		bytes += sz
	}
	if lo < nu {
		out = append(out, [2]int32{int32(lo), int32(nu)})
	}
	return out
}

// RunSampled advances every fleet machine through all n events of the
// shared stream and scores machine i only at positions pos[i] (strictly
// ascending, each in [0, n)) — the §7.3 update-all replay batched
// across a candidate set. It returns per-input misprediction counts,
// each bit-identical to the machine's Machine.RunSampled from its
// start state. Positions differ per input, so duplicate machines keep
// their own walks here.
func (f *Fleet) RunSampled(words []uint64, n int, pos [][]int32) []int {
	misses := make([]int, len(f.idx))
	n, _ = clampSpan(words, n, 0)
	var tally spanTally
	nb := f.slots()
	for j, u := range f.idx {
		if k := int(u) - nb; k >= 0 {
			m := f.big[k]
			misses[j], _ = m.RunSampled(m.Start, words, n, pos[j], nil)
			continue
		}
		ln := f.lane(int(u))
		misses[j], _ = ln.sampled(f.start[u], words, n, pos[j], nil, &tally)
	}
	return misses
}

// ReplayGated is the confidence-estimator replay batched across the
// fleet: every machine steps on all n bits of the packed correctness
// stream from its start state, and valid positions where the machine
// predicts confident count toward its flagged / flaggedCorrect tallies
// — Machine.ReplayGated for N machines, with structurally identical
// machines walked once and fanned out. runs is an optional run index
// over the correct stream. Mismatched stream lengths (or n beyond their
// capacity) are an explicit error, never a silent truncation.
func (f *Fleet) ReplayGated(correct, valid []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect []int, err error) {
	n, err = checkGatedStreams(correct, valid, n)
	if err != nil {
		return nil, nil, err
	}
	nb := f.slots()
	uf := make([]int, nb+len(f.big))
	ufc := make([]int, nb+len(f.big))
	var tally spanTally
	for u := 0; u < f.nuniq; u++ {
		ln := f.lane(u)
		uf[u], ufc[u] = ln.gated(f.start[u], correct, valid, n, runs, &tally)
	}
	tally.flush()
	for k, m := range f.big {
		if uf[nb+k], ufc[nb+k], err = m.ReplayGated(correct, valid, n, runs); err != nil {
			return nil, nil, err
		}
	}
	flagged = make([]int, len(f.idx))
	flaggedCorrect = make([]int, len(f.idx))
	for i, u := range f.idx {
		flagged[i], flaggedCorrect[i] = uf[u], ufc[u]
	}
	return flagged, flaggedCorrect, nil
}
