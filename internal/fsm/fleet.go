package fsm

import (
	"context"
	"fmt"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/par"
)

// This file is the fleet: many machines scored against one trace in one
// pass — the GA search over machine encodings, Figure 4's synthesis
// batch, Figure 2's per-history threshold curves, and coalesced
// batch-simulate flushes. A fleet is the engine's layout (walk.go) over
// any number of slots, plus two things a single table does not need:
//
//   - Structural dedup. Identical machines inside a fleet (converged
//     GA populations, duplicate batch requests) are detected by
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
	// idx maps each input machine to its unique slot: idx[i] == idx[j]
	// iff machines i and j are structurally identical.
	idx []int32
	// nuniq is the number of real unique machines; slots beyond it are
	// lane padding (copies of the last unique table) that round the
	// packed slot count up to an eight-lane group so the whole pass runs
	// in the wide spanOct loop. No idx entry maps to a padding slot.
	nuniq int
}

// NewFleet compiles a fleet from machines. Every machine must be valid
// and within the block-table state bound (256); otherwise an error
// names the offending index and callers fall back to per-machine
// simulation. Compilation goes through the shared block-table cache,
// so recurring machines (GA elites, repeated batch requests) cost one
// table build process-wide.
func NewFleet(machines []*Machine) (*Fleet, error) {
	tabs := make([]*BlockTable, len(machines))
	for i, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("fsm: fleet machine %d is nil", i)
		}
		t := BlockTableFor(m)
		if t == nil {
			var err error
			if t, err = CompileBlockTable(m); err != nil {
				return nil, fmt.Errorf("fsm: fleet machine %d: %v", i, err)
			}
		}
		tabs[i] = t
	}
	return FleetOfTables(tabs), nil
}

// FleetOfTables packs already-compiled block tables into a fleet — the
// entry point for callers that hold tables (the batch-simulate flush).
// Structurally identical machines collapse into one packed slot, and a
// fleet of one distinct table reuses that table's arrays.
func FleetOfTables(tabs []*BlockTable) *Fleet {
	f := &Fleet{idx: make([]int32, len(tabs))}
	// Dedup by content hash, verified structurally so a collision can
	// never alias two distinct machines.
	seen := make(map[uint64][]int32, len(tabs))
	var uniq []*BlockTable
	for i, t := range tabs {
		h := t.src.blockHash()
		slot := int32(-1)
		for _, u := range seen[h] {
			if uniq[u].compiledFrom(t.src) {
				slot = u
				break
			}
		}
		if slot < 0 {
			slot = int32(len(uniq))
			uniq = append(uniq, t)
			seen[h] = append(seen[h], slot)
		}
		f.idx[i] = slot
	}
	f.nuniq = len(uniq)
	if len(uniq) == 1 {
		f.layout = uniq[0].layout
		return f
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
	f.off = make([]uint32, len(uniq)+1)
	total := 0
	for u, t := range uniq {
		total += t.NumStates()
		f.off[u+1] = uint32(total)
	}
	f.tab = make([]uint16, total<<blockShift)
	f.step = make([]uint8, total<<1)
	f.out = make([]uint8, total)
	f.start = make([]uint8, len(uniq))
	f.spans = make([]*SpanTable, len(uniq))
	for u, t := range uniq {
		o := int(f.off[u])
		copy(f.tab[o<<blockShift:], t.tab)
		copy(f.step[o<<1:], t.step)
		copy(f.out[o:], t.out)
		f.start[u] = t.start[0]
		f.spans[u] = t.spans[0]
	}
	return f
}

// Len returns the number of input machines (fleet result slots).
func (f *Fleet) Len() int { return len(f.idx) }

// Unique returns the number of structurally distinct machines — the
// number of state walks whose results a fleet pass actually uses.
func (f *Fleet) Unique() int { return f.nuniq }

// Deduped returns how many input machines were folded into another
// slot's walk.
func (f *Fleet) Deduped() int { return f.Len() - f.Unique() }

// TableBytes returns the packed closure-table footprint.
func (f *Fleet) TableBytes() uint64 {
	n := uint64(f.off[len(f.off)-1])
	return 2*(n<<blockShift) + 3*n
}

// RunParallelSpans replays n events of the packed outcome stream
// through every fleet machine, the first skip events as unscored
// warm-up, with the machine chunks sharded over at most workers
// goroutines (<= 0 means GOMAXPROCS). runs is an optional run index over the
// same words (nil means none); each chunk walks it with its own cursor.
// Result i is bit-identical to machines[i]'s BlockTable.RunFrom from
// its start state, for any worker count and any index; n beyond the
// words' capacity is clamped.
func (f *Fleet) RunParallelSpans(workers int, words []uint64, n, skip int, runs []bitseq.Run) []SimResult {
	res := make([]SimResult, len(f.idx))
	if len(f.idx) == 0 {
		return res
	}
	n, skip = clampSpan(words, n, skip)
	states := append([]uint8(nil), f.start...)
	correct := make([]int, f.slots())
	// The error is structurally impossible (the fn never fails and the
	// context is never cancelled), so the result is always complete.
	par.MapSlice(context.Background(), workers, f.chunks(), func(_ int, c [2]int32) (struct{}, error) {
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
// each bit-identical to the machine's BlockTable.RunSampled from its
// start state. Positions differ per input, so duplicate machines keep
// their own walks here.
func (f *Fleet) RunSampled(words []uint64, n int, pos [][]int32) []int {
	misses := make([]int, len(f.idx))
	n, _ = clampSpan(words, n, 0)
	var tally spanTally
	for j, u := range f.idx {
		ln := f.lane(int(u))
		misses[j], _ = ln.sampled(f.start[u], words, n, pos[j], nil, &tally)
	}
	return misses
}

// ReplayGated is the confidence-estimator replay batched across the
// fleet: every machine steps on all n bits of the packed correctness
// stream from its start state, and valid positions where the machine
// predicts confident count toward its flagged / flaggedCorrect tallies
// — BlockTable.ReplayGated for N machines, with structurally identical
// machines walked once and fanned out. runs is an optional run index
// over the correct stream. Mismatched stream lengths (or n beyond their
// capacity) are an explicit error, never a silent truncation.
func (f *Fleet) ReplayGated(correct, valid []uint64, n int, runs []bitseq.Run) (flagged, flaggedCorrect []int, err error) {
	n, err = checkGatedStreams(correct, valid, n)
	if err != nil {
		return nil, nil, err
	}
	uf := make([]int, f.nuniq)
	ufc := make([]int, f.nuniq)
	var tally spanTally
	for u := range uf {
		ln := f.lane(u)
		uf[u], ufc[u] = ln.gated(f.start[u], correct, valid, n, runs, &tally)
	}
	tally.flush()
	flagged = make([]int, len(f.idx))
	flaggedCorrect = make([]int, len(f.idx))
	for i, u := range f.idx {
		flagged[i], flaggedCorrect[i] = uf[u], ufc[u]
	}
	return flagged, flaggedCorrect, nil
}
