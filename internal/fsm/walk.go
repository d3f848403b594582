package fsm

import (
	"math/bits"

	"fsmpredict/internal/bitseq"
)

// This file is the simulation engine. One packed layout holds the
// 8-event closure tables of one machine (a BlockTable is a one-slot
// layout) or of many (a Fleet), and each replay mode has exactly one
// walker, which takes an optional run index (nil means no spans):
//
//   - full: score every event after a warm-up (walkFull, with spanOct
//     as its eight-lane path and lane.full as its one-lane path);
//   - sampled: advance on every event, score only listed positions
//     (lane.sampled, the §7.3 update-all replay);
//   - gated: the confidence-estimator tallies of flagged and
//     flagged-correct positions (lane.gated).
//
// Every walker replays exactly the event sequence of the scalar
// references (Machine.SimulateScalar, Machine.RunSampledScalar,
// Machine.gatedScalar), which also serve machines over the block-table
// bound through the Machine walks (fsm.go): the
// closure tables and span power tables are composed from the machine's
// own 2-symbol step function, never re-derived, so the walks are
// bit-identical by construction and by the package's differential
// suite.

// fleetSegEvents is the full-mode trace tile: 1<<15 events = 4 KiB of
// packed words, comfortably L1-resident alongside one lane group's
// tables.
const fleetSegEvents = 1 << 15

// layout is the packed structure-of-arrays form shared by BlockTable
// and Fleet.
type layout struct {
	// tab is the concatenated closure table of the slots: slot u owns
	// absolute states [off[u], off[u+1]), and the entry for absolute
	// state g = off[u]+s on byte v is tab[g<<blockShift|v]. An entry is
	// missMask<<entryMask | g'<<blockShift | popcount(missMask): g' is
	// the ABSOLUTE exit state, so e&entryRow indexes the next lookup
	// directly, and bit i of the miss mask is set when the prediction
	// made before event i of the block (earliest event in bit 0,
	// matching bitseq's packing) differs from that event. The full mode
	// reads the count, the sampled mode the mask, and the gated mode the
	// prediction mask missMask XOR v.
	tab []uint32
	// step[g<<1|b] is the plain 2-symbol transition (slot-local) and
	// out[g] state g's prediction bit, for the ragged sub-byte phases.
	step []uint8
	out  []uint8
	// start[u] is slot u's start state (slot-local).
	start []uint8
	// off is the cumulative state count, one entry per slot plus one.
	off []uint32
	// spans[u] is slot u's span power tables, shared with the source
	// BlockTable so levels built anywhere serve everywhere.
	spans []*SpanTable
}

// The closure entry's fields (layout.tab), and the most absolute
// states a layout can hold: the row field is 16 bits of state.
const (
	entryCount      = 0xff
	entryRow        = 0xffff00
	entryMask       = 24
	maxLayoutStates = entryRow>>blockShift + 1
)

// slots returns the packed slot count.
func (l *layout) slots() int { return len(l.off) - 1 }

// lane is one slot's view of the layout for the one-lane walkers. Its
// byte loops chain the layout's absolute closure rows exactly as
// spanOct does; the 2-symbol rows and the span tables are slot-local,
// so states convert (row, local) only where a byte loop starts or ends.
type lane struct {
	tab  []uint32 // the whole layout's closure table
	base uint32   // the slot's first absolute state
	step []uint8
	out  []uint8
	span *SpanTable
}

func (l *layout) lane(u int) lane {
	lo, hi := l.off[u], l.off[u+1]
	return lane{tab: l.tab, base: lo, step: l.step[lo<<1 : hi<<1], out: l.out[lo:hi], span: l.spans[u]}
}

// row returns slot-local state s's absolute closure row; local is its
// inverse.
func (ln *lane) row(s uint8) uint32   { return (ln.base + uint32(s)) << blockShift }
func (ln *lane) local(g uint32) uint8 { return uint8(g>>blockShift - ln.base) }

// nextRun moves the cursor r past the runs ending at or before i and
// returns the next run clipped to [i, end&^7). When no run remains in
// range it returns rs == re == end: the rest of [i, end) is mixed. r
// only moves forward, so one cursor serves a whole walk.
func nextRun(runs []bitseq.Run, r *int, i, end int) (rs, re int) {
	for *r < len(runs) && runs[*r].End() <= i {
		*r++
	}
	if *r == len(runs) {
		return end, end
	}
	rs, re = max(int(runs[*r].Start), i), min(runs[*r].End(), end&^7)
	if rs >= re {
		return end, end
	}
	return rs, re
}

// runBit returns a run's repeated outcome as 0 or 1.
func runBit(r bitseq.Run) int {
	if r.One {
		return 1
	}
	return 0
}

// walkFull advances slots [lo, hi) over events [0, n) from states,
// adding the correct predictions at or after skip into correct. Whole
// eight-slot lane groups walk the trace tiled into fleetSegEvents
// segments, trace-segment outer and lane group inner, so a group's
// tables and the segment's words stay cache-hot; each segment is cut at
// the run index's boundaries, mixed stretches going through spanOct and
// homogeneous runs through every slot's power tables. The remaining
// slots (all of them for a BlockTable) walk the whole trace one lane at
// a time.
func (l *layout) walkFull(lo, hi int, words []uint64, n, skip int, states []uint8, correct []int, runs []bitseq.Run, tally *spanTally) {
	oct := lo + (hi-lo)&^7
	r := 0
	for segLo := 0; segLo < n && lo < oct; segLo += fleetSegEvents {
		segHi := min(segLo+fleetSegEvents, n)
		for i := segLo; i < segHi; {
			rs, re := nextRun(runs, &r, i, segHi)
			if i < rs {
				for u := lo; u < oct; u += 8 {
					l.spanOct(u, words, i, rs, skip, states, correct, tally)
				}
				i = rs
			}
			if i < re {
				for u := lo; u < oct; u++ {
					l.fullLane(u, words, i, re, skip, runs[r:r+1], states, correct, tally)
				}
				i = re
			}
		}
	}
	for u := oct; u < hi; u++ {
		l.fullLane(u, words, 0, n, skip, runs, states, correct, tally)
	}
}

// fullLane advances slot u alone over events [lo, hi), scoring at or
// after scoreFrom.
func (l *layout) fullLane(u int, words []uint64, lo, hi, scoreFrom int, runs []bitseq.Run, states []uint8, correct []int, tally *spanTally) {
	ln := l.lane(u)
	s, c := ln.full(states[u], words, lo, hi, scoreFrom, runs, tally)
	states[u] = s
	correct[u] += c
}

// full advances the lane over events [lo, hi) from state s, scoring
// events at or after scoreFrom, and returns the exit state and the
// correct count. lo must be byte-aligned so byte extraction never
// crosses a word. The event sequence — unscored bytes, ragged warm-up,
// scored scalar head to a byte boundary, scored bytes, scored scalar
// tail — is the one every full-mode path shares; a run straddling the
// warm-up boundary therefore splits there exactly as the byte loop
// would.
func (ln *lane) full(s uint8, words []uint64, lo, hi, scoreFrom int, runs []bitseq.Run, tally *spanTally) (uint8, int) {
	scoreFrom = min(max(scoreFrom, lo), hi)
	r := 0
	warm := scoreFrom &^ 7
	s, _ = ln.bytes(s, words, lo, warm, runs, &r, tally)
	s, _ = ln.scalar(s, words, warm, scoreFrom)
	head := min((scoreFrom+7)&^7, hi)
	s, correct := ln.scalar(s, words, scoreFrom, head)
	body := max(hi&^7, head)
	s, c := ln.bytes(s, words, head, body, runs, &r, tally)
	correct += c
	s, c = ln.scalar(s, words, body, hi)
	return s, correct + c
}

// bytes advances the lane over the whole bytes [i, end) — both
// byte-aligned — mixed bytes through the closure table, homogeneous
// runs through the power tables, and returns the exit state and the
// correct count. r is the caller's cursor into the run index.
func (ln *lane) bytes(s uint8, words []uint64, i, end int, runs []bitseq.Run, r *int, tally *spanTally) (uint8, int) {
	tab := ln.tab
	miss := 0
	correct := end - i
	for i < end {
		rs, re := nextRun(runs, r, i, end)
		g := ln.row(s)
		for ; i < rs; i += 8 {
			e := tab[g|uint32(uint8(words[i>>6]>>uint(i&63)))]
			miss += int(e & entryCount)
			g = e & entryRow
		}
		s = ln.local(g)
		if i < re {
			var m int
			s, m = ln.span.walk(s, (re-i)>>3, runBit(runs[*r]))
			miss += m
			tally.runs++
			tally.skipped += re - i
			i = re
		}
	}
	return s, correct - miss
}

// scalar advances the lane one event at a time over [i, j), returning
// the exit state and the correct predictions on the way.
func (ln *lane) scalar(s uint8, words []uint64, i, j int) (uint8, int) {
	correct := 0
	for ; i < j; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if ln.out[s] == b {
			correct++
		}
		s = ln.step[int(s)<<1|int(b)]
	}
	return s, correct
}

// spanOct advances slots u..u+7 over events [lo, hi) in lockstep,
// scoring at or after scoreFrom — the full mode's throughput path,
// chosen whenever eight slots remain. Eight independent transition
// chains share each trace byte, so the out-of-order core overlaps their
// table-load latencies (one chain is serially dependent: each lookup's
// index needs the previous lookup's result). Entries name absolute
// rows, so a lane's whole step is e := tab[g|b]; misses += e&entryCount;
// g = e&entryRow — one load and three ALU ops per lane per byte, with
// slot-local states converted only at the walk's edges. Each lane runs
// exactly lane.full's event sequence.
func (l *layout) spanOct(u int, words []uint64, lo, hi, scoreFrom int, states []uint8, correct []int, tally *spanTally) {
	tab := l.tab
	g0, g1, g2, g3, g4, g5, g6, g7 := l.octRows(u, states)
	scoreFrom = min(max(scoreFrom, lo), hi)
	i := lo
	for ; i+8 <= scoreFrom; i += 8 {
		b := uint32(uint8(words[i>>6] >> uint(i&63)))
		g0, g1, g2, g3 = tab[g0|b]&entryRow, tab[g1|b]&entryRow, tab[g2|b]&entryRow, tab[g3|b]&entryRow
		g4, g5, g6, g7 = tab[g4|b]&entryRow, tab[g5|b]&entryRow, tab[g6|b]&entryRow, tab[g7|b]&entryRow
	}
	if i < scoreFrom {
		// Ragged warm-up (at most seven events): route each lane
		// through the one-lane walker up to the next byte boundary,
		// then resume the wide loop.
		head := min((scoreFrom+7)&^7, hi)
		l.writeOctStates(u, states, g0, g1, g2, g3, g4, g5, g6, g7)
		for k := 0; k < 8; k++ {
			l.fullLane(u+k, words, i, head, scoreFrom, nil, states, correct, tally)
		}
		if head == hi {
			return
		}
		i = head
		g0, g1, g2, g3, g4, g5, g6, g7 = l.octRows(u, states)
	}
	// Scored body: sum each lane's MISS counts and convert to correct
	// counts once at the end (walkFull's calls span at most one
	// fleetSegEvents tile, so uint32 counts cannot wrap). Each trace word
	// is loaded once and its whole bytes shifted out of a register.
	var c0, c1, c2, c3, c4, c5, c6, c7 uint32
	body := i
	for i+8 <= hi {
		w := words[i>>6] >> uint(i&63)
		k := min(64-i&63, hi-i) >> 3
		for i += k << 3; k > 0; k-- {
			b := uint32(uint8(w))
			w >>= 8
			e := tab[g0|b]
			c0, g0 = c0+e&entryCount, e&entryRow
			e = tab[g1|b]
			c1, g1 = c1+e&entryCount, e&entryRow
			e = tab[g2|b]
			c2, g2 = c2+e&entryCount, e&entryRow
			e = tab[g3|b]
			c3, g3 = c3+e&entryCount, e&entryRow
			e = tab[g4|b]
			c4, g4 = c4+e&entryCount, e&entryRow
			e = tab[g5|b]
			c5, g5 = c5+e&entryCount, e&entryRow
			e = tab[g6|b]
			c6, g6 = c6+e&entryCount, e&entryRow
			e = tab[g7|b]
			c7, g7 = c7+e&entryCount, e&entryRow
		}
	}
	l.writeOctStates(u, states, g0, g1, g2, g3, g4, g5, g6, g7)
	for k, c := range [8]uint32{c0, c1, c2, c3, c4, c5, c6, c7} {
		correct[u+k] += i - body - int(c)
	}
	if i < hi {
		// Ragged tail (at most seven events), scored one lane at a time.
		for k := 0; k < 8; k++ {
			l.fullLane(u+k, words, i, hi, scoreFrom, nil, states, correct, tally)
		}
	}
}

// octRows returns the absolute rows of slots u..u+7's slot-local
// states; writeOctStates stores eight rows back as slot-local states.
func (l *layout) octRows(u int, states []uint8) (g0, g1, g2, g3, g4, g5, g6, g7 uint32) {
	row := func(k int) uint32 { return (l.off[u+k] + uint32(states[u+k])) << blockShift }
	return row(0), row(1), row(2), row(3), row(4), row(5), row(6), row(7)
}

func (l *layout) writeOctStates(u int, states []uint8, g0, g1, g2, g3, g4, g5, g6, g7 uint32) {
	for k, g := range [8]uint32{g0, g1, g2, g3, g4, g5, g6, g7} {
		states[u+k] = uint8(g>>blockShift - l.off[u+k])
	}
}

// sampled advances the lane from state s through all n events and
// counts mispredictions at the positions pos (strictly ascending, each
// in [0, n)), returning the count and the exit state. With a run index,
// stretches of a homogeneous run holding no sampled position advance
// through the power tables (only sampled positions score, so their
// misses are irrelevant), and the byte holding a sampled position goes
// through the closure table so its per-event predictions are at hand.
func (ln *lane) sampled(s uint8, words []uint64, n int, pos []int32, runs []bitseq.Run, tally *spanTally) (int, uint8) {
	misses, c, r := 0, 0, 0
	body := n &^ 7
	for i := 0; i < body; {
		rs, re := nextRun(runs, &r, i, body)
		s, misses, c = ln.sampleBytes(s, words, i, rs, pos, c, misses)
		i = rs
		for i < re {
			stop := re
			if c < len(pos) && int(pos[c]) < re {
				stop = int(pos[c]) &^ 7
			}
			if stop > i {
				s, _ = ln.span.walk(s, (stop-i)>>3, runBit(runs[r]))
				tally.runs++
				tally.skipped += stop - i
				i = stop
				continue
			}
			s, misses, c = ln.sampleBytes(s, words, i, i+8, pos, c, misses)
			i += 8
		}
	}
	for i := body; i < n; i++ {
		b := uint8(words[i>>6] >> uint(i&63) & 1)
		if c < len(pos) && int(pos[c]) == i {
			if ln.out[s] != b {
				misses++
			}
			c++
		}
		s = ln.step[int(s)<<1|int(b)]
	}
	return misses, s
}

// sampleBytes walks the whole bytes [i, j) through the closure table,
// scoring the sampled positions pos[c:] inside them.
func (ln *lane) sampleBytes(s uint8, words []uint64, i, j int, pos []int32, c, misses int) (uint8, int, int) {
	tab, g := ln.tab, ln.row(s)
	for ; i < j; i += 8 {
		e := tab[g|uint32(uint8(words[i>>6]>>uint(i&63)))]
		if c < len(pos) && int(pos[c]) < i+8 {
			x := e >> entryMask
			for ; c < len(pos) && int(pos[c]) < i+8; c++ {
				misses += int(x >> uint(int(pos[c])-i) & 1)
			}
		}
		g = e & entryRow
	}
	return ln.local(g), misses, c
}

// gated is the confidence-estimator replay: the lane steps from state s
// on every bit of the correctness stream, and every position counts
// toward flagged (predicted confident) and flaggedCorrect (confident and
// correct). With a run index over the stream, each run takes its closed
// form: the tallies are functions of the machine path alone — on a ones
// run every predict-1 step is flagged and correct, on a zeros run every
// predict-1 step is flagged and none is correct, and the power tables'
// miss counts are exactly those step counts.
func (ln *lane) gated(s uint8, correct []uint64, n int, runs []bitseq.Run, tally *spanTally) (flagged, flaggedCorrect int) {
	r := 0
	body := n &^ 7
	for i := 0; i < body; {
		rs, re := nextRun(runs, &r, i, body)
		s, flagged, flaggedCorrect = ln.gatedBytes(s, correct, i, rs, flagged, flaggedCorrect)
		i = rs
		if i < re {
			k, b := (re-i)>>3, runBit(runs[r])
			var m int
			s, m = ln.span.walk(s, k, b)
			if b == 1 {
				flagged += k<<3 - m
				flaggedCorrect += k<<3 - m
			} else {
				flagged += m
			}
			tally.runs++
			tally.skipped += re - i
			i = re
		}
	}
	for i := body; i < n; i++ {
		cb := uint8(correct[i>>6] >> uint(i&63) & 1)
		if ln.out[s] == 1 {
			flagged++
			flaggedCorrect += int(cb)
		}
		s = ln.step[int(s)<<1|int(cb)]
	}
	return flagged, flaggedCorrect
}

// gatedBytes walks the whole bytes [i, j) of the gated replay through
// the closure table, adding to the flagged tallies.
func (ln *lane) gatedBytes(s uint8, correct []uint64, i, j, flagged, flaggedCorrect int) (uint8, int, int) {
	tab, g := ln.tab, ln.row(s)
	for ; i < j; i += 8 {
		cb := uint8(correct[i>>6] >> uint(i&63))
		e := tab[g|uint32(cb)]
		pm := uint8(e>>entryMask) ^ cb
		flagged += bits.OnesCount8(pm)
		flaggedCorrect += bits.OnesCount8(pm & cb)
		g = e & entryRow
	}
	return ln.local(g), flagged, flaggedCorrect
}

// clampSpan normalizes (n, skip) against the packed stream's capacity:
// negative values floor at zero, n is clamped to the events the words
// can hold, and skip is clamped to n.
func clampSpan(words []uint64, n, skip int) (int, int) {
	n = min(max(n, 0), len(words)<<6)
	return n, min(max(skip, 0), n)
}
