package fsm

import (
	"fmt"
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
//   - gated: the confidence-estimator tallies under a valid mask
//     (lane.gated).
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
	// state g = off[u]+s on byte v is tab[g<<blockShift|v]. Its low byte
	// is the slot-local exit state; its high byte is the prediction mask,
	// bit i holding the output of the state occupied when event i of the
	// block was predicted (earliest event in bit 0, matching bitseq's
	// packing). A byte's mispredictions are popcount(mask XOR outcomes).
	tab []uint16
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

// slots returns the packed slot count.
func (l *layout) slots() int { return len(l.off) - 1 }

// lane is one slot's slot-local view of the layout: the one-lane
// walkers index it with slot-local states, which keeps their serial
// table-load chain one add shorter than absolute indexing.
type lane struct {
	tab  []uint16
	step []uint8
	out  []uint8
	span *SpanTable
}

func (l *layout) lane(u int) lane {
	lo, hi := int(l.off[u]), int(l.off[u+1])
	return lane{
		tab:  l.tab[lo<<blockShift : hi<<blockShift],
		step: l.step[lo<<1 : hi<<1],
		out:  l.out[lo:hi],
		span: l.spans[u],
	}
}

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
		for ; i < rs; i += 8 {
			b := uint8(words[i>>6] >> uint(i&63))
			e := tab[int(s)<<blockShift|int(b)]
			miss += bits.OnesCount8(uint8(e>>8) ^ b)
			s = uint8(e)
		}
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
// index needs the previous lookup's result), and absolute state
// indexing keeps the loop on one slice and eight integers. Each lane
// runs exactly lane.full's event sequence.
func (l *layout) spanOct(u int, words []uint64, lo, hi, scoreFrom int, states []uint8, correct []int, tally *spanTally) {
	tab := l.tab
	o0, o1, o2, o3 := int(l.off[u]), int(l.off[u+1]), int(l.off[u+2]), int(l.off[u+3])
	o4, o5, o6, o7 := int(l.off[u+4]), int(l.off[u+5]), int(l.off[u+6]), int(l.off[u+7])
	g0, g1, g2, g3 := o0+int(states[u]), o1+int(states[u+1]), o2+int(states[u+2]), o3+int(states[u+3])
	g4, g5, g6, g7 := o4+int(states[u+4]), o5+int(states[u+5]), o6+int(states[u+6]), o7+int(states[u+7])
	var c0, c1, c2, c3, c4, c5, c6, c7 int
	scoreFrom = min(max(scoreFrom, lo), hi)
	i := lo
	for ; i+8 <= scoreFrom; i += 8 {
		b := int(uint8(words[i>>6] >> uint(i&63)))
		g0 = o0 + int(uint8(tab[g0<<blockShift|b]))
		g1 = o1 + int(uint8(tab[g1<<blockShift|b]))
		g2 = o2 + int(uint8(tab[g2<<blockShift|b]))
		g3 = o3 + int(uint8(tab[g3<<blockShift|b]))
		g4 = o4 + int(uint8(tab[g4<<blockShift|b]))
		g5 = o5 + int(uint8(tab[g5<<blockShift|b]))
		g6 = o6 + int(uint8(tab[g6<<blockShift|b]))
		g7 = o7 + int(uint8(tab[g7<<blockShift|b]))
	}
	if i < scoreFrom {
		// Ragged warm-up (at most seven events): route each lane
		// through the one-lane walker up to the next byte boundary,
		// then resume the wide loop.
		head := min((scoreFrom+7)&^7, hi)
		writeOctStates(states, l.off, u, g0, g1, g2, g3, g4, g5, g6, g7)
		for k := 0; k < 8; k++ {
			l.fullLane(u+k, words, i, head, scoreFrom, nil, states, correct, tally)
		}
		if head == hi {
			return
		}
		i = head
		g0, g1, g2, g3 = o0+int(states[u]), o1+int(states[u+1]), o2+int(states[u+2]), o3+int(states[u+3])
		g4, g5, g6, g7 = o4+int(states[u+4]), o5+int(states[u+5]), o6+int(states[u+6]), o7+int(states[u+7])
	}
	// Scored body: count MISSES (xor-popcount per lane) and convert to
	// correct counts once at the end — one fewer arithmetic op per lane
	// per byte. Trace bytes come from shifting a word-local register,
	// one word load per 64 events.
	scored := 0
	for ; i+8 <= hi && i&63 != 0; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e0 := tab[g0<<blockShift|int(b)]
		e1 := tab[g1<<blockShift|int(b)]
		e2 := tab[g2<<blockShift|int(b)]
		e3 := tab[g3<<blockShift|int(b)]
		e4 := tab[g4<<blockShift|int(b)]
		e5 := tab[g5<<blockShift|int(b)]
		e6 := tab[g6<<blockShift|int(b)]
		e7 := tab[g7<<blockShift|int(b)]
		c0 += bits.OnesCount8(uint8(e0>>8) ^ b)
		c1 += bits.OnesCount8(uint8(e1>>8) ^ b)
		c2 += bits.OnesCount8(uint8(e2>>8) ^ b)
		c3 += bits.OnesCount8(uint8(e3>>8) ^ b)
		c4 += bits.OnesCount8(uint8(e4>>8) ^ b)
		c5 += bits.OnesCount8(uint8(e5>>8) ^ b)
		c6 += bits.OnesCount8(uint8(e6>>8) ^ b)
		c7 += bits.OnesCount8(uint8(e7>>8) ^ b)
		g0, g1, g2, g3 = o0+int(uint8(e0)), o1+int(uint8(e1)), o2+int(uint8(e2)), o3+int(uint8(e3))
		g4, g5, g6, g7 = o4+int(uint8(e4)), o5+int(uint8(e5)), o6+int(uint8(e6)), o7+int(uint8(e7))
		scored += 8
	}
	for ; i+64 <= hi; i += 64 {
		w := words[i>>6]
		for k := 0; k < 8; k++ {
			b := uint8(w)
			w >>= 8
			e0 := tab[g0<<blockShift|int(b)]
			e1 := tab[g1<<blockShift|int(b)]
			e2 := tab[g2<<blockShift|int(b)]
			e3 := tab[g3<<blockShift|int(b)]
			e4 := tab[g4<<blockShift|int(b)]
			e5 := tab[g5<<blockShift|int(b)]
			e6 := tab[g6<<blockShift|int(b)]
			e7 := tab[g7<<blockShift|int(b)]
			c0 += bits.OnesCount8(uint8(e0>>8) ^ b)
			c1 += bits.OnesCount8(uint8(e1>>8) ^ b)
			c2 += bits.OnesCount8(uint8(e2>>8) ^ b)
			c3 += bits.OnesCount8(uint8(e3>>8) ^ b)
			c4 += bits.OnesCount8(uint8(e4>>8) ^ b)
			c5 += bits.OnesCount8(uint8(e5>>8) ^ b)
			c6 += bits.OnesCount8(uint8(e6>>8) ^ b)
			c7 += bits.OnesCount8(uint8(e7>>8) ^ b)
			g0, g1, g2, g3 = o0+int(uint8(e0)), o1+int(uint8(e1)), o2+int(uint8(e2)), o3+int(uint8(e3))
			g4, g5, g6, g7 = o4+int(uint8(e4)), o5+int(uint8(e5)), o6+int(uint8(e6)), o7+int(uint8(e7))
		}
		scored += 64
	}
	for ; i+8 <= hi; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e0 := tab[g0<<blockShift|int(b)]
		e1 := tab[g1<<blockShift|int(b)]
		e2 := tab[g2<<blockShift|int(b)]
		e3 := tab[g3<<blockShift|int(b)]
		e4 := tab[g4<<blockShift|int(b)]
		e5 := tab[g5<<blockShift|int(b)]
		e6 := tab[g6<<blockShift|int(b)]
		e7 := tab[g7<<blockShift|int(b)]
		c0 += bits.OnesCount8(uint8(e0>>8) ^ b)
		c1 += bits.OnesCount8(uint8(e1>>8) ^ b)
		c2 += bits.OnesCount8(uint8(e2>>8) ^ b)
		c3 += bits.OnesCount8(uint8(e3>>8) ^ b)
		c4 += bits.OnesCount8(uint8(e4>>8) ^ b)
		c5 += bits.OnesCount8(uint8(e5>>8) ^ b)
		c6 += bits.OnesCount8(uint8(e6>>8) ^ b)
		c7 += bits.OnesCount8(uint8(e7>>8) ^ b)
		g0, g1, g2, g3 = o0+int(uint8(e0)), o1+int(uint8(e1)), o2+int(uint8(e2)), o3+int(uint8(e3))
		g4, g5, g6, g7 = o4+int(uint8(e4)), o5+int(uint8(e5)), o6+int(uint8(e6)), o7+int(uint8(e7))
		scored += 8
	}
	writeOctStates(states, l.off, u, g0, g1, g2, g3, g4, g5, g6, g7)
	correct[u] += scored - c0
	correct[u+1] += scored - c1
	correct[u+2] += scored - c2
	correct[u+3] += scored - c3
	correct[u+4] += scored - c4
	correct[u+5] += scored - c5
	correct[u+6] += scored - c6
	correct[u+7] += scored - c7
	if i < hi {
		// Ragged tail (at most seven events), scored one lane at a time.
		for k := 0; k < 8; k++ {
			l.fullLane(u+k, words, i, hi, scoreFrom, nil, states, correct, tally)
		}
	}
}

// writeOctStates converts eight absolute states back to slot-local and
// stores them.
func writeOctStates(states []uint8, off []uint32, u, g0, g1, g2, g3, g4, g5, g6, g7 int) {
	states[u] = uint8(g0 - int(off[u]))
	states[u+1] = uint8(g1 - int(off[u+1]))
	states[u+2] = uint8(g2 - int(off[u+2]))
	states[u+3] = uint8(g3 - int(off[u+3]))
	states[u+4] = uint8(g4 - int(off[u+4]))
	states[u+5] = uint8(g5 - int(off[u+5]))
	states[u+6] = uint8(g6 - int(off[u+6]))
	states[u+7] = uint8(g7 - int(off[u+7]))
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
	tab := ln.tab
	for ; i < j; i += 8 {
		b := uint8(words[i>>6] >> uint(i&63))
		e := tab[int(s)<<blockShift|int(b)]
		if c < len(pos) && int(pos[c]) < i+8 {
			x := uint8(e>>8) ^ b
			for ; c < len(pos) && int(pos[c]) < i+8; c++ {
				misses += int(x >> uint(int(pos[c])-i) & 1)
			}
		}
		s = uint8(e)
	}
	return s, misses, c
}

// gated is the confidence-estimator replay: the lane steps from state s
// on every bit of the correctness stream, and positions whose valid bit
// is set count toward flagged (predicted confident) and flaggedCorrect
// (confident and correct). With a run index over the correct stream, a
// run is skipped only across stretches where the valid stream is
// saturated: there the tallies are functions of the machine path alone
// — on a ones run every predict-1 step is flagged and correct, on a
// zeros run every predict-1 step is flagged and none is correct, and
// the power tables' miss counts are exactly those step counts.
// Elsewhere the run falls back to the gated byte loop.
func (ln *lane) gated(s uint8, correct, valid []uint64, n int, runs []bitseq.Run, tally *spanTally) (flagged, flaggedCorrect int) {
	r := 0
	body := n &^ 7
	for i := 0; i < body; {
		rs, re := nextRun(runs, &r, i, body)
		s, flagged, flaggedCorrect = ln.gatedBytes(s, correct, valid, i, rs, flagged, flaggedCorrect)
		i = rs
		for i < re {
			j := allOnesTo(valid, i, re)
			if j == i {
				s, flagged, flaggedCorrect = ln.gatedBytes(s, correct, valid, i, i+8, flagged, flaggedCorrect)
				i += 8
				continue
			}
			k, b := (j-i)>>3, runBit(runs[r])
			var m int
			s, m = ln.span.walk(s, k, b)
			if b == 1 {
				flagged += k<<3 - m
				flaggedCorrect += k<<3 - m
			} else {
				flagged += m
			}
			tally.runs++
			tally.skipped += j - i
			i = j
		}
	}
	for i := body; i < n; i++ {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off & 1)
		if valid[w]>>off&1 == 1 && ln.out[s] == 1 {
			flagged++
			flaggedCorrect += int(cb)
		}
		s = ln.step[int(s)<<1|int(cb)]
	}
	return flagged, flaggedCorrect
}

// gatedBytes walks the whole bytes [i, j) of the gated replay through
// the closure table, adding to the flagged tallies.
func (ln *lane) gatedBytes(s uint8, correct, valid []uint64, i, j, flagged, flaggedCorrect int) (uint8, int, int) {
	tab := ln.tab
	for ; i < j; i += 8 {
		w, off := i>>6, uint(i&63)
		cb := uint8(correct[w] >> off)
		vb := uint8(valid[w] >> off)
		e := tab[int(s)<<blockShift|int(cb)]
		pm := uint8(e >> 8)
		flagged += bits.OnesCount8(vb & pm)
		flaggedCorrect += bits.OnesCount8(vb & pm & cb)
		s = uint8(e)
	}
	return s, flagged, flaggedCorrect
}

// allOnesTo returns the largest byte-aligned position j in [i, end]
// such that bits [i, j) of the packed stream are all ones, scanning a
// word at a time on aligned stretches. i and end must be byte-aligned.
func allOnesTo(words []uint64, i, end int) int {
	j := i
	for j < end {
		if j&63 == 0 && j+64 <= end && words[j>>6] == ^uint64(0) {
			j += 64
			continue
		}
		if uint8(words[j>>6]>>uint(j&63)) != 0xFF {
			break
		}
		j += 8
	}
	return j
}

// clampSpan normalizes (n, skip) against the packed stream's capacity:
// negative values floor at zero, n is clamped to the events the words
// can hold, and skip is clamped to n.
func clampSpan(words []uint64, n, skip int) (int, int) {
	n = min(max(n, 0), len(words)<<6)
	return n, min(max(skip, 0), n)
}

// checkGatedStreams validates a gated replay's inputs: the two packed
// streams must have the same word length and hold at least n bits.
// Mismatched streams are a caller bug — silently truncating to the
// shorter one would misattribute confidence tallies — so they are an
// explicit error rather than a clamp.
func checkGatedStreams(correct, valid []uint64, n int) (int, error) {
	n = max(n, 0)
	if len(correct) != len(valid) {
		return 0, fmt.Errorf("fsm: gated replay streams differ: %d correct words vs %d valid words", len(correct), len(valid))
	}
	if capacity := len(correct) << 6; n > capacity {
		return 0, fmt.Errorf("fsm: gated replay of %d events exceeds the streams' %d-bit capacity", n, capacity)
	}
	return n, nil
}
