package bpred

import (
	"context"
	"slices"

	"fsmpredict/internal/par"
	"fsmpredict/internal/tracestore"
)

// traceStepper is one predictor bound to a packed trace for the batched
// kernel: step consumes one event and reports whether the prediction
// missed.
type traceStepper interface {
	step(pc uint64, taken bool) bool
}

// genericStepper drives any Predictor through its public interface.
type genericStepper struct{ p Predictor }

func (s genericStepper) step(pc uint64, taken bool) bool {
	miss := s.p.Predict(pc) != taken
	s.p.Update(pc, taken)
	return miss
}

// RunAll drives every predictor over the packed trace in ONE pass,
// equivalent to calling Run(p, tr.Events()) per predictor but reading
// the trace once: the kernel decodes each event's PC index, branch ID
// and outcome bit once per block of events, then advances every
// predictor over the block. Gshare and LGC instances run through
// concrete-typed table sweeps (Gshare.sweep, LGC.sweep); customized
// architectures replay each entry's machine over the packed stream
// (runCustomBlocked); any other Predictor is stepped through its
// interface. Every instance is updated in place, so it ends in exactly
// the state Run leaves it in; an instance may appear in the batch only
// once. The inner loop allocates nothing; the per-call setup cost is
// one stepper per interface-driven predictor.
func RunAll(preds []Predictor, tr *tracestore.Packed) []Result {
	res := make([]Result, len(preds))
	var k sweepBatch
	var gIdx, lIdx, sIdx []int
	for j, p := range preds {
		switch q := p.(type) {
		case *Gshare:
			k.gshares, gIdx = append(k.gshares, q), append(gIdx, j)
		case *LGC:
			k.lgcs, lIdx = append(k.lgcs, q), append(lIdx, j)
		case *Custom:
			res[j] = runCustomBlocked(q, tr)
		default:
			k.steppers, sIdx = append(k.steppers, genericStepper{p}), append(sIdx, j)
		}
	}
	idx := slices.Concat(gIdx, lIdx, sIdx)
	if len(idx) > 0 {
		k.pcIndex = pcIndexOf(tr)
		tmp := make([]Result, len(idx))
		runAllInto(&k, tr, tmp)
		for m, j := range idx {
			res[j] = tmp[m]
		}
	}
	return res
}

// sweepBatch is one RunAll batch split by how each member is driven:
// the typed table sweeps first, then the interface steppers. pcIndex
// maps a dense branch ID to the PC word index (pc >> 2) both table
// predictors hash.
type sweepBatch struct {
	gshares  []*Gshare
	lgcs     []*LGC
	steppers []traceStepper
	pcIndex  []uint32
}

// pcIndexOf maps each dense branch ID of the trace to its PC word index.
func pcIndexOf(tr *tracestore.Packed) []uint32 {
	x := make([]uint32, tr.NumStatics())
	for id := range x {
		x[id] = uint32(tr.PCOf(int32(id)) >> 2)
	}
	return x
}

// sweepBlock is the number of events decoded per block: large enough to
// amortize each predictor's register loads, small enough for the block
// buffers to live on the stack.
const sweepBlock = 256

// runAllInto is the allocation-free inner kernel of RunAll; tests guard
// it with testing.AllocsPerRun. res holds one Result per batch member, in
// gshares, lgcs, steppers order.
func runAllInto(k *sweepBatch, tr *tracestore.Packed, res []Result) {
	var (
		ids [sweepBlock]int32
		xs  [sweepBlock]uint32
		ts  [sweepBlock]uint8
	)
	n := tr.Len()
	words := tr.Outcomes().Words()
	for lo := 0; lo < n; lo += sweepBlock {
		m := min(sweepBlock, n-lo)
		for e := 0; e < m; e++ {
			i := lo + e
			ids[e] = tr.IDAt(i)
			xs[e] = k.pcIndex[ids[e]]
			ts[e] = uint8(words[i>>6] >> uint(i&63) & 1)
		}
		r := res
		for _, g := range k.gshares {
			r[0].Misses += g.sweep(xs[:m], ts[:m])
			r = r[1:]
		}
		for _, l := range k.lgcs {
			r[0].Misses += l.sweep(xs[:m], ts[:m])
			r = r[1:]
		}
		if len(k.steppers) > 0 {
			for e := 0; e < m; e++ {
				pc, taken := tr.PCOf(ids[e]), ts[e] != 0
				for j, s := range k.steppers {
					if s.step(pc, taken) {
						r[j].Misses++
					}
				}
			}
		}
	}
	for j := range res {
		res[j].Total += n
	}
}

// runCustomBlocked simulates one Custom instance over the whole packed
// trace through the packed machine walks instead of stepping runners
// bit by bit: under the update-all policy each entry's runner walks the
// GLOBAL outcome stream (8 events per table lookup when the machine has
// a block table), scoring only at its own branch's positions
// (fsm.Machine.RunSampled); under the matched-only ablation each
// matched runner walks just its branch's substream. The XScale base is
// a PC-indexed table, not an FSM, so it keeps its scalar pass — which
// also tallies base-predicted events (branches with no matching entry).
// Exit states are written back into the runners, so the instance's
// visible state afterwards is bit-identical to Run's.
func runCustomBlocked(c *Custom, tr *tracestore.Packed) Result {
	// slot[id]: custom entry serving that static branch, -1 for none.
	// winner[i]: the static branch entry i serves in this trace, -1 if
	// its tag never occurs (tags are unique per entry in byTag, so an
	// entry serves at most one branch; on duplicate tags byTag keeps
	// the last entry, exactly like the scalar dispatch).
	slot := make([]int32, tr.NumStatics())
	winner := make([]int32, len(c.entries))
	for i := range winner {
		winner[i] = -1
	}
	for id := range slot {
		slot[id] = -1
		if i, ok := c.byTag[tr.PCOf(int32(id))]; ok {
			slot[id] = int32(i)
			winner[i] = int32(id)
		}
	}

	n := tr.Len()
	words := tr.Outcomes().Words()
	misses := 0
	for i, e := range c.entries {
		state := c.runners[i].State()
		if c.UpdateMatchedOnly {
			// The runner advances (and predicts) only on its branch's
			// own occurrences.
			if w := winner[i]; w >= 0 {
				sub := tr.SubOf(w)
				r, end := e.Machine.RunFrom(state, sub.Outcomes.Words(), sub.Outcomes.Len(), 0, nil)
				misses += r.Total - r.Correct
				c.runners[i].SetState(end)
			}
			continue
		}
		// Update-all: advance on every global outcome; sample at the
		// served branch's positions (none for shadowed/unmatched
		// entries, which still advance).
		var pos []int32
		if w := winner[i]; w >= 0 {
			pos = tr.SubOf(w).Pos
		}
		m, end := e.Machine.RunSampled(state, words, n, pos, tr.SpanIndex())
		misses += m
		c.runners[i].SetState(end)
	}
	// Scalar base pass: the base trains on every event and predicts
	// the events no custom entry serves.
	for i := 0; i < n; i++ {
		id := tr.IDAt(i)
		pc := tr.PCOf(id)
		taken := tr.Taken(i)
		if slot[id] < 0 && c.base.Predict(pc) != taken {
			misses++
		}
		c.base.Update(pc, taken)
	}
	return Result{Total: n, Misses: misses}
}

// RunCustomPrefixes simulates every prefix of one trained entry set —
// NewCustom(entries[:1]) through NewCustom(entries) — in a single trace
// pass, returning Result[k-1] for prefix length k. It is exact for the
// paper's update-all policy (§7.3), and only that policy: under
// update-all every custom FSM advances on every branch outcome and the
// XScale base trains on every branch, so neither the base state nor any
// runner state depends on which prefix it belongs to. The only
// per-prefix difference is arbitration — an event predicts with entry j
// exactly when j is the last matching entry below the prefix length —
// so one pass can charge each event's base or runner miss to the
// relevant range of prefix lengths through a difference array. This
// replaces the O(len(entries)²) runner-events of simulating each prefix
// separately (the Figure 5 area sweep) with O(len(entries)) per event.
func RunCustomPrefixes(entries []*CustomEntry, tr *tracestore.Packed) []Result {
	return RunCustomPrefixesParallel(entries, tr, 1)
}

// RunCustomPrefixesParallel is RunCustomPrefixes with the per-entry
// substream replay sharded across par workers (<= 0 means GOMAXPROCS).
// The arbitration ranges the diff array charges are static per branch
// — slots[id] never changes mid-trace — so each entry's miss total
// over its branch's positions is an independent RunSampled walk of the
// global stream; only the scalar XScale base pass is inherently
// sequential. Results are deterministic and identical for any worker
// count.
func RunCustomPrefixesParallel(entries []*CustomEntry, tr *tracestore.Packed, workers int) []Result {
	n := len(entries)
	res := make([]Result, n)
	if n == 0 {
		return res
	}
	// slots[id] lists, in ascending order, the entry indexes whose tag
	// is that static branch's PC; prefix k predicts with the last index
	// below k.
	byTag := make(map[uint64][]int32, n)
	for i, e := range entries {
		byTag[e.Tag] = append(byTag[e.Tag], int32(i))
	}
	slots := make([][]int32, tr.NumStatics())
	for id := range slots {
		slots[id] = byTag[tr.PCOf(int32(id))]
	}

	// Scalar base pass: the base trains on every event; its misses are
	// tallied per branch so they can be charged to the prefix ranges
	// the base predicts for (aggregating per branch is exact because
	// the charge range depends only on the branch, not the event).
	base := NewXScale()
	baseMiss := make([]int, tr.NumStatics())
	allMisses := 0
	events := tr.Len()
	for i := 0; i < events; i++ {
		id := tr.IDAt(i)
		pc := tr.PCOf(id)
		taken := tr.Taken(i)
		if base.Predict(pc) != taken {
			if len(slots[id]) == 0 {
				allMisses++
			} else {
				baseMiss[id]++
			}
		}
		base.Update(pc, taken)
	}

	// Per-entry replay, the O(entries × events) bulk of the sweep:
	// every runner advances on the whole global stream from its start
	// state and is scored at its tag's positions. Entries whose tag
	// never occurs contribute nothing (and, under update-all, their
	// state is invisible), so they are skipped outright.
	words := tr.Outcomes().Words()
	entryMiss, _ := par.Map(context.Background(), workers, n, func(i int) (int, error) {
		id, ok := tr.IDOf(entries[i].Tag)
		if !ok {
			return 0, nil
		}
		m := entries[i].Machine
		miss, _ := m.RunSampled(m.Start, words, events, tr.SubOf(id).Pos, tr.SpanIndex())
		return miss, nil
	})

	// Charge the aggregated misses through a difference array over
	// prefix lengths: per branch, the base covers prefixes up to
	// the first matching entry, and entry j covers prefixes from j+1
	// until the next matching entry takes over.
	diff := make([]int64, n+1)
	charge := func(lo, hi int32, miss int) {
		if miss != 0 && lo <= hi {
			diff[lo-1] += int64(miss)
			diff[hi] -= int64(miss)
		}
	}
	for id, list := range slots {
		if len(list) == 0 {
			continue
		}
		if first := list[0]; first > 0 {
			charge(1, first, baseMiss[id])
		}
		for m, j := range list {
			hi := int32(n)
			if m+1 < len(list) {
				hi = list[m+1]
			}
			charge(j+1, hi, entryMiss[j])
		}
	}
	var running int64
	for k := 0; k < n; k++ {
		running += diff[k]
		res[k] = Result{Total: events, Misses: allMisses + int(running)}
	}
	return res
}
