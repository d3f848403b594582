package bpred

import (
	"context"

	"fsmpredict/internal/fsm"
	"fsmpredict/internal/par"
	"fsmpredict/internal/tracestore"
)

// traceStepper is one predictor bound to a packed trace for the batched
// kernel: step consumes one event (given both the dense branch ID and
// the PC) and reports whether the prediction missed.
type traceStepper interface {
	step(id int32, pc uint64, taken bool) bool
}

// genericStepper drives any Predictor through its public interface.
type genericStepper struct{ p Predictor }

func (s genericStepper) step(_ int32, pc uint64, taken bool) bool {
	miss := s.p.Predict(pc) != taken
	s.p.Update(pc, taken)
	return miss
}

// customStepper is the branch-ID dispatch path for the customized
// architecture: the per-trace slot table replaces the byTag map lookup
// the AoS path performs on every event.
type customStepper struct {
	c *Custom
	// slot maps dense branch ID to the custom entry index, -1 for
	// branches with no custom FSM.
	slot []int32
}

func newCustomStepper(c *Custom, tr *tracestore.Packed) customStepper {
	slot := make([]int32, tr.NumStatics())
	for id := range slot {
		slot[id] = -1
		if i, ok := c.byTag[tr.PCOf(int32(id))]; ok {
			slot[id] = int32(i)
		}
	}
	return customStepper{c: c, slot: slot}
}

func (s customStepper) step(id int32, pc uint64, taken bool) bool {
	c := s.c
	i := s.slot[id]
	var pred bool
	if i >= 0 {
		pred = c.runners[i].Predict()
	} else {
		pred = c.base.Predict(pc)
	}
	if c.UpdateMatchedOnly {
		if i >= 0 {
			c.runners[i].Update(taken)
		}
	} else {
		for _, r := range c.runners {
			r.Update(taken)
		}
	}
	c.base.Update(pc, taken)
	return pred != taken
}

// RunAll drives every predictor over the packed trace in ONE pass,
// equivalent to calling Run(p, tr.Events()) per predictor but reading
// the trace once: per event the kernel loads the dense branch ID, the
// PC and the packed outcome bit, then steps each predictor. Customized
// architectures dispatch on branch IDs through a precomputed slot table
// instead of a per-event map lookup. The inner loop allocates nothing;
// the per-call setup cost is one stepper per predictor.
func RunAll(preds []Predictor, tr *tracestore.Packed) []Result {
	res := make([]Result, len(preds))
	steppers := make([]traceStepper, 0, len(preds))
	idx := make([]int, 0, len(preds))
	for j, p := range preds {
		if c, ok := p.(*Custom); ok {
			if r, ok := runCustomBlocked(c, tr); ok {
				res[j] = r
				continue
			}
			steppers = append(steppers, newCustomStepper(c, tr))
		} else {
			steppers = append(steppers, genericStepper{p})
		}
		idx = append(idx, j)
	}
	if len(steppers) > 0 {
		tmp := make([]Result, len(steppers))
		runAllInto(steppers, tr, tmp)
		for k, j := range idx {
			res[j] = tmp[k]
		}
	}
	return res
}

// runCustomBlocked simulates one Custom instance over the whole packed
// trace through per-entry block tables instead of stepping runners bit
// by bit: under the update-all policy each entry's runner walks the
// GLOBAL outcome stream 8 events per table lookup, scoring only at its
// own branch's positions (fsm.BlockTable.RunSampled); under the
// matched-only ablation each matched runner walks just its branch's
// substream. The XScale base is a PC-indexed table, not an FSM, so it
// keeps its scalar pass — which also tallies base-predicted events
// (branches with no matching entry). Exit states are written back into
// the runners, so the instance's visible state afterwards is
// bit-identical to the scalar stepper's. Returns ok=false — caller
// falls back to the scalar kernel — when any machine has no block
// table (over the state bound).
func runCustomBlocked(c *Custom, tr *tracestore.Packed) (Result, bool) {
	tabs := make([]*fsm.BlockTable, len(c.entries))
	for i, e := range c.entries {
		if tabs[i] = fsm.BlockTableFor(e.Machine); tabs[i] == nil {
			return Result{}, false
		}
	}
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
	for i := range c.entries {
		state := c.runners[i].State()
		if c.UpdateMatchedOnly {
			// The runner advances (and predicts) only on its branch's
			// own occurrences.
			if w := winner[i]; w >= 0 {
				sub := tr.SubOf(w)
				r, end := tabs[i].RunFrom(state, sub.Outcomes.Words(), sub.Outcomes.Len(), 0, nil)
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
		m, end := tabs[i].RunSampled(state, words, n, pos, tr.SpanIndex())
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
	return Result{Total: n, Misses: misses}, true
}

// runAllInto is the allocation-free inner kernel of RunAll; tests guard
// it with testing.AllocsPerRun.
func runAllInto(steppers []traceStepper, tr *tracestore.Packed, res []Result) {
	n := tr.Len()
	for i := 0; i < n; i++ {
		id := tr.IDAt(i)
		pc := tr.PCOf(id)
		taken := tr.Taken(i)
		for j, s := range steppers {
			res[j].Total++
			if s.step(id, pc, taken) {
				res[j].Misses++
			}
		}
	}
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
//
// The replay itself runs on the blocked superstep kernel when every
// entry machine has a block table (see RunCustomPrefixesParallel);
// otherwise — a machine over the block-table bound — it falls back to
// the scalar single-pass sweep.
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
	tabs := make([]*fsm.BlockTable, n)
	for i, e := range entries {
		if tabs[i] = fsm.BlockTableFor(e.Machine); tabs[i] == nil {
			return runCustomPrefixesScalar(entries, tr)
		}
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
		m, _ := tabs[i].RunSampled(tabs[i].StartState(), words, events, tr.SubOf(id).Pos, tr.SpanIndex())
		return m, nil
	})

	// Charge the aggregated misses through the same difference array
	// as the scalar sweep: per branch, the base covers prefixes up to
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

// runCustomPrefixesScalar is the bit-at-a-time prefix sweep, the
// fallback for machines over the block-table bound.
func runCustomPrefixesScalar(entries []*CustomEntry, tr *tracestore.Packed) []Result {
	n := len(entries)
	res := make([]Result, n)
	if n == 0 {
		return res
	}
	base := NewXScale()
	runners := make([]*fsm.Runner, n)
	for i, e := range entries {
		runners[i] = e.Machine.NewRunner()
	}
	// slots[id] lists, in ascending order, the entry indexes whose tag is
	// that static branch's PC; prefix k matches the last index below k.
	byTag := make(map[uint64][]int32, n)
	for i, e := range entries {
		byTag[e.Tag] = append(byTag[e.Tag], int32(i))
	}
	slots := make([][]int32, tr.NumStatics())
	for id := range slots {
		slots[id] = byTag[tr.PCOf(int32(id))]
	}

	// diff[k-1]..diff[hi-1] bracket miss charges for prefix lengths
	// [lo, hi]; allMisses counts events every prefix misses the same way
	// (no matching entry at any length, so the base predicts for all).
	diff := make([]int64, n+1)
	charge := func(lo, hi int32, miss bool) {
		if miss && lo <= hi {
			diff[lo-1]++
			diff[hi]--
		}
	}
	allMisses := 0
	events := tr.Len()
	for i := 0; i < events; i++ {
		id := tr.IDAt(i)
		pc := tr.PCOf(id)
		taken := tr.Taken(i)
		list := slots[id]
		if len(list) == 0 {
			if base.Predict(pc) != taken {
				allMisses++
			}
		} else {
			if first := list[0]; first > 0 {
				charge(1, first, base.Predict(pc) != taken)
			}
			for m, j := range list {
				hi := int32(n)
				if m+1 < len(list) {
					hi = list[m+1]
				}
				charge(j+1, hi, runners[j].Predict() != taken)
			}
		}
		for _, r := range runners {
			r.Update(taken)
		}
		base.Update(pc, taken)
	}

	var running int64
	for k := 0; k < n; k++ {
		running += diff[k]
		res[k] = Result{Total: events, Misses: allMisses + int(running)}
	}
	return res
}
