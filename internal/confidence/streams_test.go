package confidence

import (
	"testing"

	"fsmpredict/internal/counters"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

const (
	streamTestEvents = 20000
	streamTestLog2   = 6
)

func streamFixtures(t *testing.T) ([]trace.LoadEvent, *tracestore.ConfStreams) {
	t.Helper()
	p, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	loads := p.Generate(workload.Test, streamTestEvents)
	cs := tracestore.Shared.ConfStreams(p, workload.Test, streamTestEvents, streamTestLog2)
	return loads, cs
}

// TestStreamsMatchTrace checks the packed streams reproduce the trace
// simulation exactly: same load count, and global bits matching a fresh
// correctness trace.
func TestStreamsMatchTrace(t *testing.T) {
	loads, cs := streamFixtures(t)
	if cs.Loads() != len(loads) {
		t.Fatalf("streams cover %d loads, trace has %d", cs.Loads(), len(loads))
	}
	want := CorrectnessTrace(loads, streamTestLog2)
	for i, w := range want {
		if cs.Correct.At(i) != w {
			t.Fatalf("global correctness bit %d = %v, want %v", i, cs.Correct.At(i), w)
		}
	}
	var segLoads int
	for _, seg := range cs.Segments {
		if seg.Valid.Len() != seg.Correct.Len() {
			t.Fatal("segment valid/correct length mismatch")
		}
		for i := 0; i < seg.Correct.Len(); i++ {
			if seg.Correct.At(i) && !seg.Valid.At(i) {
				t.Fatal("correct bit set on invalid access")
			}
		}
		segLoads += seg.Valid.Len()
	}
	if segLoads != len(loads) {
		t.Fatalf("segments cover %d loads, trace has %d", segLoads, len(loads))
	}
}

// TestEvaluateStreamsMatchesEvaluate is the central differential test:
// per-entry stream replay must be tally-for-tally identical to the
// stride-predictor re-simulation for both counter estimators and FSM
// runners.
func TestEvaluateStreamsMatchesEvaluate(t *testing.T) {
	loads, cs := streamFixtures(t)
	for _, cfg := range counters.PaperSweep()[:8] {
		cfg := cfg
		mk := func() counters.Predictor { return counters.NewSUD(cfg) }
		want := Evaluate(loads, streamTestLog2, mk)
		got := EvaluateStreams(cs, mk)
		if got != want {
			t.Fatalf("config %+v: stream result %+v, trace result %+v", cfg, got, want)
		}
	}
}

// TestSUDSweepStreamsMatches covers the full counter sweep.
func TestSUDSweepStreamsMatches(t *testing.T) {
	loads, cs := streamFixtures(t)
	want := SUDSweep(loads, streamTestLog2)
	got := SUDSweepStreams(cs)
	if len(got) != len(want) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Config != want[i].Config || got[i].Result != want[i].Result {
			t.Fatalf("sweep point %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestEvaluateStreamsMachineMatches is the block-kernel differential
// test: the gated byte-blocked replay must be tally-for-tally
// identical to the generic per-bit estimator replay (the layer's
// scalar reference), both for counter machines and for the scalar walk
// a machine over the block-table bound takes.
func TestEvaluateStreamsMachineMatches(t *testing.T) {
	_, cs := streamFixtures(t)
	for _, cfg := range counters.PaperSweep()[:12] {
		cfg := cfg
		m := cfg.Machine()
		want := EvaluateStreams(cs, func() counters.Predictor { return m.NewRunner() })
		if got := EvaluateStreamsMachine(cs, m); got != want {
			t.Fatalf("config %v: blocked %+v, generic %+v", cfg, got, want)
		}
		// The counter itself and its machine expansion must agree too.
		asCounter := EvaluateStreams(cs, func() counters.Predictor { return counters.NewSUD(cfg) })
		if asCounter != want {
			t.Fatalf("config %v: SUD %+v, machine runner %+v", cfg, asCounter, want)
		}
	}
	cfg := counters.PaperSweep()[0]
	want := EvaluateStreams(cs, func() counters.Predictor { return counters.NewSUD(cfg) })
	big := oversized(cfg.Machine())
	if fsm.BlockTableFor(big) != nil {
		t.Fatalf("%d-state machine got a block table", big.NumStates())
	}
	if got := EvaluateStreamsMachine(cs, big); got != want {
		t.Fatalf("oversized machine: %+v, want %+v", got, want)
	}
}

// oversized pads a machine with unreachable self-looping states past
// the block-table bound: same predictions, but no block table.
func oversized(m *fsm.Machine) *fsm.Machine {
	m = m.Clone()
	for s := m.NumStates(); s <= 256; s++ {
		m.Output = append(m.Output, false)
		m.Next = append(m.Next, [2]int{s, s})
	}
	return m
}

// TestEvaluateStreamsFleetMatches pins the batched fleet replay to the
// generic per-bit replay: every machine of a mixed set (counter
// machines, including a structural duplicate) must score exactly as
// EvaluateStreams scores it alone, also when the set holds a machine
// over the block-table bound.
func TestEvaluateStreamsFleetMatches(t *testing.T) {
	_, cs := streamFixtures(t)
	var machines []*fsm.Machine
	for _, cfg := range counters.PaperSweep()[:6] {
		machines = append(machines, cfg.Machine())
	}
	// A structural duplicate: dedup must not change its result.
	machines = append(machines, counters.PaperSweep()[0].Machine())
	want := make([]Result, len(machines))
	for i, m := range machines {
		want[i] = EvaluateStreams(cs, func() counters.Predictor { return m.NewRunner() })
	}
	check := func(label string, machines []*fsm.Machine) {
		t.Helper()
		got, err := EvaluateStreamsFleet(cs, machines)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(got) != len(machines) {
			t.Fatalf("%s: %d results for %d machines", label, len(got), len(machines))
		}
		for i := range machines {
			if got[i] != want[i] {
				t.Fatalf("%s: machine %d fleet %+v, generic %+v", label, i, got[i], want[i])
			}
		}
	}
	check("fleet", machines)
	withBig := append([]*fsm.Machine{oversized(machines[0])}, machines[1:]...)
	check("oversized member", withBig)
}

// TestEvaluateStreamsMachineAllocs guards the blocked replay's
// steady-state loop: after the table is cached, a full evaluation
// allocates nothing.
func TestEvaluateStreamsMachineAllocs(t *testing.T) {
	_, cs := streamFixtures(t)
	m := counters.PaperSweep()[0].Machine()
	EvaluateStreamsMachine(cs, m) // warm the table cache
	if avg := testing.AllocsPerRun(10, func() { EvaluateStreamsMachine(cs, m) }); avg != 0 {
		t.Errorf("EvaluateStreamsMachine allocates %.1f per run, want 0", avg)
	}
}

// modelCountsEqual compares two models' tallies, ignoring warm-up
// records (the legacy trace-walking profilers do not keep them).
func modelCountsEqual(a, b *markov.Model) bool {
	if a.Order() != b.Order() || a.Distinct() != b.Distinct() {
		return false
	}
	equal := true
	a.Each(func(h uint32, c markov.Count) {
		if b.Count(h) != c {
			equal = false
		}
	})
	return equal
}

// TestPerEntryModelMatches checks stream profiling reproduces the
// per-entry correctness model at several orders, and that the folded
// wide model matches direct profiling at every shorter order — the
// identity Figure 2's fold-once pipeline rests on.
func TestPerEntryModelMatches(t *testing.T) {
	loads, cs := streamFixtures(t)
	const maxOrder = 10
	wide := PerEntryModel(cs, maxOrder)
	for _, order := range []int{1, 3, 6, maxOrder} {
		want := PerEntryCorrectnessModel(loads, streamTestLog2, order)
		direct := PerEntryModel(cs, order)
		if !modelCountsEqual(direct, want) {
			t.Fatalf("order %d: stream model counts differ from trace model", order)
		}
		folded, err := wide.FoldTo(order)
		if err != nil {
			t.Fatal(err)
		}
		if !modelCountsEqual(folded, want) {
			t.Fatalf("order %d: folded order-%d model differs from direct profiling", order, maxOrder)
		}
	}
}

// TestFSMCurveStreamsMatches checks the FSM curve — the expensive inner
// loop of Figure 2 — point for point.
func TestFSMCurveStreamsMatches(t *testing.T) {
	loads, cs := streamFixtures(t)
	model := PerEntryCorrectnessModel(loads, streamTestLog2, 4)
	thresholds := []float64{0.5, 0.8, 0.99}
	want, err := FSMCurve(model, thresholds, loads, streamTestLog2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FSMCurveStreams(model, thresholds, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("curve lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Threshold != want[i].Threshold || got[i].Result != want[i].Result {
			t.Fatalf("curve point %d differs: %+v vs %+v", i, got[i].Result, want[i].Result)
		}
		if got[i].Machine.NumStates() != want[i].Machine.NumStates() {
			t.Fatalf("curve point %d machine sizes differ", i)
		}
	}
}
