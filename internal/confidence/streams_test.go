package confidence

import (
	"fmt"
	"reflect"
	"testing"

	"fsmpredict/internal/core"
	"fsmpredict/internal/counters"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vpred"
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
// simulation exactly: the segments cover every load, and each segment
// holds the correctness bits of one estimator lifetime, cut from a
// fresh correctness trace by a test-side stride simulation. The same
// simulation pins the invariant the stream layer's arithmetic rests
// on: a segment's first load allocates its entry (no prediction) and
// every later load hits it.
func TestStreamsMatchTrace(t *testing.T) {
	loads, cs := streamFixtures(t)
	if cs.Loads() != len(loads) {
		t.Fatalf("streams cover %d loads, trace has %d", cs.Loads(), len(loads))
	}
	want := CorrectnessTrace(loads, streamTestLog2)

	// A segment opens when an entry is first touched or reallocated to
	// a different load PC; it lists its loads and whether each made a
	// prediction.
	type load struct {
		i     int
		valid bool
	}
	sp := vpred.New(streamTestLog2)
	open := make([]int, sp.Size())
	for i := range open {
		open[i] = -1
	}
	owners := make([]uint64, sp.Size())
	var segs [][]load
	for i, ld := range loads {
		acc := sp.Access(ld.PC, ld.Value)
		if open[acc.Entry] < 0 || owners[acc.Entry] != ld.PC {
			open[acc.Entry], owners[acc.Entry] = len(segs), ld.PC
			segs = append(segs, nil)
		}
		s := open[acc.Entry]
		segs[s] = append(segs[s], load{i, acc.Valid})
	}

	if len(cs.Segments) != len(segs) {
		t.Fatalf("%d segments, simulation opens %d", len(cs.Segments), len(segs))
	}
	var segLoads int
	for s, seg := range cs.Segments {
		if seg.Correct.Len() != len(segs[s]) {
			t.Fatalf("segment %d: %d correct bits, simulation has %d loads", s, seg.Correct.Len(), len(segs[s]))
		}
		for j, ld := range segs[s] {
			if ld.valid != (j > 0) {
				t.Fatalf("segment %d load %d (trace load %d) predicted = %v, want %v", s, j, ld.i, ld.valid, j > 0)
			}
			if seg.Correct.At(j) != want[ld.i] {
				t.Fatalf("segment %d correctness bit %d (load %d) = %v, want %v", s, j, ld.i, seg.Correct.At(j), want[ld.i])
			}
		}
		segLoads += seg.Correct.Len()
	}
	if segLoads != len(loads) {
		t.Fatalf("segments cover %d loads, trace has %d", segLoads, len(loads))
	}
}

// TestEvaluateStreamsMatchesEvaluate is the central differential test:
// per-entry stream replay must be tally-for-tally identical to the
// stride-predictor re-simulation, with the counter itself as the
// trace-side estimator and its machine expansion on the stream side —
// at a table so small that every load opens its own segment, at the
// fixtures' size, and at the paper's, where a few long segments hold
// the bits.
func TestEvaluateStreamsMatchesEvaluate(t *testing.T) {
	loads, _ := streamFixtures(t)
	for _, log2 := range []int{2, streamTestLog2, vpred.TableLog2Default} {
		cs := tracestore.BuildConfStreams(loads, log2)
		for _, cfg := range counters.PaperSweep()[:8] {
			cfg := cfg
			want := Evaluate(loads, log2, func() counters.Predictor { return counters.NewSUD(cfg) })
			if got := EvaluateStreamsMachine(cs, cfg.Machine()); got != want {
				t.Fatalf("log2=%d config %+v: stream result %+v, trace result %+v", log2, cfg, got, want)
			}
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

// TestEvaluateStreamsMachineMatches pins the gated byte-blocked replay
// to the load-trace oracle with the machine's own runner as estimator,
// both for counter machines and for the scalar walk a machine over the
// block-table bound takes.
func TestEvaluateStreamsMachineMatches(t *testing.T) {
	loads, cs := streamFixtures(t)
	for _, cfg := range counters.PaperSweep()[:12] {
		cfg := cfg
		m := cfg.Machine()
		want := Evaluate(loads, streamTestLog2, func() counters.Predictor { return m.NewRunner() })
		if got := EvaluateStreamsMachine(cs, m); got != want {
			t.Fatalf("config %v: blocked %+v, trace %+v", cfg, got, want)
		}
		// The counter itself and its machine expansion must agree too.
		asCounter := Evaluate(loads, streamTestLog2, func() counters.Predictor { return counters.NewSUD(cfg) })
		if asCounter != want {
			t.Fatalf("config %v: SUD %+v, machine runner %+v", cfg, asCounter, want)
		}
	}
	cfg := counters.PaperSweep()[0]
	want := Evaluate(loads, streamTestLog2, func() counters.Predictor { return counters.NewSUD(cfg) })
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
// load-trace oracle: every machine of a mixed set (counter machines,
// including a structural duplicate) must score exactly as Evaluate
// scores its runner, also when the set holds a machine over the
// block-table bound.
func TestEvaluateStreamsFleetMatches(t *testing.T) {
	loads, cs := streamFixtures(t)
	var machines []*fsm.Machine
	for _, cfg := range counters.PaperSweep()[:6] {
		machines = append(machines, cfg.Machine())
	}
	// A structural duplicate: dedup must not change its result.
	machines = append(machines, counters.PaperSweep()[0].Machine())
	want := make([]Result, len(machines))
	for i, m := range machines {
		want[i] = Evaluate(loads, streamTestLog2, func() counters.Predictor { return m.NewRunner() })
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
				t.Fatalf("%s: machine %d fleet %+v, trace %+v", label, i, got[i], want[i])
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

// TestEvaluateStreamsFleetAllocs pins the fleet replay's allocations to
// the fleet's construction: at a four-entry table nearly every one of
// gcc's 120k test loads opens its own segment, so anything allocated
// per segment would show as hundreds of thousands of allocations.
func TestEvaluateStreamsFleetAllocs(t *testing.T) {
	p, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	cs := tracestore.BuildConfStreams(p.Generate(workload.Test, 120000), 2)
	if len(cs.Segments) < 100000 {
		t.Fatalf("%d segments: the stream no longer exercises per-segment cost", len(cs.Segments))
	}
	var machines []*fsm.Machine
	for _, cfg := range counters.PaperSweep()[:6] {
		machines = append(machines, cfg.Machine())
	}
	machines = append(machines, machines[0]) // a duplicate to fan out
	const bound = 64
	avg := testing.AllocsPerRun(3, func() {
		if _, err := EvaluateStreamsFleet(cs, machines); err != nil {
			t.Fatal(err)
		}
	})
	if avg > bound {
		t.Errorf("EvaluateStreamsFleet allocates %.0f per evaluation over %d segments, want at most %d", avg, len(cs.Segments), bound)
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

// TestDesignCurvesScheduleInvariant checks the pooled, highest-order-
// first design grid against direct core.FromModel designs, with the
// models listed out of order.
func TestDesignCurvesScheduleInvariant(t *testing.T) {
	_, cs := streamFixtures(t)
	wide := PerEntryModel(cs, 6)
	var models []*markov.Model
	for _, h := range []int{2, 6, 4} {
		m, err := wide.FoldTo(h)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	thresholds := []float64{0.5, 0.8, 0.99}
	for _, workers := range []int{1, 3} {
		curves, err := DesignCurves(models, thresholds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range models {
			for j, thr := range thresholds {
				want, err := core.FromModel(m, core.Options{
					BiasThreshold: thr,
					Name:          fmt.Sprintf("conf_h%d_t%02.0f", m.Order(), thr*100),
				})
				if err != nil {
					t.Fatal(err)
				}
				if p := curves[i][j]; p.Threshold != thr || !reflect.DeepEqual(p.Machine, want.Machine) {
					t.Fatalf("workers=%d: order-%d point %v differs from a direct design", workers, m.Order(), thr)
				}
			}
		}
	}
}
