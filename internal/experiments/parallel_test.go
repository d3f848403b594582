package experiments

// Differential tests for the fan-out parallelism: every experiment must
// produce byte-identical results whatever the worker count, because the
// figures are golden outputs and the paper's numbers must not depend on
// GOMAXPROCS. The trace store is cleared between worker counts, so the
// second run designs afresh instead of hitting the per-trace design memo.

import (
	"reflect"
	"testing"

	"fsmpredict/internal/bpred"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

func TestFigure2ParallelDeterministic(t *testing.T) {
	seq := testConfig()
	seq.Workers = 1
	par := testConfig()
	par.Workers = 4

	a, err := Figure2("gcc", seq)
	if err != nil {
		t.Fatal(err)
	}
	tracestore.Shared.Clear()
	b, err := Figure2("gcc", par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Figure2 results differ between workers=1 and workers=4")
	}
}

func TestFigure4ParallelDeterministic(t *testing.T) {
	seq := testConfig()
	seq.Workers = 1
	seq.BranchEvents = 40_000
	par := seq
	par.Workers = 4

	a, err := Figure4(seq, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tracestore.Shared.Clear()
	b, err := Figure4(par, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Figure4 results differ between workers=1 and workers=4")
	}
}

func TestFigure5ParallelDeterministic(t *testing.T) {
	seq := testConfig()
	seq.Workers = 1
	par := testConfig()
	par.Workers = 4
	area := func(states int) float64 { return 20 + 2.2*float64(states) }

	a, err := Figure5("vortex", seq, area)
	if err != nil {
		t.Fatal(err)
	}
	tracestore.Shared.Clear()
	b, err := Figure5("vortex", par, area)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Figure5 results differ between workers=1 and workers=4")
	}
}

// TestFigure5WarmEqualsCold checks the design memo is invisible in the
// figures: Figure 5 run after Figure 4 — which trained the same entry
// sets, so Figure 5 takes them from the memo — must equal Figure 5 run
// on a cleared store.
func TestFigure5WarmEqualsCold(t *testing.T) {
	cfg := testConfig()
	area := func(states int) float64 { return 20 + 2.2*float64(states) }

	tracestore.Shared.Clear()
	if _, err := Figure4(cfg, 0.5); err != nil {
		t.Fatal(err)
	}
	prog, err := workload.ByName("gs")
	if err != nil {
		t.Fatal(err)
	}
	gs := tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
	memo, err := bpred.TrainCustomPacked(gs,
		bpred.TrainOptions{MaxEntries: cfg.MaxCustom, Order: cfg.Order, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Figure5("gs", cfg, area)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Entries) != len(memo) || warm.Entries[0] != memo[0] {
		t.Fatal("Figure 5 after Figure 4 did not take its entries from the design memo")
	}

	tracestore.Shared.Clear()
	cold, err := Figure5("gs", cfg, area)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Entries[0] == warm.Entries[0] {
		t.Fatal("Figure 5 on a cleared store reused the warm run's entries")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("Figure 5 differs between a memo hit and a cold run")
	}
}

// TestFigure2WarmEqualsCold checks the profile memo keys on the history
// length: a panel whose maximum history differs from an earlier panel's
// on the same training streams must equal the panel run on a cleared
// store.
func TestFigure2WarmEqualsCold(t *testing.T) {
	first := testConfig()
	first.Histories = []int{2, 6}
	wider := testConfig()
	wider.Histories = []int{4, 8}

	tracestore.Shared.Clear()
	if _, err := Figure2("gcc", first); err != nil {
		t.Fatal(err)
	}
	warm, err := Figure2("go", wider)
	if err != nil {
		t.Fatal(err)
	}
	tracestore.Shared.Clear()
	cold, err := Figure2("go", wider)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("Figure 2 differs between a warm store and a cold run")
	}
}
