package bpred

import (
	"fmt"
	"testing"

	"fsmpredict/internal/core"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// benchEvents generates a deterministic benchmark trace for the
// differential tests.
func benchEvents(t testing.TB, program string, v workload.Variant, n int) []trace.BranchEvent {
	t.Helper()
	p, err := workload.ByName(program)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generate(v, n)
}

// predictorMatrix returns factories covering every architecture,
// including a trained customized one under both update policies.
func predictorMatrix(t testing.TB, train []trace.BranchEvent) map[string]func() Predictor {
	t.Helper()
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 4, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no custom entries trained")
	}
	return map[string]func() Predictor{
		"xscale":    func() Predictor { return NewXScale() },
		"gshare-8":  func() Predictor { return NewGshare(8) },
		"gshare-14": func() Predictor { return NewGshare(14) },
		"lgc-10":    func() Predictor { return NewLGC(10) },
		"ppm-6":     func() Predictor { return NewPPM(6) },
		"custom":    func() Predictor { return NewCustom(entries) },
		"custom-matched-only": func() Predictor {
			c := NewCustom(entries)
			c.UpdateMatchedOnly = true
			return c
		},
	}
}

// TestRunAllMatchesRun is the kernel's differential test: one batched
// pass over the packed trace must reproduce Run's per-predictor results
// exactly, for every architecture.
func TestRunAllMatchesRun(t *testing.T) {
	train := benchEvents(t, "gsm", workload.Train, 20_000)
	test := benchEvents(t, "gsm", workload.Test, 20_000)
	packed := tracestore.Pack(test)
	factories := predictorMatrix(t, train)

	var names []string
	var batch []Predictor
	for name, mk := range factories {
		names = append(names, name)
		batch = append(batch, mk())
	}
	got := RunAll(batch, packed)
	for i, name := range names {
		want := Run(factories[name](), test)
		if got[i] != want {
			t.Errorf("%s: RunAll = %+v, Run = %+v", name, got[i], want)
		}
	}
}

// TestRunAllSingletonBatches checks predictors do not interact: a batch
// of size one equals membership in a larger batch.
func TestRunAllSingletonBatches(t *testing.T) {
	test := benchEvents(t, "vortex", workload.Test, 10_000)
	packed := tracestore.Pack(test)
	batch := []Predictor{NewXScale(), NewGshare(10), NewLGC(8)}
	all := RunAll(batch, packed)
	singles := []Predictor{NewXScale(), NewGshare(10), NewLGC(8)}
	for i, p := range singles {
		if r := RunAll([]Predictor{p}, packed); r[0] != all[i] {
			t.Errorf("predictor %d: singleton %+v, batched %+v", i, r[0], all[i])
		}
	}
	if r := RunAll(nil, packed); len(r) != 0 {
		t.Errorf("empty batch returned %d results", len(r))
	}
}

// TestRunAllCustomUnknownBranches runs a Custom whose tags do not all
// occur in the simulated trace (the custom-diff scenario where the test
// input exercises different branches).
func TestRunAllCustomUnknownBranches(t *testing.T) {
	train := benchEvents(t, "ijpeg", workload.Train, 15_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 3, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Add an entry for a PC that never occurs.
	phantom := &CustomEntry{Tag: 0xdead0000, Machine: entries[0].Machine}
	entries = append(entries, phantom)
	test := benchEvents(t, "ijpeg", workload.Test, 15_000)
	packed := tracestore.Pack(test)
	got := RunAll([]Predictor{NewCustom(entries)}, packed)
	want := Run(NewCustom(entries), test)
	if got[0] != want {
		t.Fatalf("RunAll = %+v, Run = %+v", got[0], want)
	}
}

// TestRankByMissesPackedMatches checks the dense-tally ranking against
// the map-based event-slice implementation.
func TestRankByMissesPackedMatches(t *testing.T) {
	for _, prog := range []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"} {
		events := benchEvents(t, prog, workload.Train, 25_000)
		want := RankByMisses(events)
		got := RankByMissesPacked(tracestore.Pack(events))
		if len(got) != len(want) {
			t.Fatalf("%s: %d ranked, want %d", prog, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: rank %d: %+v, want %+v", prog, i, got[i], want[i])
			}
		}
	}
}

// trainCustomOracle replicates the pre-packed TrainCustom pipeline —
// map-based ranking, trace.GlobalMarkov over the full event slice — as
// the differential oracle for the substream-driven path.
func trainCustomOracle(t *testing.T, events []trace.BranchEvent, opt TrainOptions) []*CustomEntry {
	t.Helper()
	ranked := RankByMisses(events)
	targets := map[uint64]bool{}
	var chosen []Ranked
	for _, r := range ranked {
		if len(chosen) >= opt.MaxEntries {
			break
		}
		if r.Execs < opt.MinExecutions {
			continue
		}
		targets[r.PC] = true
		chosen = append(chosen, r)
	}
	models := trace.GlobalMarkov(events, targets, opt.Order)
	out := make([]*CustomEntry, 0, len(chosen))
	for _, r := range chosen {
		design, err := core.FromModel(models[r.PC], core.Options{
			DontCareBudget: opt.DontCareBudget,
			Name:           fmt.Sprintf("branch_%#x", r.PC),
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &CustomEntry{Tag: r.PC, Machine: design.Machine})
	}
	return out
}

// TestTrainCustomPackedMatchesOracle asserts the packed training path
// produces machine-for-machine identical custom entries.
func TestTrainCustomPackedMatchesOracle(t *testing.T) {
	for _, prog := range []string{"gsm", "vortex", "compress"} {
		events := benchEvents(t, prog, workload.Train, 30_000)
		opt := TrainOptions{MaxEntries: 6, Order: 9, MinExecutions: 64}
		got, err := TrainCustomPacked(tracestore.Pack(events), opt)
		if err != nil {
			t.Fatal(err)
		}
		want := trainCustomOracle(t, events, opt)
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d", prog, len(got), len(want))
		}
		for i := range want {
			if got[i].Tag != want[i].Tag {
				t.Fatalf("%s entry %d: tag %#x, want %#x", prog, i, got[i].Tag, want[i].Tag)
			}
			if !fsm.Equal(got[i].Machine, want[i].Machine) {
				t.Fatalf("%s entry %d (%#x): machines differ:\n%s\nvs\n%s",
					prog, i, got[i].Tag, got[i].Machine, want[i].Machine)
			}
		}
	}
}

// TestRunAllInnerLoopAllocs guards the kernel's steady state: once the
// steppers are built, a full pass over the trace allocates nothing.
func TestRunAllInnerLoopAllocs(t *testing.T) {
	train := benchEvents(t, "gsm", workload.Train, 8_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 3, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	packed := tracestore.Pack(benchEvents(t, "gsm", workload.Test, 8_000))
	preds := []Predictor{NewXScale(), NewGshare(10), NewLGC(8), NewCustom(entries)}
	steppers := make([]traceStepper, len(preds))
	for j, p := range preds {
		if c, ok := p.(*Custom); ok {
			steppers[j] = newCustomStepper(c, packed)
		} else {
			steppers[j] = genericStepper{p}
		}
	}
	res := make([]Result, len(preds))
	if allocs := testing.AllocsPerRun(3, func() {
		for i := range res {
			res[i] = Result{}
		}
		runAllInto(steppers, packed, res)
	}); allocs != 0 {
		t.Fatalf("inner loop allocates %.1f objects per pass, want 0", allocs)
	}
}

// TestRunCustomPrefixesMatchesRun is the prefix-sweep kernel's
// differential test: one pass must reproduce, for every prefix length,
// the result of running that prefix's Custom instance over the events —
// including duplicate tags, where a longer prefix shadows an earlier
// entry for the same branch.
func TestRunCustomPrefixesMatchesRun(t *testing.T) {
	train := benchEvents(t, "gsm", workload.Train, 20_000)
	test := benchEvents(t, "gsm", workload.Test, 20_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 5, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatal("need at least two entries")
	}
	// Shadow the first entry's branch with a different machine, and add a
	// tag no branch has.
	entries = append(entries,
		&CustomEntry{Tag: entries[0].Tag, Machine: entries[1].Machine},
		&CustomEntry{Tag: 0xdead0000, Machine: entries[0].Machine},
	)
	packed := tracestore.Pack(test)
	got := RunCustomPrefixes(entries, packed)
	if len(got) != len(entries) {
		t.Fatalf("%d results, want %d", len(got), len(entries))
	}
	for k := 1; k <= len(entries); k++ {
		want := Run(NewCustom(entries[:k]), test)
		if got[k-1] != want {
			t.Errorf("prefix %d: single-pass %+v, per-prefix %+v", k, got[k-1], want)
		}
	}
	if r := RunCustomPrefixes(nil, packed); len(r) != 0 {
		t.Errorf("empty entry set returned %d results", len(r))
	}
}

// TestRunAllMatchesRunKernelOff covers the scalar stepper fallback:
// custom entries whose machines exceed the block-table state bound get
// no block table, so RunAll and RunCustomPrefixes step them bit by bit.
// Both must still match Run, and the padding (unreachable states) must
// not change a single prediction.
func TestRunAllMatchesRunKernelOff(t *testing.T) {
	train := benchEvents(t, "gsm", workload.Train, 10_000)
	test := benchEvents(t, "gsm", workload.Test, 10_000)
	packed := tracestore.Pack(test)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 4, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	oversized := make([]*CustomEntry, len(entries))
	for i, e := range entries {
		m := e.Machine.Clone()
		for s := m.NumStates(); s <= 256; s++ {
			m.Output = append(m.Output, false)
			m.Next = append(m.Next, [2]int{s, s})
		}
		if fsm.BlockTableFor(m) != nil {
			t.Fatalf("entry %d: %d-state machine got a block table", i, m.NumStates())
		}
		oversized[i] = &CustomEntry{Tag: e.Tag, Machine: m}
	}
	for _, matchedOnly := range []bool{false, true} {
		c := NewCustom(oversized)
		c.UpdateMatchedOnly = matchedOnly
		ref := NewCustom(entries)
		ref.UpdateMatchedOnly = matchedOnly
		got := RunAll([]Predictor{c}, packed)
		if want := Run(ref, test); got[0] != want {
			t.Errorf("matchedOnly=%v: RunAll = %+v, Run = %+v", matchedOnly, got[0], want)
		}
	}
	prefixes := RunCustomPrefixes(oversized, packed)
	for k := 1; k <= len(entries); k++ {
		if want := Run(NewCustom(entries[:k]), test); prefixes[k-1] != want {
			t.Errorf("prefix %d: scalar sweep %+v, Run %+v", k, prefixes[k-1], want)
		}
	}
}

// TestRunAllCustomStateful checks the blocked custom path preserves the
// scalar path's cross-call statefulness: a Custom instance keeps its
// runner and base state between RunAll calls, so a second pass over the
// same trace must match the scalar stepper's second pass exactly, under
// both update policies.
func TestRunAllCustomStateful(t *testing.T) {
	train := benchEvents(t, "gsm", workload.Train, 12_000)
	test := benchEvents(t, "gsm", workload.Test, 12_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 4, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	packed := tracestore.Pack(test)
	for _, matchedOnly := range []bool{false, true} {
		blocked, scalar := NewCustom(entries), NewCustom(entries)
		blocked.UpdateMatchedOnly = matchedOnly
		scalar.UpdateMatchedOnly = matchedOnly
		for pass := 0; pass < 3; pass++ {
			got := RunAll([]Predictor{blocked}, packed)
			want := Run(scalar, test)
			if got[0] != want {
				t.Fatalf("matchedOnly=%v pass %d: blocked %+v, scalar %+v",
					matchedOnly, pass, got[0], want)
			}
		}
	}
}

// TestRunCustomPrefixesParallelMatches checks the sharded prefix sweep is
// deterministic and worker-count independent: every worker setting must
// reproduce the scalar single-pass sweep exactly. Running it under
// -race also stress-tests the shared block-table cache, which all
// workers hit concurrently.
func TestRunCustomPrefixesParallelMatches(t *testing.T) {
	train := benchEvents(t, "vortex", workload.Train, 20_000)
	test := benchEvents(t, "vortex", workload.Test, 20_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 6, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) >= 2 {
		entries = append(entries, &CustomEntry{Tag: entries[0].Tag, Machine: entries[1].Machine})
	}
	packed := tracestore.Pack(test)
	want := runCustomPrefixesScalar(entries, packed)
	for _, workers := range []int{0, 1, 2, 7} {
		got := RunCustomPrefixesParallel(entries, packed, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d prefix %d: blocked %+v, scalar %+v", workers, k, got[k], want[k])
			}
		}
	}
}

// benchBatch builds the standard benchmark batch: every table
// architecture plus a trained custom predictor.
func benchBatch(b *testing.B, train []trace.BranchEvent) []Predictor {
	b.Helper()
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 6, Order: 7, MinExecutions: 64})
	if err != nil {
		b.Fatal(err)
	}
	return []Predictor{
		NewXScale(), NewGshare(8), NewGshare(11), NewGshare(14),
		NewLGC(8), NewLGC(11), NewCustom(entries),
	}
}

// BenchmarkRunAllKernel measures the batched single-pass kernel over a
// packed trace — the hot path of the Figure 4/5 sweeps.
func BenchmarkRunAllKernel(b *testing.B) {
	const n = 100_000
	train := benchEvents(b, "gsm", workload.Train, n)
	packed := tracestore.Pack(benchEvents(b, "gsm", workload.Test, n))
	preds := benchBatch(b, train)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAll(preds, packed)
	}
}

// BenchmarkRunPerPredictor measures the pre-batching shape: one full
// event-slice pass per predictor, with per-event map dispatch in the
// custom predictor. Kept as the kernel's reference point.
func BenchmarkRunPerPredictor(b *testing.B) {
	const n = 100_000
	train := benchEvents(b, "gsm", workload.Train, n)
	test := benchEvents(b, "gsm", workload.Test, n)
	preds := benchBatch(b, train)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preds {
			Run(p, test)
		}
	}
}
