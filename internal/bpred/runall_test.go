package bpred

import (
	"fmt"
	"reflect"
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
			Name: fmt.Sprintf("branch_%#x", r.PC),
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
// batch is built, a full pass over the trace — typed gshare and LGC
// sweeps plus interface steppers — allocates nothing.
func TestRunAllInnerLoopAllocs(t *testing.T) {
	train := benchEvents(t, "gsm", workload.Train, 8_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 3, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	packed := tracestore.Pack(benchEvents(t, "gsm", workload.Test, 8_000))
	k := &sweepBatch{
		gshares: []*Gshare{NewGshare(10), NewGshare(14)},
		lgcs:    []*LGC{NewLGC(8), NewLGC(12)},
		steppers: []traceStepper{
			genericStepper{NewXScale()},
			genericStepper{NewCustom(entries)},
		},
		pcIndex: pcIndexOf(packed),
	}
	res := make([]Result, len(k.gshares)+len(k.lgcs)+len(k.steppers))
	if allocs := testing.AllocsPerRun(3, func() {
		for i := range res {
			res[i] = Result{}
		}
		runAllInto(k, packed, res)
	}); allocs != 0 {
		t.Fatalf("inner loop allocates %.1f objects per pass, want 0", allocs)
	}
}

// TestRunAllTypedSweepState checks the typed table sweeps against Run
// per instance, on results and on the state each instance is left in.
// The batch mixes gshare and LGC instances pre-warmed on different
// traces (so their history registers disagree with each other and with
// the fresh ones) and interleaves them with XScale, PPM and Custom.
func TestRunAllTypedSweepState(t *testing.T) {
	warmA := benchEvents(t, "gsm", workload.Train, 6_000)
	warmB := benchEvents(t, "vortex", workload.Train, 6_000)
	test := benchEvents(t, "gsm", workload.Test, 12_000)
	packed := tracestore.Pack(test)
	entries, err := TrainCustom(warmA, TrainOptions{MaxEntries: 3, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	gshare := func(bits int, warm []trace.BranchEvent) func() Predictor {
		return func() Predictor { g := NewGshare(bits); Run(g, warm); return g }
	}
	lgc := func(bits int, warm []trace.BranchEvent) func() Predictor {
		return func() Predictor { l := NewLGC(bits); Run(l, warm); return l }
	}
	makers := []func() Predictor{
		gshare(8, warmA),
		func() Predictor { return NewXScale() },
		lgc(6, warmB),
		gshare(12, warmB),
		func() Predictor { return NewPPM(6) },
		gshare(8, nil),
		lgc(10, warmA),
		func() Predictor { return NewCustom(entries) },
		lgc(6, nil),
		gshare(16, warmA),
	}
	batch := make([]Predictor, len(makers))
	oracle := make([]Predictor, len(makers))
	for i, mk := range makers {
		batch[i], oracle[i] = mk(), mk()
	}
	for pass := 0; pass < 2; pass++ {
		got := RunAll(batch, packed)
		for i, o := range oracle {
			if want := Run(o, test); got[i] != want {
				t.Errorf("pass %d %s: RunAll = %+v, Run = %+v", pass, o.Name(), got[i], want)
			}
		}
	}
	// Post-run state: the same predictions along a fixed probe, and for
	// the typed sweeps, the same registers and tables.
	probe := benchEvents(t, "g721", workload.Test, 2_000)
	for i, o := range oracle {
		switch o.(type) {
		case *Gshare, *LGC:
			if !reflect.DeepEqual(batch[i], o) {
				t.Errorf("%s: state after RunAll differs from Run", o.Name())
			}
		}
		for e, ev := range probe {
			if batch[i].Predict(ev.PC) != o.Predict(ev.PC) {
				t.Errorf("%s: probe event %d predicts differently", o.Name(), e)
				break
			}
			batch[i].Update(ev.PC, ev.Taken)
			o.Update(ev.PC, ev.Taken)
		}
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

// TestRunAllMatchesRunKernelOff covers the scalar walks: custom entries
// whose machines exceed the block-table state bound get no block table,
// so RunAll and RunCustomPrefixes replay them bit by bit. Both must
// still match Run, and the padding (unreachable states) must not change
// a single prediction.
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
		oversized[i] = &CustomEntry{Tag: e.Tag, Machine: padPastBound(t, e.Machine)}
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
			t.Errorf("prefix %d: sweep %+v, Run %+v", k, prefixes[k-1], want)
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
// reproduce, for every prefix length, that prefix's Custom instance run
// over the events. Running it under -race also stress-tests the shared
// block-table cache, which all workers hit concurrently.
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
	want := make([]Result, len(entries))
	for k := range want {
		want[k] = Run(NewCustom(entries[:k+1]), test)
	}
	for _, workers := range []int{0, 1, 2, 7} {
		got := RunCustomPrefixesParallel(entries, packed, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d prefix %d: sweep %+v, Run %+v", workers, k+1, got[k], want[k])
			}
		}
	}
}

// padPastBound returns a copy of m grown past the block-table state
// bound with unreachable self-looping states, so it simulates exactly
// like m but takes the scalar walks.
func padPastBound(t *testing.T, m *fsm.Machine) *fsm.Machine {
	t.Helper()
	p := m.Clone()
	for s := p.NumStates(); s <= 256; s++ {
		p.Output = append(p.Output, false)
		p.Next = append(p.Next, [2]int{s, s})
	}
	if fsm.BlockTableFor(p) != nil {
		t.Fatalf("%d-state machine got a block table", p.NumStates())
	}
	return p
}

// mixedStateBoundSet trains a vortex entry set and mixes it across the
// block-table bound: every other entry is padded past the bound, entry
// 0's branch is shadowed by a padded machine, and an absent tag rides
// on a padded machine. It returns the train and test events with the
// mixed set.
func mixedStateBoundSet(t *testing.T) (train, test []trace.BranchEvent, mixed []*CustomEntry) {
	t.Helper()
	train = benchEvents(t, "vortex", workload.Train, 20_000)
	test = benchEvents(t, "vortex", workload.Test, 20_000)
	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 5, Order: 5, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("need at least four entries, got %d", len(entries))
	}
	mixed = make([]*CustomEntry, 0, len(entries)+2)
	for i, e := range entries {
		if i%2 == 1 {
			e = &CustomEntry{Tag: e.Tag, Machine: padPastBound(t, e.Machine)}
		}
		mixed = append(mixed, e)
	}
	mixed = append(mixed,
		&CustomEntry{Tag: entries[0].Tag, Machine: padPastBound(t, entries[2].Machine)},
		&CustomEntry{Tag: 0xdead0000, Machine: padPastBound(t, entries[1].Machine)},
	)
	return train, test, mixed
}

// TestRunAllMixedStateBound checks RunAll on a Custom whose entries mix
// table-backed machines with machines over the block-table bound,
// under both update policies and over two passes: each instance must
// match Run on results and on the state it is left in, runner by
// runner.
func TestRunAllMixedStateBound(t *testing.T) {
	train, test, mixed := mixedStateBoundSet(t)
	for _, matchedOnly := range []bool{false, true} {
		batch, oracle := NewCustom(mixed), NewCustom(mixed)
		batch.UpdateMatchedOnly, oracle.UpdateMatchedOnly = matchedOnly, matchedOnly
		for pass, events := range [][]trace.BranchEvent{test, train} {
			got := RunAll([]Predictor{batch}, tracestore.Pack(events))
			if want := Run(oracle, events); got[0] != want {
				t.Fatalf("matchedOnly=%v pass %d: RunAll %+v, Run %+v", matchedOnly, pass, got[0], want)
			}
			for i := range mixed {
				if g, w := batch.runners[i].State(), oracle.runners[i].State(); g != w {
					t.Fatalf("matchedOnly=%v pass %d entry %d: runner state %d, Run leaves %d", matchedOnly, pass, i, g, w)
				}
			}
			if !reflect.DeepEqual(batch.base, oracle.base) {
				t.Fatalf("matchedOnly=%v pass %d: base state after RunAll differs from Run", matchedOnly, pass)
			}
		}
	}
}

// TestRunCustomPrefixesMixedStateBound checks the prefix sweep's
// per-entry fallback: an entry set mixing table-backed machines with
// machines over the block-table bound — including a shadowed tag and a
// tag no branch has — must reproduce, for every prefix length, that
// prefix's Custom instance run over the events, on both inputs. It also
// pins that the paper grid takes this path: the order-9 designs for gs
// and vortex at the paper's trace length include a machine over 256
// states.
func TestRunCustomPrefixesMixedStateBound(t *testing.T) {
	train, test, mixed := mixedStateBoundSet(t)
	for name, events := range map[string][]trace.BranchEvent{"train": train, "test": test} {
		packed := tracestore.Pack(events)
		for _, workers := range []int{1, 3} {
			got := RunCustomPrefixesParallel(mixed, packed, workers)
			if len(got) != len(mixed) {
				t.Fatalf("%s workers=%d: %d results, want %d", name, workers, len(got), len(mixed))
			}
			for k := 1; k <= len(mixed); k++ {
				if want := Run(NewCustom(mixed[:k]), events); got[k-1] != want {
					t.Errorf("%s workers=%d prefix %d: sweep %+v, Run %+v", name, workers, k, got[k-1], want)
				}
			}
		}
	}

	// The paper grid: experiments.DefaultConfig's trace length and the
	// §7.3 training options.
	for _, program := range []string{"gs", "vortex"} {
		packed := tracestore.Pack(benchEvents(t, program, workload.Train, 250_000))
		entries, err := TrainCustomPacked(packed, DefaultTrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		largest := 0
		for _, e := range entries {
			largest = max(largest, e.Machine.NumStates())
		}
		if largest <= 256 {
			t.Errorf("%s: largest order-9 machine has %d states; the paper grid no longer exercises the scalar fallback", program, largest)
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

// resultsSink keeps the benchmarked calls' results live.
var resultsSink []Result

// BenchmarkRunAllKernelFigure5Tables measures the Figure 5 table sweep
// batch: the XScale baseline plus gshare and LGC at every table size of
// experiments.GshareBits and experiments.LGCBits, one RunAll pass.
func BenchmarkRunAllKernelFigure5Tables(b *testing.B) {
	const n = 100_000
	packed := tracestore.Pack(benchEvents(b, "gsm", workload.Test, n))
	preds := []Predictor{NewXScale()}
	for bits := 7; bits <= 16; bits++ {
		preds = append(preds, NewGshare(bits))
	}
	for bits := 5; bits <= 14; bits++ {
		preds = append(preds, NewLGC(bits))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resultsSink = RunAll(preds, packed)
	}
	b.ReportMetric(float64(n*len(preds))*float64(b.N)/b.Elapsed().Seconds(), "predictor-events/s")
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
