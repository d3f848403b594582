package bpred

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"fsmpredict/internal/fsm"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

func alternating(pc uint64, n int) []trace.BranchEvent {
	events := make([]trace.BranchEvent, n)
	for i := range events {
		events[i] = trace.BranchEvent{PC: pc, Taken: i%2 == 0}
	}
	return events
}

func steady(pc uint64, taken bool, n int) []trace.BranchEvent {
	events := make([]trace.BranchEvent, n)
	for i := range events {
		events[i] = trace.BranchEvent{PC: pc, Taken: taken}
	}
	return events
}

func TestXScaleBiasedBranch(t *testing.T) {
	x := NewXScale()
	res := Run(x, steady(0x100, true, 1000))
	// Misses only during warm-up (miss, allocate, then correct).
	if res.Misses > 2 {
		t.Errorf("always-taken misses = %d, want <= 2", res.Misses)
	}
	// Not-taken branch: BTB never allocates, predicted not-taken, 0 misses.
	x2 := NewXScale()
	res = Run(x2, steady(0x200, false, 1000))
	if res.Misses != 0 {
		t.Errorf("never-taken misses = %d, want 0", res.Misses)
	}
}

func TestXScaleBTBMissPredictsNotTaken(t *testing.T) {
	x := NewXScale()
	if x.Predict(0x1234) {
		t.Error("cold BTB should predict not-taken")
	}
	// Aliasing: two PCs mapping to the same set evict each other.
	a := uint64(0x1000)
	b := a + btbEntries*4
	x.Update(a, true)
	x.Update(b, true) // evicts a
	if x.Predict(a) {
		t.Error("evicted entry should predict not-taken")
	}
}

func TestGshareLearnsGlobalCorrelation(t *testing.T) {
	// Branch B repeats the outcome of branch A (lag 1): gshare with
	// enough history learns it; XScale cannot.
	rng := rand.New(rand.NewSource(5))
	var events []trace.BranchEvent
	for i := 0; i < 20000; i++ {
		a := rng.Intn(2) == 0
		events = append(events, trace.BranchEvent{PC: 0x100, Taken: a})
		events = append(events, trace.BranchEvent{PC: 0x200, Taken: a})
	}
	g := Run(NewGshare(12), events)
	x := Run(NewXScale(), events)
	if g.MissRate() > 0.30 {
		t.Errorf("gshare miss = %v, want < 0.30", g.MissRate())
	}
	if x.MissRate() < 0.45 {
		t.Errorf("xscale miss = %v, expected ~0.5 on random correlation", x.MissRate())
	}
}

func TestLGCLearnsLocalPattern(t *testing.T) {
	// A short repeating local pattern (period 6) that a 2-bit counter
	// cannot track: LGC's local component captures it.
	pattern := []bool{true, true, true, true, false, false}
	var events []trace.BranchEvent
	for i := 0; i < 30000; i++ {
		events = append(events, trace.BranchEvent{PC: 0x300, Taken: pattern[i%len(pattern)]})
	}
	l := Run(NewLGC(10), events)
	x := Run(NewXScale(), events)
	if l.MissRate() > 0.05 {
		t.Errorf("lgc miss = %v, want < 0.05", l.MissRate())
	}
	if x.MissRate() < 0.25 {
		t.Errorf("xscale miss = %v, expected >= 0.25 on period-6 pattern", x.MissRate())
	}
}

func TestPredictorsDeterministic(t *testing.T) {
	prog, _ := workload.ByName("gs")
	events := prog.Generate(workload.Train, 20000)
	for _, mk := range []func() Predictor{
		func() Predictor { return NewXScale() },
		func() Predictor { return NewGshare(10) },
		func() Predictor { return NewLGC(8) },
	} {
		a := Run(mk(), events)
		b := Run(mk(), events)
		if a != b {
			t.Errorf("%s not deterministic: %+v vs %+v", mk().Name(), a, b)
		}
	}
}

func TestAreasOrdered(t *testing.T) {
	if NewGshare(10).Area() <= NewXScale().Area() {
		t.Error("gshare must cost more than the bare BTB")
	}
	if NewGshare(14).Area() <= NewGshare(10).Area() {
		t.Error("bigger gshare must cost more")
	}
	if NewLGC(12).Area() <= NewLGC(8).Area() {
		t.Error("bigger LGC must cost more")
	}
}

func TestGshareValidation(t *testing.T) {
	for _, bits := range []int{0, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGshare(%d): expected panic", bits)
				}
			}()
			NewGshare(bits)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewLGC(1): expected panic")
			}
		}()
		NewLGC(1)
	}()
}

func TestCustomUsesFSMOnTagMatch(t *testing.T) {
	// Machine that always predicts taken, assigned to branch 0x500.
	m := &fsm.Machine{Output: []bool{true}, Next: [][2]int{{0, 0}}, Start: 0}
	c := NewCustom([]*CustomEntry{{Tag: 0x500, Machine: m}})
	if !c.Predict(0x500) {
		t.Error("tag match should use the FSM")
	}
	if c.Predict(0x504) {
		t.Error("non-matching branch should fall back to cold XScale (not-taken)")
	}
}

func TestCustomUpdateAllPolicy(t *testing.T) {
	// The FSM predicts "repeat the last outcome of ANY branch" (lag-1
	// machine). Under update-all, an outcome on a different PC must move
	// the machine.
	lag1 := &fsm.Machine{
		Output: []bool{false, true},
		Next:   [][2]int{{0, 1}, {0, 1}},
		Start:  0,
	}
	c := NewCustom([]*CustomEntry{{Tag: 0x500, Machine: lag1}})
	c.Update(0x999, true) // different branch; FSM must still advance
	if !c.Predict(0x500) {
		t.Error("update-all policy: FSM should have advanced on foreign branch")
	}
	c.Update(0x777, false)
	if c.Predict(0x500) {
		t.Error("FSM should track the most recent global outcome")
	}
}

func TestCustomArea(t *testing.T) {
	m := &fsm.Machine{Output: []bool{true, false}, Next: [][2]int{{0, 1}, {0, 1}}, Start: 0}
	c := NewCustom([]*CustomEntry{{Tag: 1, Machine: m}, {Tag: 2, Machine: m}})
	base := NewXScale().Area()
	if c.Area() <= base {
		t.Error("custom entries must add area even without an FSM model")
	}
	c.FSMArea = func(states int) float64 { return float64(states) * 100 }
	withModel := c.Area()
	if withModel <= base+2*(btbTagBits*CAMBit+btbTargetBits*SRAMBit) {
		t.Error("FSM area model not applied")
	}
}

func TestRankByMisses(t *testing.T) {
	var events []trace.BranchEvent
	events = append(events, alternating(0xa0, 1000)...)  // ~50% miss
	events = append(events, steady(0xb0, true, 1000)...) // ~0 miss
	ranked := RankByMisses(events)
	if len(ranked) != 2 || ranked[0].PC != 0xa0 {
		t.Fatalf("ranking = %+v, want 0xa0 first", ranked)
	}
	if ranked[0].Misses < 400 {
		t.Errorf("alternating branch misses = %d, want ~500", ranked[0].Misses)
	}
	if ranked[1].Misses > 2 {
		t.Errorf("steady branch misses = %d, want <= 2", ranked[1].Misses)
	}
}

func TestTrainCustomImprovesCorrelatedBenchmark(t *testing.T) {
	prog, _ := workload.ByName("vortex")
	train := prog.Generate(workload.Train, 120000)
	test := prog.Generate(workload.Test, 120000)

	entries, err := TrainCustom(train, TrainOptions{MaxEntries: 6, Order: 9, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no custom entries built")
	}

	base := Run(NewXScale(), test)
	custom := Run(NewCustom(entries), test)
	if custom.MissRate() >= base.MissRate() {
		t.Fatalf("custom (%.3f) should beat xscale (%.3f) on vortex",
			custom.MissRate(), base.MissRate())
	}
	// The paper's vortex result is a dramatic improvement; require at
	// least a 40%% relative reduction here.
	if custom.MissRate() > 0.6*base.MissRate() {
		t.Errorf("custom = %.3f, xscale = %.3f; expected a large reduction",
			custom.MissRate(), base.MissRate())
	}
}

func TestTrainCustomValidation(t *testing.T) {
	packed := tracestore.Pack(alternating(0xb0, 200))
	cases := []struct {
		name string
		opt  TrainOptions
	}{
		{"zero MaxEntries", TrainOptions{MaxEntries: 0, Order: 9}},
		{"zero Order", TrainOptions{MaxEntries: 1, Order: 0}},
	}
	for _, c := range cases {
		if _, err := TrainCustom(nil, c.opt); err == nil {
			t.Errorf("%s: TrainCustom accepted %+v", c.name, c.opt)
		}
		if _, err := TrainCustomPacked(packed, c.opt); err == nil {
			t.Errorf("%s: TrainCustomPacked accepted %+v", c.name, c.opt)
		}
	}
	if _, err := TrainCustomPacked(packed, TrainOptions{MaxEntries: 1, Order: 3}); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// TestTrainCustomPackedMemo pins the per-trace design memo: a call that
// differs only in Workers shares the first call's entries, different
// options design afresh, and a caller overwriting its returned slice
// cannot change what the next caller gets.
func TestTrainCustomPackedMemo(t *testing.T) {
	prog, _ := workload.ByName("vortex")
	packed := tracestore.Pack(prog.Generate(workload.Train, 40_000))
	opt := TrainOptions{MaxEntries: 6, Order: 7, MinExecutions: 64, Workers: 1}
	first, err := TrainCustomPacked(packed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 2 {
		t.Fatalf("need at least two entries, got %d", len(first))
	}
	want := slices.Clone(first)

	opt.Workers = 3
	again, err := TrainCustomPacked(packed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(again, want) {
		t.Error("a call differing only in Workers did not return the memoized entries")
	}

	other := opt
	other.Order = 6
	fresh, err := TrainCustomPacked(packed, other)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range fresh {
		if slices.Contains(want, e) {
			t.Errorf("Order %d entry %d is a memoized Order %d entry", other.Order, i, opt.Order)
		}
	}

	for i := range again {
		again[i] = nil
	}
	after, err := TrainCustomPacked(packed, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, want) {
		t.Error("overwriting a returned slice changed the next call's entries")
	}
}

// TestTrainCustomEachMatchesPacked checks the flat batch against
// training each trace on its own: one trace already memoized, the others
// cold, every set equal to a cold single-trace run on a fresh copy of
// its trace, and every new set left in its trace's memo.
func TestTrainCustomEachMatchesPacked(t *testing.T) {
	names := []string{"vortex", "gs", "gsm"}
	pack := func() []*tracestore.Packed {
		out := make([]*tracestore.Packed, len(names))
		for i, name := range names {
			prog, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = tracestore.Pack(prog.Generate(workload.Train, 40_000))
		}
		return out
	}
	opt := TrainOptions{MaxEntries: 6, Order: 7, MinExecutions: 64, Workers: 1}
	for _, workers := range []int{1, 3} {
		traces := pack()
		warm, err := TrainCustomPacked(traces[1], opt)
		if err != nil {
			t.Fatal(err)
		}
		batch := opt
		batch.Workers = workers
		got, sets, err := TrainCustomEach(len(traces), func(i int) *tracestore.Packed { return traces[i] }, batch)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, traces) {
			t.Fatalf("workers=%d: returned traces are not the fetched ones", workers)
		}
		if !slices.Equal(sets[1], warm) {
			t.Errorf("workers=%d: the memoized trace was trained again", workers)
		}
		cold := pack()
		for i := range traces {
			want, err := TrainCustomPacked(cold[i], opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sets[i], want) {
				t.Errorf("workers=%d: %s entries differ from a single-trace run", workers, names[i])
			}
			memo, err := TrainCustomPacked(traces[i], opt)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(memo, sets[i]) {
				t.Errorf("workers=%d: %s entry set did not land in its trace's memo", workers, names[i])
			}
		}
	}
}

func TestTrainCustomRespectsMinExecutions(t *testing.T) {
	var events []trace.BranchEvent
	events = append(events, alternating(0xa0, 10)...) // too rare
	events = append(events, alternating(0xb0, 2000)...)
	entries, err := TrainCustom(events, TrainOptions{MaxEntries: 4, Order: 3, MinExecutions: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Tag == 0xa0 {
			t.Error("rare branch should have been skipped")
		}
	}
}

func TestResultMissRate(t *testing.T) {
	if (Result{}).MissRate() != 0 {
		t.Error("empty result should be 0")
	}
	if (Result{Total: 10, Misses: 3}).MissRate() != 0.3 {
		t.Error("miss rate arithmetic wrong")
	}
}

// TestTrainCustomParallelDeterministic pins the fan-out guarantee: the
// designed entry set must be bit-identical for any worker count, since
// per-branch designs are independent and ordered by rank.
func TestTrainCustomParallelDeterministic(t *testing.T) {
	prog, _ := workload.ByName("vortex")
	train := prog.Generate(workload.Train, 80000)

	var covers [][]*CustomEntry
	for _, workers := range []int{1, 4, 0} {
		entries, err := TrainCustom(train, TrainOptions{
			MaxEntries: 6, Order: 9, MinExecutions: 64, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		covers = append(covers, entries)
	}
	want := covers[0]
	for i, got := range covers[1:] {
		if len(got) != len(want) {
			t.Fatalf("run %d: %d entries, want %d", i+1, len(got), len(want))
		}
		for j := range want {
			if got[j].Tag != want[j].Tag {
				t.Fatalf("run %d entry %d: tag %#x, want %#x", i+1, j, got[j].Tag, want[j].Tag)
			}
			if !reflect.DeepEqual(got[j].Machine, want[j].Machine) {
				t.Fatalf("run %d entry %d (%#x): machines differ:\n%v\n%v",
					i+1, j, got[j].Tag, got[j].Machine, want[j].Machine)
			}
		}
	}
}
