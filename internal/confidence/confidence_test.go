package confidence

import (
	"testing"

	"fsmpredict/internal/counters"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vpred"
	"fsmpredict/internal/workload"
)

func loadTrace(t *testing.T, name string, v workload.Variant, n int) []trace.LoadEvent {
	t.Helper()
	p, err := workload.LoadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Generate(v, n)
}

func TestResultMetrics(t *testing.T) {
	r := Result{Accesses: 100, Correct: 50, Flagged: 40, FlaggedCorrect: 36}
	if r.Accuracy() != 0.9 {
		t.Errorf("Accuracy = %v, want 0.9", r.Accuracy())
	}
	if r.Coverage() != 0.72 {
		t.Errorf("Coverage = %v, want 0.72", r.Coverage())
	}
	empty := Result{}
	if empty.Accuracy() != 1 || empty.Coverage() != 0 {
		t.Error("empty result should be vacuously accurate with zero coverage")
	}
}

func TestEvaluateAlwaysConfident(t *testing.T) {
	loads := loadTrace(t, "gcc", workload.Train, 20000)
	r := Evaluate(loads, vpred.TableLog2Default, func() counters.Predictor {
		return counters.Static(true)
	})
	if r.Flagged != r.Accesses {
		t.Errorf("always-confident flagged %d of %d", r.Flagged, r.Accesses)
	}
	if r.Coverage() != 1 {
		t.Errorf("always-confident coverage = %v, want 1", r.Coverage())
	}
	// Its accuracy equals the raw value-prediction correctness rate.
	want := float64(r.Correct) / float64(r.Accesses)
	if r.Accuracy() != want {
		t.Errorf("accuracy = %v, want %v", r.Accuracy(), want)
	}
	checkStaticStreams(t, loads, true)
}

func TestEvaluateNeverConfident(t *testing.T) {
	loads := loadTrace(t, "gcc", workload.Train, 5000)
	r := Evaluate(loads, 11, func() counters.Predictor {
		return counters.Static(false)
	})
	if r.Flagged != 0 || r.Coverage() != 0 || r.Accuracy() != 1 {
		t.Errorf("never-confident result = %+v", r)
	}
	checkStaticStreams(t, loads, false)
}

// checkStaticStreams scores a one-state machine that always (or never)
// predicts confident by stream replay, alone and in a fleet beside its
// opposite, and checks the tallies against their closed forms: every
// load but each segment's allocating one is scored, the machine flags
// all of them or none, and the correct ones are the streams' set bits.
func checkStaticStreams(t *testing.T, loads []trace.LoadEvent, confident bool) {
	t.Helper()
	static := func(out bool) *fsm.Machine {
		return &fsm.Machine{Output: []bool{out}, Next: [][2]int{{0, 0}}}
	}
	m := static(confident)
	for _, log2 := range []int{2, vpred.TableLog2Default} {
		cs := tracestore.BuildConfStreams(loads, log2)
		var ones int
		for _, seg := range cs.Segments {
			ones += seg.Correct.Ones()
		}
		want := Result{Accesses: cs.Loads() - len(cs.Segments), Correct: ones}
		if confident {
			want.Flagged, want.FlaggedCorrect = want.Accesses, ones
		}
		fleet, err := EvaluateStreamsFleet(cs, []*fsm.Machine{m, static(!confident)})
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]Result{"machine": EvaluateStreamsMachine(cs, m), "fleet": fleet[0]} {
			if got != want {
				t.Errorf("log2=%d %s: confident=%v result %+v, want %+v", log2, name, confident, got, want)
			}
		}
	}
}

func TestCorrectnessTraceMatchesEvaluate(t *testing.T) {
	loads := loadTrace(t, "perl", workload.Train, 20000)
	bits := CorrectnessTrace(loads, 11)
	if len(bits) != len(loads) {
		t.Fatalf("trace length %d, want %d", len(bits), len(loads))
	}
	correct := 0
	for _, b := range bits {
		if b {
			correct++
		}
	}
	r := Evaluate(loads, 11, func() counters.Predictor {
		return counters.Static(true)
	})
	if correct != r.Correct {
		t.Errorf("correctness trace has %d corrects, Evaluate saw %d", correct, r.Correct)
	}
}

func TestSUDSweepTradeoff(t *testing.T) {
	loads := loadTrace(t, "gcc", workload.Train, 40000)
	points := SUDSweep(loads, 11)
	if len(points) < 50 {
		t.Fatalf("sweep produced %d points", len(points))
	}
	// The sweep must span a real tradeoff: some high-coverage points and
	// some high-accuracy points.
	var maxCov, maxAcc float64
	for _, p := range points {
		if c := p.Result.Coverage(); c > maxCov {
			maxCov = c
		}
		if a := p.Result.Accuracy(); a > maxAcc {
			maxAcc = a
		}
	}
	if maxCov < 0.5 {
		t.Errorf("max coverage = %v, want >= 0.5", maxCov)
	}
	if maxAcc < 0.8 {
		t.Errorf("max accuracy = %v, want >= 0.8", maxAcc)
	}
}

func TestFSMCurveThresholdTradeoff(t *testing.T) {
	train := loadTrace(t, "gcc", workload.Train, 60000)
	test := loadTrace(t, "gcc", workload.Test, 40000)
	model := PerEntryCorrectnessModel(train, 11, 6)
	points, err := FSMCurve(model, []float64{0.5, 0.9, 0.99}, test, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("curve has %d points", len(points))
	}
	// Raising the threshold must not increase coverage and must not
	// decrease accuracy (within noise allow equality).
	for i := 1; i < len(points); i++ {
		if points[i].Result.Coverage() > points[i-1].Result.Coverage()+0.02 {
			t.Errorf("coverage increased with threshold: %v -> %v",
				points[i-1].Result.Coverage(), points[i].Result.Coverage())
		}
	}
	if points[2].Result.Accuracy() < points[0].Result.Accuracy()-0.02 {
		t.Errorf("accuracy fell with threshold: %v -> %v",
			points[0].Result.Accuracy(), points[2].Result.Accuracy())
	}
}

// TestFSMBeatsSUDOnPatternedLoads is the Figure 2 headline claim at small
// scale: on pattern-structured correctness the cross-trained FSM reaches
// coverage no saturating counter can match at comparable accuracy.
func TestFSMBeatsSUDOnPatternedLoads(t *testing.T) {
	// Cross-training: model from the other four programs, evaluate gcc.
	suite := workload.LoadSuite()
	crossModel := markov.New(6)
	var evalLoads []trace.LoadEvent
	for _, p := range suite {
		loads := p.Generate(workload.Train, 50000)
		if p.Name == "gcc" {
			evalLoads = p.Generate(workload.Test, 50000)
			continue
		}
		if err := crossModel.Merge(PerEntryCorrectnessModel(loads, 11, 6)); err != nil {
			t.Fatal(err)
		}
	}

	fsmPoints, err := FSMCurve(crossModel, DefaultThresholds(), evalLoads, 11)
	if err != nil {
		t.Fatal(err)
	}
	sudPoints := SUDSweep(evalLoads, 11)

	// For a mid-range accuracy target, compare best coverages.
	const target = 0.75
	bestAt := func(cov func(Result) float64, results []Result) float64 {
		best := -1.0
		for _, r := range results {
			if r.Accuracy() >= target && cov(r) > best {
				best = cov(r)
			}
		}
		return best
	}
	var fsmResults, sudResults []Result
	for _, p := range fsmPoints {
		fsmResults = append(fsmResults, p.Result)
	}
	for _, p := range sudPoints {
		sudResults = append(sudResults, p.Result)
	}
	fsmCov := bestAt(Result.Coverage, fsmResults)
	sudCov := bestAt(Result.Coverage, sudResults)
	if fsmCov < 0 {
		t.Fatal("no FSM point reaches the target accuracy")
	}
	if sudCov >= 0 && fsmCov <= sudCov {
		t.Errorf("FSM coverage %v should beat SUD coverage %v at accuracy >= %v",
			fsmCov, sudCov, target)
	}
}

func TestFSMCurveDefaultThresholds(t *testing.T) {
	loads := loadTrace(t, "li", workload.Train, 20000)
	model := PerEntryCorrectnessModel(loads, 11, 4)
	points, err := FSMCurve(model, nil, loads, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(DefaultThresholds()) {
		t.Fatalf("points = %d, want %d", len(points), len(DefaultThresholds()))
	}
	for _, p := range points {
		if p.Machine == nil || p.Machine.NumStates() == 0 {
			t.Error("missing machine in FSM point")
		}
	}
}
