package experiments

import (
	"testing"

	"fsmpredict/internal/confidence"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/workload"
)

// TestFigure2MatchesLegacyPipeline is the experiments-layer differential
// oracle for the fold-once rewrite: the production Figure2 (shared
// correctness streams + one wide profile + CrossTrain + FoldTo) must
// reproduce, tally for tally, what the original per-history pipeline
// computed — re-profiling every peer at every history length and
// re-simulating the stride predictor for every evaluation.
func TestFigure2MatchesLegacyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("legacy figure2 pipeline is slow")
	}
	cfg := Config{LoadEvents: 20000, Histories: []int{2, 5, 8}, TableLog2: 7, Workers: 1}
	const program = "li"

	got, err := Figure2(program, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Legacy computation, straight from the load traces.
	full := cfg.withDefaults()
	target, err := workload.LoadByName(program)
	if err != nil {
		t.Fatal(err)
	}
	evalLoads := target.Generate(workload.Test, full.LoadEvents)
	wantSUD := confidence.SUDSweep(evalLoads, full.TableLog2)
	if len(got.SUD) != len(wantSUD) {
		t.Fatalf("SUD sweep lengths differ: %d vs %d", len(got.SUD), len(wantSUD))
	}
	for i := range wantSUD {
		if got.SUD[i].Config != wantSUD[i].Config || got.SUD[i].Result != wantSUD[i].Result {
			t.Fatalf("SUD point %d differs: %+v vs %+v", i, got.SUD[i], wantSUD[i])
		}
	}

	var trainLoads [][]trace.LoadEvent
	for _, p := range workload.LoadSuite() {
		if p.Name != program {
			trainLoads = append(trainLoads, p.Generate(workload.Train, full.LoadEvents))
		}
	}
	for _, h := range full.Histories {
		model := markov.New(h)
		for _, loads := range trainLoads {
			if err := model.Merge(confidence.PerEntryCorrectnessModel(loads, full.TableLog2, h)); err != nil {
				t.Fatal(err)
			}
		}
		want, err := confidence.FSMCurve(model, confidence.DefaultThresholds(), evalLoads, full.TableLog2)
		if err != nil {
			t.Fatal(err)
		}
		curve := got.Curves[h]
		if len(curve) != len(want) {
			t.Fatalf("h=%d: curve lengths differ: %d vs %d", h, len(curve), len(want))
		}
		for i := range want {
			if curve[i].Threshold != want[i].Threshold || curve[i].Result != want[i].Result {
				t.Fatalf("h=%d point %d differs:\nfold-once: %+v\nlegacy:    %+v",
					h, i, curve[i].Result, want[i].Result)
			}
			if curve[i].Machine.NumStates() != want[i].Machine.NumStates() {
				t.Fatalf("h=%d point %d machine sizes differ: %d vs %d",
					h, i, curve[i].Machine.NumStates(), want[i].Machine.NumStates())
			}
		}
	}
}
