// Package confidence implements the value-prediction confidence
// estimation harness of §6: per-table-entry confidence predictors sit in
// front of a two-delta stride value predictor and decide which value
// predictions the processor should trust. It computes the accuracy and
// coverage metrics plotted in Figure 2 and evaluates both the classic
// saturating up/down counters and the automatically designed FSM
// predictors (cross-trained across the benchmark suite, §6.3).
package confidence

import (
	"context"
	"fmt"
	"slices"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/core"
	"fsmpredict/internal/counters"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/par"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/vpred"
)

// Result tallies a confidence estimator over a load trace.
type Result struct {
	// Accesses counts loads that produced a value prediction (tag hits).
	Accesses int
	// Correct counts value predictions that were correct.
	Correct int
	// Flagged counts predictions the estimator marked confident.
	Flagged int
	// FlaggedCorrect counts confident predictions that were correct.
	FlaggedCorrect int
}

// Accuracy is the fraction of confident predictions that were correct
// (the x-axis of Figure 2). With nothing flagged it reports 1 — a
// vacuously accurate, zero-coverage estimator.
func (r Result) Accuracy() float64 {
	if r.Flagged == 0 {
		return 1
	}
	return float64(r.FlaggedCorrect) / float64(r.Flagged)
}

// Coverage is the fraction of correct predictions that were flagged
// confident (the y-axis of Figure 2).
func (r Result) Coverage() float64 {
	if r.Correct == 0 {
		return 0
	}
	return float64(r.FlaggedCorrect) / float64(r.Correct)
}

// Evaluate drives the load trace through a stride predictor with one
// confidence estimator per table entry, created by newEstimator. The
// estimator sees and learns from every prediction's correctness, exactly
// like the per-entry counters of §6.1. Estimators are re-created when
// their entry is reallocated to a different load.
func Evaluate(loads []trace.LoadEvent, tableLog2 int, newEstimator func() counters.Predictor) Result {
	sp := vpred.New(tableLog2)
	estimators := make([]counters.Predictor, sp.Size())
	owners := make([]uint64, sp.Size())

	var r Result
	for _, ld := range loads {
		acc := sp.Access(ld.PC, ld.Value)
		est := estimators[acc.Entry]
		if est == nil || owners[acc.Entry] != ld.PC {
			est = newEstimator()
			estimators[acc.Entry] = est
			owners[acc.Entry] = ld.PC
		}
		if acc.Valid {
			r.Accesses++
			confident := est.Predict()
			if acc.Correct {
				r.Correct++
			}
			if confident {
				r.Flagged++
				if acc.Correct {
					r.FlaggedCorrect++
				}
			}
		}
		// Confidence counters train on every executed load's correctness
		// (§6.3), including allocation misses (not correct).
		est.Update(acc.Valid && acc.Correct)
	}
	return r
}

// CorrectnessTrace runs the load trace through a fresh stride predictor
// and returns the per-load correctness bit stream — the §6.3 profile fed
// to the FSM design flow ("each time a load was executed, we put into
// the trace whether the load was correctly value predicted").
func CorrectnessTrace(loads []trace.LoadEvent, tableLog2 int) []bool {
	sp := vpred.New(tableLog2)
	bits := make([]bool, 0, len(loads))
	for _, ld := range loads {
		acc := sp.Access(ld.PC, ld.Value)
		bits = append(bits, acc.Valid && acc.Correct)
	}
	return bits
}

// PerEntryCorrectnessModel profiles each table entry's own correctness
// stream into one merged order-N Markov model. This is the training view
// matching the per-entry deployment of Evaluate/FSMCurve, where each of
// the 2K confidence slots holds its own FSM instance and sees only its
// own load's history — a drop-in replacement for the per-entry counters
// of §6.1.
func PerEntryCorrectnessModel(loads []trace.LoadEvent, tableLog2, order int) *markov.Model {
	sp := vpred.New(tableLog2)
	m := markov.New(order)
	hists := make([]*bitseq.History, sp.Size())
	owners := make([]uint64, sp.Size())
	for _, ld := range loads {
		acc := sp.Access(ld.PC, ld.Value)
		h := hists[acc.Entry]
		if h == nil || owners[acc.Entry] != ld.PC {
			h = bitseq.NewHistory(order)
			hists[acc.Entry] = h
			owners[acc.Entry] = ld.PC
		}
		correct := acc.Valid && acc.Correct
		if h.Warm() {
			m.Observe(h.Value(), correct)
		}
		h.Push(correct)
	}
	return m
}

// SUDPoint is one saturating-counter configuration's accuracy/coverage.
type SUDPoint struct {
	Config counters.SUDConfig
	Result Result
}

// SUDSweep evaluates the paper's Figure 2 counter configurations.
func SUDSweep(loads []trace.LoadEvent, tableLog2 int) []SUDPoint {
	var out []SUDPoint
	for _, cfg := range counters.PaperSweep() {
		cfg := cfg
		res := Evaluate(loads, tableLog2, func() counters.Predictor {
			return counters.NewSUD(cfg)
		})
		out = append(out, SUDPoint{Config: cfg, Result: res})
	}
	return out
}

// FSMPoint is one automatically designed confidence FSM's operating
// point: the bias threshold it was designed for, the machine, and its
// accuracy/coverage on the evaluation trace.
type FSMPoint struct {
	Threshold float64
	Machine   *fsm.Machine
	Result    Result
}

// DefaultThresholds is the bias-threshold sweep tracing each history
// length's coverage/accuracy curve in Figure 2.
func DefaultThresholds() []float64 {
	return []float64{0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99}
}

// FSMCurve designs one confidence FSM per bias threshold from the given
// (typically cross-trained) PER-ENTRY correctness model (see
// PerEntryCorrectnessModel) and evaluates each on the load trace. Each
// table entry gets its own runner of the shared machine, mirroring the
// per-entry counters it replaces.
func FSMCurve(model *markov.Model, thresholds []float64, loads []trace.LoadEvent, tableLog2 int) ([]FSMPoint, error) {
	return fsmCurve(model, thresholds, func(machine *fsm.Machine) Result {
		return Evaluate(loads, tableLog2, func() counters.Predictor {
			return machine.NewRunner()
		})
	})
}

func fsmCurve(model *markov.Model, thresholds []float64, eval func(*fsm.Machine) Result) ([]FSMPoint, error) {
	curves, err := DesignCurves([]*markov.Model{model}, thresholds, 1)
	if err != nil {
		return nil, err
	}
	out := curves[0]
	for i := range out {
		out[i].Result = eval(out[i].Machine)
	}
	return out, nil
}

// DesignCurves designs one confidence FSM per (model, bias threshold)
// pair, unscored, and returns curves[i][j] for models[i] at
// thresholds[j] (DefaultThresholds when empty), so batch evaluators
// (FSMCurveStreams' fleet pass) can score a whole curve in one trace
// read. The designs run as one pool of at most workers tasks (<= 0 means
// GOMAXPROCS), highest-order models first: a design's cost grows
// steeply with the history length (an order-10 curve costs about six
// times an order-8 one on the Figure 2 suite), so the long designs start
// at once and the short ones fill the tail. The machines do not depend
// on the schedule.
func DesignCurves(models []*markov.Model, thresholds []float64, workers int) ([][]FSMPoint, error) {
	if len(thresholds) == 0 {
		thresholds = DefaultThresholds()
	}
	byOrder := make([]int, len(models))
	for i := range byOrder {
		byOrder[i] = i
	}
	slices.SortStableFunc(byOrder, func(a, b int) int {
		return models[b].Order() - models[a].Order()
	})
	curves := make([][]FSMPoint, len(models))
	for i := range curves {
		curves[i] = make([]FSMPoint, len(thresholds))
	}
	nt := len(thresholds)
	_, err := par.Map(context.Background(), workers, len(models)*nt, func(t int) (struct{}, error) {
		i, j := byOrder[t/nt], t%nt
		model, thr := models[i], thresholds[j]
		design, err := core.FromModel(model, core.Options{
			BiasThreshold: thr,
			Name:          fmt.Sprintf("conf_h%d_t%02.0f", model.Order(), thr*100),
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("confidence: threshold %v: %v", thr, err)
		}
		curves[i][j] = FSMPoint{Threshold: thr, Machine: design.Machine}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return curves, nil
}
