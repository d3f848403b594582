package confidence

import (
	"math/bits"

	"fsmpredict/internal/counters"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/tracestore"
)

// This file is the stream-replay half of the harness: every evaluation
// and profiling entry point of confidence.go re-expressed over the
// packed correctness streams of tracestore.ConfStreams, so one stride
// predictor simulation serves the whole Figure 2 fan-out (9 thresholds ×
// 9 history lengths × 60 counter configurations per panel). Each
// replay-based function is verified bit-identical to its load-trace
// counterpart by the package's differential tests; the load-trace
// versions remain the oracle.

// EvaluateStreams replays the per-entry segments through fresh
// estimators, one per segment — exactly what Evaluate computes by
// re-simulating the stride predictor.
func EvaluateStreams(cs *tracestore.ConfStreams, newEstimator func() counters.Predictor) Result {
	var r Result
	for _, seg := range cs.Segments {
		est := newEstimator()
		n := seg.Valid.Len()
		for i := 0; i < n; i++ {
			correct := seg.Correct.At(i)
			if seg.Valid.At(i) {
				r.Accesses++
				confident := est.Predict()
				if correct {
					r.Correct++
				}
				if confident {
					r.Flagged++
					if correct {
						r.FlaggedCorrect++
					}
				}
			}
			est.Update(correct)
		}
	}
	return r
}

// EvaluateStreamsMachine is EvaluateStreams for a machine-backed
// estimator, replayed through the machine's packed gated walk: per
// segment, one ReplayGated pass scores flagged/flagged-correct (8
// events per lookup when the machine has a block table), and
// accesses/correct reduce to word popcounts over the packed valid and
// correct streams. Mismatched segment streams fall back to the generic
// bit-at-a-time replay, the layer's scalar reference.
func EvaluateStreamsMachine(cs *tracestore.ConfStreams, m *fsm.Machine) Result {
	var r Result
	for _, seg := range cs.Segments {
		n := seg.Valid.Len()
		cw, vw := seg.Correct.Words(), seg.Valid.Words()
		flagged, flaggedCorrect, err := m.ReplayGated(cw, vw, n, seg.Spans)
		if err != nil {
			return EvaluateStreams(cs, func() counters.Predictor { return m.NewRunner() })
		}
		r.Flagged += flagged
		r.FlaggedCorrect += flaggedCorrect
		r.Accesses += seg.Valid.Ones()
		r.Correct += onesAnd(vw, cw)
	}
	return r
}

// EvaluateStreamsFleet is EvaluateStreamsMachine batched across
// machines: the whole set replays each segment in one Fleet.ReplayGated
// pass (structurally identical machines dedup to one walk), and the
// segment popcounts for Accesses/Correct — the same for every machine —
// are computed once and shared. Mismatched segment streams fall back
// to per-machine evaluation; a nil or invalid machine is an error.
func EvaluateStreamsFleet(cs *tracestore.ConfStreams, machines []*fsm.Machine) ([]Result, error) {
	out := make([]Result, len(machines))
	if len(machines) == 0 {
		return out, nil
	}
	fl, err := fsm.NewFleet(machines)
	if err != nil {
		return nil, err
	}
	for _, seg := range cs.Segments {
		n := seg.Valid.Len()
		cw, vw := seg.Correct.Words(), seg.Valid.Words()
		flagged, flaggedCorrect, err := fl.ReplayGated(cw, vw, n, seg.Spans)
		if err != nil {
			for i, m := range machines {
				out[i] = EvaluateStreamsMachine(cs, m)
			}
			return out, nil
		}
		accesses := seg.Valid.Ones()
		correct := onesAnd(vw, cw)
		for i := range out {
			out[i].Flagged += flagged[i]
			out[i].FlaggedCorrect += flaggedCorrect[i]
			out[i].Accesses += accesses
			out[i].Correct += correct
		}
	}
	return out, nil
}

// onesAnd counts positions set in both packed streams (valid AND
// correct accesses; the streams have equal bit length).
func onesAnd(a, b []uint64) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// SUDSweepStreams evaluates the Figure 2 counter configurations by
// stream replay, matching SUDSweep. Each counter is expanded into its
// explicit Moore machine (counters.SUDConfig.Machine — a saturating
// counter is just a small FSM) so the sweep rides the blocked kernel.
func SUDSweepStreams(cs *tracestore.ConfStreams) []SUDPoint {
	var out []SUDPoint
	for _, cfg := range counters.PaperSweep() {
		res := EvaluateStreamsMachine(cs, cfg.Machine())
		out = append(out, SUDPoint{Config: cfg, Result: res})
	}
	return out
}

// PerEntryModel profiles the per-entry correctness segments into one
// merged order-N Markov model, matching PerEntryCorrectnessModel's
// counts. Profiling goes through markov.Model.AddTrace, so the model
// also records each segment's warm-up prefix and therefore folds
// exactly: PerEntryModel(cs, K).FoldTo(h) equals PerEntryModel(cs, h)
// for any h ≤ K — the algebra Figure 2 uses to profile once at the
// maximum history length.
func PerEntryModel(cs *tracestore.ConfStreams, order int) *markov.Model {
	m := markov.New(order)
	for _, seg := range cs.Segments {
		m.AddTrace(seg.Correct)
	}
	return m
}

// FSMCurveStreams designs one confidence FSM per bias threshold from the
// given per-entry correctness model and evaluates each by segment
// replay, matching FSMCurve. It is DesignCurves for one model on the
// calling goroutine, then one fleet pass scoring the whole threshold
// sweep — one trace read for the curve instead of one per point.
func FSMCurveStreams(model *markov.Model, thresholds []float64, cs *tracestore.ConfStreams) ([]FSMPoint, error) {
	curves, err := DesignCurves([]*markov.Model{model}, thresholds, 1)
	if err != nil {
		return nil, err
	}
	if err := ScoreCurve(curves[0], cs); err != nil {
		return nil, err
	}
	return curves[0], nil
}

// ScoreCurve fills in each point's Result by replaying the streams
// through all the curve's machines in one EvaluateStreamsFleet pass.
func ScoreCurve(points []FSMPoint, cs *tracestore.ConfStreams) error {
	machines := make([]*fsm.Machine, len(points))
	for i := range points {
		machines[i] = points[i].Machine
	}
	results, err := EvaluateStreamsFleet(cs, machines)
	if err != nil {
		return err
	}
	for i := range points {
		points[i].Result = results[i]
	}
	return nil
}
