package confidence

import (
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

// EvaluateStreamsMachine replays the per-entry segments through a
// machine-backed estimator, matching Evaluate: per segment, one
// ReplayGated pass over the packed correctness stream (8 events per
// lookup when the machine has a block table) tallies flagged and
// flagged-correct at every position. A segment's bit 0 is its
// allocating load, which makes no prediction: it trains the estimator
// but is not scored, so its one flag — the start state's output — comes
// off again, and it adds no access. Being 0, it is never correct.
func EvaluateStreamsMachine(cs *tracestore.ConfStreams, m *fsm.Machine) Result {
	var r Result
	unscored := startFlag(m)
	for _, seg := range cs.Segments {
		n := seg.Correct.Len()
		flagged, flaggedCorrect := m.ReplayGated(seg.Correct.Words(), n, seg.Spans)
		r.Flagged += flagged - unscored
		r.FlaggedCorrect += flaggedCorrect
		r.Accesses += n - 1
		r.Correct += seg.Correct.Ones()
	}
	return r
}

// startFlag is 1 when the machine's start state predicts confident: the
// flag it raises on a segment's unscored bit 0.
func startFlag(m *fsm.Machine) int {
	if m.Output[m.Start] {
		return 1
	}
	return 0
}

// EvaluateStreamsFleet is EvaluateStreamsMachine batched across
// machines: the whole set replays each segment in one Fleet.ReplayGated
// pass (structurally identical machines dedup to one walk) that adds
// into per-machine tallies, and Accesses/Correct — the same for every
// machine — are summed once and shared. Allocations do not grow with
// the segment count. A nil or invalid machine is an error.
func EvaluateStreamsFleet(cs *tracestore.ConfStreams, machines []*fsm.Machine) ([]Result, error) {
	out := make([]Result, len(machines))
	if len(machines) == 0 {
		return out, nil
	}
	fl, err := fsm.NewFleet(machines)
	if err != nil {
		return nil, err
	}
	flagged, flaggedCorrect := make([]int, len(machines)), make([]int, len(machines))
	var shared Result
	for _, seg := range cs.Segments {
		n := seg.Correct.Len()
		fl.ReplayGated(seg.Correct.Words(), n, seg.Spans, flagged, flaggedCorrect)
		shared.Accesses += n - 1
		shared.Correct += seg.Correct.Ones()
	}
	for i, m := range machines {
		out[i] = shared
		out[i].Flagged = flagged[i] - len(cs.Segments)*startFlag(m)
		out[i].FlaggedCorrect = flaggedCorrect[i]
	}
	return out, nil
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
