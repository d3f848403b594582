package experiments

import (
	"context"
	"fmt"

	"fsmpredict/internal/confidence"
	"fsmpredict/internal/core"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/par"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// Figure2Result holds one program's value-prediction confidence
// comparison: the saturating up/down counter sweep versus cross-trained
// custom FSM curves per history length.
type Figure2Result struct {
	Program string
	// SUD holds the counter configuration points (§3.1 sweep).
	SUD []confidence.SUDPoint
	// Curves maps each history length to its threshold-swept FSM points;
	// the FSMs were trained on all OTHER programs (§6.3 cross-training).
	Curves map[int][]confidence.FSMPoint
}

// Figure2 reproduces one panel of Figure 2 for the named value benchmark
// (gcc, go, groff, li or perl).
//
// The panel is fold-once and replay-only: the stride predictor runs at
// most once per (program, input) — its packed correctness streams live
// in the shared trace store, so the five panels of the full figure share
// one simulation per trace — and each peer is profiled once, at the
// maximum requested history length. Cross-training is one aggregate plus
// a subtraction (core.CrossTrain) and every shorter history is an exact
// fold of the wide model (markov.Model.FoldTo). All of this is pure
// algebra over the same counts the per-history re-profiling used to
// produce, so the plotted points are bit-identical; the differential
// tests at the markov, confidence and experiments layers enforce that.
func Figure2(program string, cfg Config) (*Figure2Result, error) {
	cfg = cfg.withDefaults()
	target, err := workload.LoadByName(program)
	if err != nil {
		return nil, err
	}
	evalStreams := tracestore.Shared.ConfStreams(target, workload.Test, cfg.LoadEvents, cfg.TableLog2)

	res := &Figure2Result{
		Program: program,
		SUD:     confidence.SUDSweepStreams(evalStreams),
		Curves:  make(map[int][]confidence.FSMPoint, len(cfg.Histories)),
	}

	maxH := 0
	for _, h := range cfg.Histories {
		if h > maxH {
			maxH = h
		}
	}
	// Profile every program's training input once at the maximum history
	// length and cross-train the whole suite in one pass. The streams are
	// fetched concurrently, and each profile is memoized on its streams,
	// so the five panels of the full figure profile each program once.
	ctx := context.Background()
	peers := workload.LoadSuite()
	models, err := par.MapSlice(ctx, cfg.Workers, peers,
		func(_ int, p *workload.LoadProgram) (*markov.Model, error) {
			streams := tracestore.Shared.ConfStreams(p, workload.Train, cfg.LoadEvents, cfg.TableLog2)
			return perEntryModel(streams, maxH)
		})
	if err != nil {
		return nil, err
	}
	suite := make(map[string]*markov.Model, len(peers))
	for i, p := range peers {
		suite[p.Name] = models[i]
	}
	if len(suite) < 2 {
		return nil, fmt.Errorf("experiments: no other programs to cross-train on")
	}
	crossed, err := core.CrossTrain(suite)
	if err != nil {
		return nil, err
	}
	wide, ok := crossed[program]
	if !ok {
		return nil, fmt.Errorf("experiments: %s is not in the load suite", program)
	}
	// Each history length folds the wide model down and sweeps; fan out.
	curves, err := par.MapSlice(ctx, cfg.Workers, cfg.Histories,
		func(_ int, h int) ([]confidence.FSMPoint, error) {
			model, err := wide.FoldTo(h)
			if err != nil {
				return nil, err
			}
			points, err := confidence.FSMCurveStreams(model, confidence.DefaultThresholds(), evalStreams)
			if err != nil {
				return nil, fmt.Errorf("experiments: figure2 %s h=%d: %v", program, h, err)
			}
			return points, nil
		})
	if err != nil {
		return nil, err
	}
	for i, h := range cfg.Histories {
		res.Curves[h] = curves[i]
	}
	return res, nil
}

// profileKey addresses a per-entry correctness model among a
// ConfStreams' derived artifacts.
type profileKey struct{ order int }

// perEntryModel is confidence.PerEntryModel memoized on the streams.
// The model is shared: core.CrossTrain reads its inputs without
// mutating them, and nothing else here touches it.
func perEntryModel(cs *tracestore.ConfStreams, order int) (*markov.Model, error) {
	v, err := cs.Derive(profileKey{order}, func() (any, error) {
		return confidence.PerEntryModel(cs, order), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*markov.Model), nil
}

// SUDFrontier returns the Pareto-optimal accuracy/coverage frontier of
// the counter sweep.
func (r *Figure2Result) SUDFrontier() []stats.Point {
	pts := make([]stats.Point, 0, len(r.SUD))
	for _, p := range r.SUD {
		pts = append(pts, stats.Point{X: p.Result.Accuracy(), Y: p.Result.Coverage()})
	}
	return stats.ParetoMax(pts)
}

// CurvePoints returns one history length's curve as accuracy/coverage
// points sorted by accuracy.
func (r *Figure2Result) CurvePoints(history int) []stats.Point {
	pts := make([]stats.Point, 0, len(r.Curves[history]))
	for _, p := range r.Curves[history] {
		pts = append(pts, stats.Point{X: p.Result.Accuracy(), Y: p.Result.Coverage()})
	}
	s := stats.Series{Points: pts}
	s.Sort()
	return s.Points
}

// Series renders the whole panel as named series for CSV/plot output.
func (r *Figure2Result) Series() []stats.Series {
	var out []stats.Series
	var sud stats.Series
	sud.Name = "up/down"
	for _, p := range r.SUD {
		sud.Points = append(sud.Points, stats.Point{X: p.Result.Accuracy(), Y: p.Result.Coverage()})
	}
	out = append(out, sud)
	for _, h := range sortedKeys(r.Curves) {
		out = append(out, stats.Series{
			Name:   fmt.Sprintf("custom w/ hist=%d", h),
			Points: r.CurvePoints(h),
		})
	}
	return out
}

func sortedKeys(m map[int][]confidence.FSMPoint) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
