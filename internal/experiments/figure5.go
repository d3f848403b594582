package experiments

import (
	"context"
	"fmt"

	"fsmpredict/internal/bpred"
	"fsmpredict/internal/par"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// Figure5Result holds one benchmark's misprediction-rate versus
// estimated-area comparison of the four architectures (§7.5).
type Figure5Result struct {
	Program string
	// XScale is the baseline's single operating point.
	XScale stats.Point
	// Gshare and LGC are size sweeps of the table-based predictors.
	Gshare stats.Series
	LGC    stats.Series
	// CustomSame and CustomDiff add one custom FSM at a time; Same is
	// trained and measured on the same input (the limit study), Diff is
	// trained on the Train input and measured on Test.
	CustomSame stats.Series
	CustomDiff stats.Series
	// Entries are the trained custom predictors in rank order.
	Entries []*bpred.CustomEntry
}

// GshareBits and LGCBits are the table-size sweeps of Figure 5.
var (
	GshareBits = []int{7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	LGCBits    = []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
)

// Figure5 reproduces one panel of Figure 5 for the named branch
// benchmark. fsmArea is the Figure 4 linear model; pass nil to use a
// freshly fitted one.
func Figure5(program string, cfg Config, fsmArea func(states int) float64) (*Figure5Result, error) {
	cfg = cfg.withDefaults()
	prog, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	if fsmArea == nil {
		f4, err := Figure4(cfg, 1.0)
		if err != nil {
			return nil, err
		}
		fsmArea = f4.AreaModel()
	}

	// Custom predictors trained on the training input: a memo hit after
	// Figure 4, whose pool trained the whole suite.
	train := tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
	entries, err := bpred.TrainCustomPacked(train, bpred.TrainOptions{
		MaxEntries:    cfg.MaxCustom,
		Order:         cfg.Order,
		MinExecutions: 64,
		Workers:       cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: figure5 %s: %v", program, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("experiments: figure5 %s: no custom entries", program)
	}

	res := &Figure5Result{Program: program, Entries: entries}
	res.Gshare.Name, res.LGC.Name = "gshare", "lgc"
	res.CustomSame.Name, res.CustomDiff.Name = "custom-same", "custom-diff"

	// Baselines and table sweeps, measured on the test input in batched
	// single-pass groups.
	x := bpred.NewXScale()
	tablePreds := []bpred.Predictor{x}
	gshares := make([]*bpred.Gshare, len(GshareBits))
	for i, bits := range GshareBits {
		gshares[i] = bpred.NewGshare(bits)
		tablePreds = append(tablePreds, gshares[i])
	}
	lgcs := make([]*bpred.LGC, len(LGCBits))
	for i, bits := range LGCBits {
		lgcs[i] = bpred.NewLGC(bits)
		tablePreds = append(tablePreds, lgcs[i])
	}

	// One area point per custom-predictor count. Under the update-all
	// policy every prefix of the entry set shares base and runner state,
	// so the whole sweep is one single-pass prefix simulation per input;
	// with cfg.Adaptive the sweep memo serves repeated (trace,
	// entry-set) runs without re-simulating. The work runs as two pools
	// of at most w tasks. The first generates the test trace while the
	// train sweep runs on the other w-1 workers, since the train trace is
	// already resident. The second deals the table predictors over w
	// round-robin chunks and runs the test sweep as one more task.
	ctx := context.Background()
	w := par.Workers(cfg.Workers, len(tablePreds))
	var test *tracestore.Packed
	var sameResults, diffResults []bpred.Result
	if _, err := par.Map(ctx, w, 2, func(i int) (struct{}, error) {
		if i == 0 {
			test = tracestore.Shared.Branches(prog, workload.Test, cfg.BranchEvents)
		} else {
			sameResults = prefixSweep(entries, train, max(w-1, 1), cfg.Adaptive)
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	tableResults := make([]bpred.Result, len(tablePreds))
	if _, err := par.Map(ctx, w, w+1, func(c int) (struct{}, error) {
		if c == w {
			diffResults = prefixSweep(entries, test, 1, cfg.Adaptive)
			return struct{}{}, nil
		}
		runAllChunk(tablePreds, c, w, test, tableResults)
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	res.XScale = stats.Point{X: x.Area(), Y: tableResults[0].MissRate()}
	for i, g := range gshares {
		res.Gshare.Points = append(res.Gshare.Points,
			stats.Point{X: g.Area(), Y: tableResults[1+i].MissRate()})
	}
	for i, l := range lgcs {
		res.LGC.Points = append(res.LGC.Points,
			stats.Point{X: l.Area(), Y: tableResults[1+len(gshares)+i].MissRate()})
	}
	for i := range entries {
		c := bpred.NewCustom(entries[:i+1])
		c.FSMArea = fsmArea
		res.CustomSame.Points = append(res.CustomSame.Points,
			stats.Point{X: c.Area(), Y: sameResults[i].MissRate()})
		res.CustomDiff.Points = append(res.CustomDiff.Points,
			stats.Point{X: c.Area(), Y: diffResults[i].MissRate()})
	}
	return res, nil
}

// runAllChunk runs chunk c of w through bpred.RunAll, writing each
// predictor's result at its index in out: the predictors are dealt
// round-robin — chunk c gets c, c+w, c+2w, … — so each size sweep
// (gshare and LGC costs grow with the table) spreads over every chunk
// instead of landing whole on one, and within a chunk the trace is read
// once for all its predictors. Predictors are independent, so the
// results are identical for any w.
func runAllChunk(preds []bpred.Predictor, c, w int, tr *tracestore.Packed, out []bpred.Result) {
	var chunk []bpred.Predictor
	for j := c; j < len(preds); j += w {
		chunk = append(chunk, preds[j])
	}
	for k, r := range bpred.RunAll(chunk, tr) {
		out[c+k*w] = r
	}
}

// Series returns all curves (and the baseline point) as named series.
func (r *Figure5Result) Series() []stats.Series {
	return []stats.Series{
		{Name: "xscale", Points: []stats.Point{r.XScale}},
		r.Gshare,
		r.LGC,
		r.CustomSame,
		r.CustomDiff,
	}
}

// BestAtOrBelow returns a series' lowest miss rate among points with area
// at most the given budget, and whether any point qualifies.
func BestAtOrBelow(s stats.Series, areaBudget float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range s.Points {
		if p.X <= areaBudget && (!ok || p.Y < best) {
			best, ok = p.Y, true
		}
	}
	return best, ok
}

// MinMiss returns a series' lowest miss rate across all its points.
func MinMiss(s stats.Series) float64 {
	best := 1.0
	for _, p := range s.Points {
		if p.Y < best {
			best = p.Y
		}
	}
	return best
}
