package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"

	"fsmpredict/internal/bpred"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/par"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vhdl"
	"fsmpredict/internal/workload"
)

// Figure4Result holds the synthesized area versus state count of a
// sample of generated FSM predictors, plus the fitted linear area bound
// the rest of the experiments use (§7.4).
//
// As in the paper, most machines sit on a linear trend while some large
// but highly regular machines optimize far below it; the fit follows the
// linear bulk (a trimmed least squares) so it can serve as the paper's
// conservative area bound.
type Figure4Result struct {
	// Points are all (states, gate-equivalent area) samples.
	Points []stats.Point
	// MissRates[i] is sampled machine i's training miss rate, scored in
	// the paper's update-all replay (§7.3): the machine advances on
	// every global outcome of its program trace and is scored at its
	// own branch's positions. The whole sample is scored in one fleet
	// pass per program, so the synthesis figure also reports how well
	// each synthesized predictor actually predicts.
	MissRates []float64
	// Kept are the samples the trimmed fit retained (the linear bulk).
	Kept []stats.Point
	// Fit is the least-squares line through Kept.
	Fit stats.Fit
}

// Figure4 generates custom FSM predictors across all branch benchmarks,
// synthesizes a sample of them with the gate-level model (the Synopsys
// stand-in), and fits the linear area/state relationship. sampleFrac
// mirrors the paper's 10% random sample; pass 1.0 to synthesize all.
func Figure4(cfg Config, sampleFrac float64) (*Figure4Result, error) {
	cfg = cfg.withDefaults()
	if sampleFrac <= 0 || sampleFrac > 1 {
		sampleFrac = 0.1
	}
	// Materialize the training traces concurrently (the store's
	// singleflight makes concurrent fetches safe), then train program by
	// program; each training fans its designs out across the workers.
	ctx := context.Background()
	progs := workload.BranchSuite()
	traces, err := par.MapSlice(ctx, cfg.Workers, progs,
		func(_ int, prog *workload.Program) (*tracestore.Packed, error) {
			return tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents), nil
		})
	if err != nil {
		return nil, err
	}
	var all []sampledEntry
	for i, prog := range progs {
		packed := traces[i]
		entries, err := bpred.TrainCustomPacked(packed, bpred.TrainOptions{
			MaxEntries:    cfg.MaxCustom,
			Order:         cfg.Order,
			MinExecutions: 64,
			Workers:       cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: figure4 %s: %v", prog.Name, err)
		}
		for _, e := range entries {
			all = append(all, sampledEntry{entry: e, packed: packed})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("experiments: figure4 produced no machines")
	}

	// Draw the random sample sequentially (one rng stream, machine order),
	// then synthesize the chosen machines in parallel.
	rng := rand.New(rand.NewSource(97))
	sampled := make([]sampledEntry, 0, len(all))
	for _, e := range all {
		if sampleFrac < 1 && rng.Float64() >= sampleFrac {
			continue
		}
		sampled = append(sampled, e)
	}
	if len(sampled) < 2 {
		// Sampling left too few points; use everything.
		sampled = all
	}
	points, err := par.MapSlice(ctx, cfg.Workers, sampled,
		func(_ int, e sampledEntry) (stats.Point, error) {
			area, err := vhdl.EstimateArea(e.entry.Machine)
			if err != nil {
				return stats.Point{}, err
			}
			return stats.Point{X: float64(e.entry.Machine.NumStates()), Y: area}, nil
		})
	if err != nil {
		return nil, err
	}
	rates, err := customMissRates(sampled, cfg.Adaptive)
	if err != nil {
		return nil, err
	}
	res := &Figure4Result{Points: points, MissRates: rates}
	if err := res.fitTrimmed(); err != nil {
		return nil, err
	}
	return res, nil
}

// sampledEntry pairs a trained custom predictor with the packed program
// trace it was trained on, so the synthesis sample can be scored
// against the right outcome stream.
type sampledEntry struct {
	entry  *bpred.CustomEntry
	packed *tracestore.Packed
}

// customMissRates scores every sampled machine over its program's
// training trace in the update-all replay. Machines are grouped by
// program and each group runs as ONE fleet pass (one trace read for the
// whole group). With adaptive on, each group's exact result vector is
// served from the sweep memo on repeats.
func customMissRates(sampled []sampledEntry, adaptive bool) ([]float64, error) {
	rates := make([]float64, len(sampled))
	groups := make(map[*tracestore.Packed][]int)
	var order []*tracestore.Packed
	for i, s := range sampled {
		if _, ok := groups[s.packed]; !ok {
			order = append(order, s.packed)
		}
		groups[s.packed] = append(groups[s.packed], i)
	}
	for _, p := range order {
		idxs := groups[p]
		var mkey []byte
		if adaptive {
			var tag [8]byte
			for _, i := range idxs {
				binary.LittleEndian.PutUint64(tag[:], sampled[i].entry.Tag)
				mkey = append(mkey, tag[:]...)
				mkey = sampled[i].entry.Machine.AppendCanonical(mkey)
			}
		}
		hit, grp := lookupSampledMisses(p, mkey, len(idxs), adaptive)
		if hit != nil {
			for k, i := range idxs {
				if hit[k].Total > 0 {
					rates[i] = hit[k].MissRate()
				}
			}
			continue
		}
		words, n := p.Outcomes().Words(), p.Len()
		machines := make([]*fsm.Machine, len(idxs))
		pos := make([][]int32, len(idxs))
		for k, i := range idxs {
			machines[k] = sampled[i].entry.Machine
			if id, ok := p.IDOf(sampled[i].entry.Tag); ok {
				pos[k] = p.SubOf(id).Pos
			}
		}
		fl, err := fsm.NewFleet(machines)
		if err != nil {
			return nil, err
		}
		misses := fl.RunSampled(words, n, pos)
		if adaptive {
			v := make([]fsm.SimResult, len(idxs))
			for k := range idxs {
				v[k] = fsm.SimResult{Total: len(pos[k]), Correct: len(pos[k]) - misses[k]}
			}
			grp.store(v)
		}
		for k, i := range idxs {
			if len(pos[k]) > 0 {
				rates[i] = float64(misses[k]) / float64(len(pos[k]))
			}
		}
	}
	return rates, nil
}

// fitTrimmed fits the linear bulk: a robust Theil–Sen line locates the
// trend despite the regular-machine outliers; points far below it (the
// paper's "highly regular" large machines whose synthesized area beats
// the trend) are set aside, and ordinary least squares on the remainder
// gives the reported line.
func (r *Figure4Result) fitTrimmed() error {
	base, err := stats.TheilSen(r.Points)
	if err != nil {
		return err
	}
	var kept []stats.Point
	for _, p := range r.Points {
		pred := base.At(p.X)
		if pred > 40 && p.Y < 0.5*pred {
			continue // regular machine, far below the trend
		}
		kept = append(kept, p)
	}
	if len(kept) < 2 {
		kept = r.Points
	}
	r.Kept = kept
	fit, err := stats.LinearFit(kept)
	if err != nil {
		return err
	}
	r.Fit = fit
	return nil
}

// AreaModel converts the fit into the conservative estimator used by
// Figure 5: a linear bound on area by state count, floored at the
// smallest sampled area.
func (r *Figure4Result) AreaModel() func(states int) float64 {
	minArea := r.Points[0].Y
	for _, p := range r.Points {
		if p.Y < minArea {
			minArea = p.Y
		}
	}
	fit := r.Fit
	return func(states int) float64 {
		a := fit.At(float64(states))
		if a < minArea {
			return minArea
		}
		return a
	}
}
