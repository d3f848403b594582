package bpred

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"fsmpredict/internal/core"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/par"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
)

// TrainOptions configures custom-predictor construction (§7.3). Each
// chosen branch is designed with the design flow's defaults (among
// them the 1% don't-care budget of §4.3).
type TrainOptions struct {
	// MaxEntries is the number of custom FSM slots to fill (ranked by
	// baseline mispredictions).
	MaxEntries int
	// Order is the global history length the per-branch Markov models
	// use; the paper uses 9 for all custom branch results.
	Order int
	// MinExecutions skips branches executed fewer times in the profile,
	// avoiding machines built from statistically meaningless models.
	MinExecutions int
	// Workers bounds how many training tasks (per-trace ranking and
	// profiling, per-branch designs) run at once; each branch's design
	// is independent, so the batch parallelizes freely. 0 means
	// GOMAXPROCS; the result is bit-identical for any value.
	Workers int
}

// DefaultTrainOptions mirror the paper's setup.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{MaxEntries: 16, Order: 9, MinExecutions: 64}
}

// Ranked is one profiled branch with its baseline misprediction count.
type Ranked struct {
	PC     uint64
	Misses int
	Execs  int
}

// rankOrder sorts by misprediction count descending, ties by PC
// ascending — the §7.3 ranking.
func rankOrder(a, b Ranked) int {
	if a.Misses != b.Misses {
		if a.Misses > b.Misses {
			return -1
		}
		return 1
	}
	switch {
	case a.PC < b.PC:
		return -1
	case a.PC > b.PC:
		return 1
	}
	return 0
}

// RankByMisses profiles the trace with the XScale baseline and returns
// branches ordered by how many mispredictions they caused — the first
// step of building the customized architecture (§7.3: "profile the
// application with our baseline predictor").
func RankByMisses(events []trace.BranchEvent) []Ranked {
	base := NewXScale()
	misses := map[uint64]*Ranked{}
	for _, e := range events {
		r := misses[e.PC]
		if r == nil {
			r = &Ranked{PC: e.PC}
			misses[e.PC] = r
		}
		r.Execs++
		if base.Predict(e.PC) != e.Taken {
			r.Misses++
		}
		base.Update(e.PC, e.Taken)
	}
	out := make([]Ranked, 0, len(misses))
	for _, r := range misses {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return rankOrder(out[i], out[j]) < 0 })
	return out
}

// RankByMissesPacked is RankByMisses on a packed trace: the per-branch
// tallies live in dense ID-indexed arrays instead of a map of pointers,
// and the sort runs over values. The output is identical to
// RankByMisses on the materialized events.
func RankByMissesPacked(tr *tracestore.Packed) []Ranked {
	base := NewXScale()
	execs := make([]int32, tr.NumStatics())
	miss := make([]int32, tr.NumStatics())
	n := tr.Len()
	for i := 0; i < n; i++ {
		id := tr.IDAt(i)
		pc := tr.PCOf(id)
		taken := tr.Taken(i)
		execs[id]++
		if base.Predict(pc) != taken {
			miss[id]++
		}
		base.Update(pc, taken)
	}
	out := make([]Ranked, tr.NumStatics())
	for id := range out {
		out[id] = Ranked{PC: tr.PCOf(int32(id)), Misses: int(miss[id]), Execs: int(execs[id])}
	}
	slices.SortFunc(out, rankOrder)
	return out
}

// TrainCustom builds custom FSM entries for the worst-predicted branches
// of the training trace: per-branch Markov models over the global history
// (§7.3) fed through the automated design flow (§4). Entries come back in
// rank order, so evaluating prefixes of the slice reproduces the paper's
// "add one more custom predictor" area sweep.
//
// It packs the events and delegates to TrainCustomPacked; callers that
// already hold a packed trace (the experiments, via tracestore) should
// call that directly and skip the conversion.
func TrainCustom(events []trace.BranchEvent, opt TrainOptions) ([]*CustomEntry, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return TrainCustomPacked(tracestore.Pack(events), opt)
}

func (opt TrainOptions) validate() error {
	if opt.MaxEntries < 1 {
		return fmt.Errorf("bpred: MaxEntries %d must be >= 1", opt.MaxEntries)
	}
	if opt.Order < 1 {
		return fmt.Errorf("bpred: Order %d must be >= 1", opt.Order)
	}
	return nil
}

// trainKey addresses a trained entry set among a trace's derived
// artifacts: the options with Workers zeroed, since the entries are
// bit-identical for any worker count.
type trainKey struct{ opt TrainOptions }

// TrainCustomPacked is TrainCustom on the packed substrate: ranking runs
// over dense ID tallies, and each chosen branch's global-history Markov
// model is built from its precomputed substream (positions plus two-word
// history windows) instead of a scan of the full trace per model. The
// entries are bit-identical to the event-slice path.
//
// The entry set is memoized on the trace (tracestore.Packed.Derive), so
// every caller training the same trace with the same options — Figures 4
// and 5 both train the suite — designs it once. Each call returns a
// fresh slice over the shared, immutable entries. It is TrainCustomEach
// over one trace.
func TrainCustomPacked(tr *tracestore.Packed, opt TrainOptions) ([]*CustomEntry, error) {
	_, sets, err := TrainCustomEach(1, func(int) *tracestore.Packed { return tr }, opt)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// TrainCustomEach trains n traces' entry sets through one flat pool of
// at most opt.Workers tasks and returns the traces and entry sets by
// index; each set equals TrainCustomPacked on its trace. The first stage
// runs one task per trace: trace(i) fetches the trace, then the task
// takes the set from the trace's memo or ranks the trace and profiles
// its chosen branches. These are the long tasks, so they go first. The
// second stage designs every chosen branch of every trace not memoized,
// one design per task, so the designs of all traces share the workers
// instead of queueing trace by trace. Each new set is then memoized on
// its trace. Two concurrent callers missing the memo on one trace both
// design it, and both return the set stored first.
func TrainCustomEach(n int, trace func(i int) *tracestore.Packed, opt TrainOptions) ([]*tracestore.Packed, [][]*CustomEntry, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	key := trainKey{opt}
	key.opt.Workers = 0
	ctx := context.Background()
	traces := make([]*tracestore.Packed, n)
	sets := make([][]*CustomEntry, n)
	memoized := make([]bool, n)
	plans, err := par.Map(ctx, opt.Workers, n, func(i int) (trainPlan, error) {
		traces[i] = trace(i)
		if v, ok := traces[i].Lookup(key); ok {
			sets[i], memoized[i] = v.([]*CustomEntry), true
			return trainPlan{}, nil
		}
		return planTraining(traces[i], opt)
	})
	if err != nil {
		return nil, nil, err
	}

	// Each branch's design is an independent run of the §4 pipeline;
	// entries land by rank whatever the schedule.
	type job struct{ set, rank int }
	var jobs []job
	for i, p := range plans {
		if !memoized[i] {
			sets[i] = make([]*CustomEntry, len(p.chosen))
			for k := range p.chosen {
				jobs = append(jobs, job{i, k})
			}
		}
	}
	if _, err := par.Map(ctx, opt.Workers, len(jobs), func(j int) (struct{}, error) {
		i, k := jobs[j].set, jobs[j].rank
		pc := plans[i].chosen[k].PC
		design, err := core.FromModel(plans[i].models[k], core.Options{
			Name: fmt.Sprintf("branch_%#x", pc),
		})
		if err != nil {
			return struct{}{}, fmt.Errorf("bpred: designing FSM for %#x: %v", pc, err)
		}
		sets[i][k] = &CustomEntry{Tag: pc, Machine: design.Machine}
		return struct{}{}, nil
	}); err != nil {
		return nil, nil, err
	}

	for i := range sets {
		if !memoized[i] {
			fresh := sets[i]
			v, err := traces[i].Derive(key, func() (any, error) { return fresh, nil })
			if err != nil {
				return nil, nil, err
			}
			sets[i] = v.([]*CustomEntry)
		}
		sets[i] = slices.Clone(sets[i])
	}
	return traces, sets, nil
}

// trainPlan is one trace's chosen branches in rank order, with each
// branch's global-history model.
type trainPlan struct {
	chosen []Ranked
	models []*markov.Model
}

// planTraining ranks the trace and profiles the branches it chooses:
// the worst-predicted MaxEntries executed at least MinExecutions times.
func planTraining(tr *tracestore.Packed, opt TrainOptions) (trainPlan, error) {
	var p trainPlan
	var ids []int32
	for _, r := range RankByMissesPacked(tr) {
		if len(p.chosen) >= opt.MaxEntries {
			break
		}
		if r.Execs < opt.MinExecutions {
			continue
		}
		id, ok := tr.IDOf(r.PC)
		if !ok {
			return p, fmt.Errorf("bpred: ranked PC %#x missing from trace", r.PC)
		}
		ids = append(ids, id)
		p.chosen = append(p.chosen, r)
	}
	p.models = tr.GlobalModels(ids, opt.Order)
	return p, nil
}
