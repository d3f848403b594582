package bpred

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"fsmpredict/internal/core"
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
	// Workers bounds how many per-branch designs run concurrently; each
	// branch's design is independent, so the batch parallelizes freely.
	// 0 means GOMAXPROCS; the result is bit-identical for any value.
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
// fresh slice over the shared, immutable entries.
func TrainCustomPacked(tr *tracestore.Packed, opt TrainOptions) ([]*CustomEntry, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	key := trainKey{opt}
	key.opt.Workers = 0
	v, err := tr.Derive(key, func() (any, error) { return trainCustom(tr, opt) })
	if err != nil {
		return nil, err
	}
	return slices.Clone(v.([]*CustomEntry)), nil
}

// trainCustom is TrainCustomPacked's uncached body: rank, profile the
// chosen branches, and design one machine per branch.
func trainCustom(tr *tracestore.Packed, opt TrainOptions) ([]*CustomEntry, error) {
	ranked := RankByMissesPacked(tr)
	var chosen []Ranked
	var ids []int32
	for _, r := range ranked {
		if len(chosen) >= opt.MaxEntries {
			break
		}
		if r.Execs < opt.MinExecutions {
			continue
		}
		id, ok := tr.IDOf(r.PC)
		if !ok {
			return nil, fmt.Errorf("bpred: ranked PC %#x missing from trace", r.PC)
		}
		ids = append(ids, id)
		chosen = append(chosen, r)
	}
	models := tr.GlobalModels(ids, opt.Order)

	// Each branch's design is an independent run of the §4 pipeline, so
	// the batch fans out across workers; output order follows rank order
	// regardless of scheduling.
	return par.MapSlice(context.Background(), opt.Workers, chosen,
		func(i int, r Ranked) (*CustomEntry, error) {
			design, err := core.FromModel(models[i], core.Options{
				Name: fmt.Sprintf("branch_%#x", r.PC),
			})
			if err != nil {
				return nil, fmt.Errorf("bpred: designing FSM for %#x: %v", r.PC, err)
			}
			return &CustomEntry{Tag: r.PC, Machine: design.Machine}, nil
		})
}
