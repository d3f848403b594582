// Package gasearch implements a genetic-programming search over small
// Moore-machine predictors, in the spirit of Emer and Gloy's
// feedback-driven predictor synthesis — the closest prior work the paper
// compares itself against (§3.2). The paper's argument is that its
// constructive design flow builds good small FSMs directly from a
// behavioural model, where a search must evaluate thousands of candidate
// machines against the trace; this package provides that baseline so the
// claim can be measured (see the BenchmarkSearchVsDesigner ablation).
//
// Two evaluators share the search loop. The exact evaluator scores
// every genome on the full trace in one fleet pass per cohort and is
// the differential oracle. The adaptive evaluator (Options.Adaptive)
// races cohorts through the fidelity ladder — representative windows
// first, escalating statistical survivors to exact full-trace scoring —
// and memoizes every exact score by machine structure, so duplicate
// cohort members, re-emitted children, and repeat searches over the
// same trace never re-simulate. Estimates only ever steer selection
// pressure: every elite slot, and therefore the reported Best and
// BestMissRate, is re-scored at full fidelity before it is trusted.
package gasearch

import (
	"fmt"
	"math/rand"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
)

// Options configures a search run.
type Options struct {
	// States is the fixed machine size of every genome (2..64).
	States int
	// Population is the number of genomes per generation (default 64).
	Population int
	// Generations is the number of evolution steps (default 50).
	Generations int
	// MutationRate is the per-gene mutation probability (default 0.02).
	MutationRate float64
	// Elite is how many top genomes survive unchanged (default 2).
	Elite int
	// Pool is the parent-pool size: each generation's children are bred
	// by tournaments within the top-Pool genomes (truncation selection,
	// the successive-halving shape). Keeping breeding inside an
	// exactly-scored top set is what lets the adaptive racer prune
	// losers on estimates without touching the trajectory: a pruned
	// candidate's fitness is only ever compared against other losers.
	// Default max(Elite, Population/8).
	Pool int
	// TournamentK is the tournament selection size within the parent
	// pool (default 3).
	TournamentK int
	// Seed makes the search reproducible.
	Seed int64
	// Warmup outcomes at the head of the trace are not scored.
	Warmup int
	// Workers bounds the goroutines the fleet evaluation pass shards
	// machine chunks over (<= 0 means GOMAXPROCS). Fleet chunks are
	// independent, so results are bit-identical for any setting.
	Workers int
	// Adaptive enables staged-fidelity candidate racing with the
	// persistent fitness memo (internal/fidelity). Default off — the
	// exact evaluator is the differential oracle the adaptive path is
	// tested against. Best and BestMissRate are always exact full-trace
	// values in either mode.
	Adaptive bool
}

func (o Options) withDefaults() Options {
	if o.Population <= 0 {
		o.Population = 64
	}
	if o.Generations <= 0 {
		o.Generations = 50
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.02
	}
	if o.Elite <= 0 {
		o.Elite = 2
	}
	if o.Pool <= 0 {
		// P/8 parents, capped at 8: past that, tournaments of K within
		// the pool almost never reach the extra members, and every pool
		// slot is a full-fidelity evaluation the adaptive ladder cannot
		// skip.
		o.Pool = o.Population / 8
		if o.Pool > 8 {
			o.Pool = 8
		}
		if o.Pool < o.Elite {
			o.Pool = o.Elite
		}
	}
	if o.TournamentK <= 0 {
		o.TournamentK = 3
	}
	return o
}

func (o Options) validate() error {
	if o.States < 2 || o.States > 64 {
		return fmt.Errorf("gasearch: states %d out of range [2,64]", o.States)
	}
	if o.Elite >= o.Population {
		return fmt.Errorf("gasearch: elite %d must be below population %d", o.Elite, o.Population)
	}
	if o.Pool < o.Elite || o.Pool >= o.Population {
		return fmt.Errorf("gasearch: pool %d out of range [elite %d, population %d)",
			o.Pool, o.Elite, o.Population)
	}
	return nil
}

// RacingStats reports the adaptive evaluator's activity for one search
// (all zero when Adaptive is off).
type RacingStats struct {
	// LadderUsed reports whether the trace was long enough for the
	// staged ladder (short traces score exact even in adaptive mode).
	LadderUsed bool
	// RungEvals, Pruned and Escalated are the ladder's tallies.
	RungEvals int
	Pruned    int
	Escalated int
	// MemoHits counts genomes scored from the fitness memo.
	MemoHits int
	// Deduped counts genomes that shared a structurally identical
	// cohort member's single evaluation.
	Deduped int
}

// Result reports the outcome of a search.
type Result struct {
	// Best is the fittest machine found.
	Best *fsm.Machine
	// BestMissRate is its misprediction rate on the training trace,
	// always measured at full fidelity.
	BestMissRate float64
	// PerGeneration records the best miss rate after each generation
	// (non-increasing thanks to elitism; always full-fidelity values).
	PerGeneration []float64
	// Evaluations counts fitness evaluations requested, including those
	// served by the memo or folded into a duplicate's score.
	Evaluations int
	// Racing describes the adaptive evaluator's work.
	Racing RacingStats
}

type genome struct {
	m    *fsm.Machine
	miss float64
	// exact reports whether miss is a full-fidelity measurement rather
	// than a ladder estimate. The exact evaluator always sets it.
	exact bool
}

// tractionPatience is how many consecutive low-pruning generations the
// adaptive evaluator tolerates before abandoning the ladder for the
// rest of the search (the memo and cohort dedup keep working): on
// workloads where the confidence bounds never separate candidates,
// racing is pure overhead and the honest move is to stop.
const tractionPatience = 2

// Search evolves Moore machines of the configured size to minimize the
// misprediction rate on the trace.
func Search(trace []bool, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(trace) <= opt.Warmup {
		return nil, fmt.Errorf("gasearch: trace of %d outcomes too short", len(trace))
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	res := &Result{}

	// The trace is packed once; every generation is then scored in ONE
	// fleet pass over the packed words instead of a scalar walk per
	// genome. This batching is legal because fitness evaluation consumes
	// no randomness: generating a whole cohort first and scoring it
	// afterwards leaves the RNG stream — and therefore every machine the
	// search constructs — identical to interleaved evaluation, and the
	// fleet kernel itself is bit-identical to Machine.Simulate, so the
	// search trajectory does not change, only its wall clock.
	bits := bitseq.FromBools(trace)
	words, n := bits.Words(), bits.Len()
	// One run scan serves every cohort of the search: the trace never
	// changes, so the span kernel's index is hoisted out of the loop.
	runs := bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)

	// compileBatch builds each genome's closure table, compiling every
	// distinct structure once: duplicate cohort members (crossover
	// copies, re-converged mutants) share a table by canonical-bytes
	// identity, and the fleet pass then also walks them once.
	var keyBuf []byte
	compileBatch := func(batch []*genome) ([]*fsm.BlockTable, bool) {
		tabs := make([]*fsm.BlockTable, len(batch))
		byKey := make(map[string]*fsm.BlockTable, len(batch))
		for i, g := range batch {
			keyBuf = g.m.AppendCanonical(keyBuf[:0])
			if t, ok := byKey[string(keyBuf)]; ok {
				tabs[i] = t
				continue
			}
			t, err := fsm.CompileBlockTable(g.m)
			if err != nil {
				return nil, false
			}
			byKey[string(keyBuf)] = t
			tabs[i] = t
		}
		return tabs, true
	}

	// evaluateAll is the exact evaluator: every genome's fitness is its
	// full-trace miss rate.
	evaluateAll := func(batch []*genome) {
		res.Evaluations += len(batch)
		// Compile directly rather than through the shared block cache: a
		// search burns through thousands of transient machines that
		// would evict the serving workload's entries.
		if tabs, ok := compileBatch(batch); ok {
			fl := fsm.FleetOfTables(tabs)
			rs := fl.RunParallelSpans(opt.Workers, words, n, opt.Warmup, runs)
			for i, g := range batch {
				g.miss, g.exact = rs[i].MissRate(), true
			}
			return
		}
		// Unreachable for generated genomes (<= 64 valid states); score
		// per genome defensively.
		for _, g := range batch {
			g.miss, g.exact = g.m.Simulate(trace, opt.Warmup).MissRate(), true
		}
	}

	// Adaptive plumbing. The ladder is nil when the trace is too short
	// to stage, in which case adaptive mode degenerates to exact
	// scoring through the memo — same fitness values, same trajectory.
	var (
		ladder *fidelity.Ladder
		digest fidelity.Key
	)
	if opt.Adaptive {
		digest = fidelity.TraceDigest(words, n)
		ladder = fidelity.NewLadder(words, n, runs, fidelity.LadderConfig{
			Warmup:  opt.Warmup,
			Workers: opt.Workers,
			Seed:    opt.Seed,
		})
		res.Racing.LadderUsed = ladder != nil
	}

	// evaluateAdaptive scores a cohort through memo, dedup, and — when
	// useLadder — the staged ladder, racing for the cohort's top-Pool
	// slots against the anchors (the carried elites' exact misses, which
	// compete for the same slots). With useLadder false everything
	// scores at full fidelity. It returns how many distinct machines
	// were raced and how many of those were pruned, for the traction
	// tracker. Only exact misses enter the memo.
	evaluateAdaptive := func(batch []*genome, anchors []float64, useLadder bool) (raced, prunedN int) {
		res.Evaluations += len(batch)
		type slot struct {
			key fidelity.Key
			gs  []*genome
		}
		var slots []*slot
		index := make(map[fidelity.Key]*slot, len(batch))
		// Full-capacity clamp: appends below copy rather than scribbling
		// on the caller's backing array.
		anchors = anchors[:len(anchors):len(anchors)]
		for _, g := range batch {
			k := fidelity.FitnessKey(g.m, digest, opt.Warmup)
			if s, ok := index[k]; ok {
				s.gs = append(s.gs, g)
				res.Racing.Deduped++
				continue
			}
			if miss, ok := fidelity.MemoGet(k); ok {
				g.miss, g.exact = miss, true
				res.Racing.MemoHits++
				// Memo hits are cohort members with exact scores: they
				// compete for the same top-Pool slots, so their values
				// anchor (tighten) the racing bar for free.
				anchors = append(anchors, miss)
				continue
			}
			s := &slot{key: k, gs: []*genome{g}}
			index[k] = s
			slots = append(slots, s)
		}
		if len(slots) == 0 {
			return 0, 0
		}
		tabs := make([]*fsm.BlockTable, len(slots))
		for i, s := range slots {
			t, err := fsm.CompileBlockTable(s.gs[0].m)
			if err != nil {
				// Unreachable for generated genomes (<= 64 valid
				// states); fall back to the scalar oracle defensively.
				for _, sl := range slots {
					for _, g := range sl.gs {
						g.miss, g.exact = g.m.Simulate(trace, opt.Warmup).MissRate(), true
						fidelity.MemoPut(sl.key, g.miss)
					}
				}
				return 0, 0
			}
			tabs[i] = t
		}
		if useLadder && ladder != nil {
			// keep = Pool exactly: the racing bar is the Pool-th smallest
			// UCB, which (bounds holding) upper-bounds the Pool-th best
			// true value, so nothing prunable can belong in the pool. The
			// slack-inflated radii are the safety margin for the windows'
			// non-iid reality.
			vs := ladder.RaceTop(tabs, opt.Pool, anchors)
			for i, s := range slots {
				v := vs[i]
				if v.Exact {
					fidelity.MemoPut(s.key, v.Miss)
				} else {
					prunedN++
				}
				for _, g := range s.gs {
					g.miss, g.exact = v.Miss, v.Exact
				}
			}
			return len(slots), prunedN
		}
		var misses []float64
		if ladder != nil {
			misses = ladder.ScoreExact(tabs)
		} else {
			fl := fsm.FleetOfTables(tabs)
			rs := fl.RunParallelSpans(opt.Workers, words, n, opt.Warmup, runs)
			misses = make([]float64, len(rs))
			for i, r := range rs {
				misses[i] = r.MissRate()
			}
		}
		for i, s := range slots {
			fidelity.MemoPut(s.key, misses[i])
			for _, g := range s.gs {
				g.miss, g.exact = misses[i], true
			}
		}
		return 0, 0
	}

	// ensureTopExact upgrades every estimate in the sorted population's
	// top k slots to a full-fidelity measurement and re-sorts, repeating
	// until the band is stable. This is what makes pruning a pure
	// skip-ahead: estimates can rank losers among themselves, but
	// nothing inexact can enter the parent pool, become an elite, a
	// reported per-generation best, or the champion. It terminates
	// because genomes only ever move from estimate to exact.
	ensureTopExact := func(pop []*genome, k int) {
		for {
			var inexact []*genome
			for _, g := range pop[:k] {
				if !g.exact {
					inexact = append(inexact, g)
				}
			}
			if len(inexact) == 0 {
				return
			}
			evaluateAdaptive(inexact, nil, false)
			sortByFitness(pop)
		}
	}

	pop := make([]*genome, opt.Population)
	for i := range pop {
		pop[i] = &genome{m: randomMachine(rng, opt.States)}
	}
	// The initial cohort races like any other: it competes only for the
	// first parent pool, so losers can keep windowed estimates, and a
	// random population's spread dwarfs the window radius — this is where
	// pruning bites hardest. ensureTopExact then settles the pool.
	if opt.Adaptive {
		evaluateAdaptive(pop, nil, ladder != nil)
		sortByFitness(pop)
		ensureTopExact(pop, opt.Pool)
	} else {
		evaluateAll(pop)
		sortByFitness(pop)
	}

	lowTraction := 0
	for gen := 0; gen < opt.Generations; gen++ {
		next := make([]*genome, 0, opt.Population)
		for i := 0; i < opt.Elite; i++ {
			next = append(next, pop[i])
		}
		// Children are bred by tournaments within the exactly-scored
		// top-Pool parent pool. Their fitness is first read by the NEXT
		// generation's pool selection, so the whole cohort can be
		// generated up front and scored by one fleet pass.
		pool := pop[:opt.Pool]
		for len(next) < opt.Population {
			a := tournament(rng, pool, opt.TournamentK)
			b := tournament(rng, pool, opt.TournamentK)
			child := &genome{m: crossover(rng, a.m, b.m)}
			mutate(rng, child.m, opt.MutationRate)
			next = append(next, child)
		}
		if opt.Adaptive {
			// The carried elites anchor the racing bar (they hold pool
			// slots with exact scores), and the ladder is dropped for
			// good once pruning shows no traction for a few generations.
			useLadder := ladder != nil && lowTraction < tractionPatience
			anchors := make([]float64, opt.Elite)
			for i := 0; i < opt.Elite; i++ {
				anchors[i] = pop[i].miss
			}
			raced, prunedN := evaluateAdaptive(next[opt.Elite:], anchors, useLadder)
			if useLadder && raced > 0 {
				if prunedN*5 < raced {
					lowTraction++
				} else {
					lowTraction = 0
				}
			}
			pop = next
			sortByFitness(pop)
			// The whole next parent pool must be exact before anything
			// reads it: racing already escalated every plausible member,
			// so this loop converges immediately unless a confidence
			// bound was violated.
			ensureTopExact(pop, opt.Pool)
		} else {
			evaluateAll(next[opt.Elite:])
			pop = next
			sortByFitness(pop)
		}
		res.PerGeneration = append(res.PerGeneration, pop[0].miss)
	}
	res.Best = pop[0].m
	res.BestMissRate = pop[0].miss
	if ladder != nil {
		st := ladder.Stats()
		res.Racing.RungEvals = st.RungEvals
		res.Racing.Pruned = st.Pruned
		res.Racing.Escalated = st.Escalated
	}
	return res, nil
}

// randomMachine draws a uniform random Moore machine of n states.
func randomMachine(rng *rand.Rand, n int) *fsm.Machine {
	m := &fsm.Machine{
		Output: make([]bool, n),
		Next:   make([][2]int, n),
		Start:  0,
	}
	for s := 0; s < n; s++ {
		m.Output[s] = rng.Intn(2) == 1
		m.Next[s][0] = rng.Intn(n)
		m.Next[s][1] = rng.Intn(n)
	}
	return m
}

// crossover mixes two parents state by state (uniform crossover over
// whole state rows, which keeps rows internally consistent).
func crossover(rng *rand.Rand, a, b *fsm.Machine) *fsm.Machine {
	n := a.NumStates()
	child := &fsm.Machine{
		Output: make([]bool, n),
		Next:   make([][2]int, n),
		Start:  0,
	}
	for s := 0; s < n; s++ {
		src := a
		if rng.Intn(2) == 1 {
			src = b
		}
		child.Output[s] = src.Output[s]
		child.Next[s] = src.Next[s]
	}
	return child
}

// mutate flips outputs and rewires transitions with the given per-gene
// probability.
func mutate(rng *rand.Rand, m *fsm.Machine, rate float64) {
	n := m.NumStates()
	for s := 0; s < n; s++ {
		if rng.Float64() < rate {
			m.Output[s] = !m.Output[s]
		}
		for b := 0; b < 2; b++ {
			if rng.Float64() < rate {
				m.Next[s][b] = rng.Intn(n)
			}
		}
	}
}

func tournament(rng *rand.Rand, pop []*genome, k int) *genome {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.miss < best.miss {
			best = c
		}
	}
	return best
}

// lessFit orders genomes best-first: by miss rate, ties broken by the
// structural total order so equal-fitness populations sort identically
// no matter how they were generated.
func lessFit(a, b *genome) bool {
	if a.miss != b.miss {
		return a.miss < b.miss
	}
	return fsm.CompareStructural(a.m, b.m) < 0
}

// sortByFitness orders genomes best-first, breaking ties by the stable
// structural key so runs are reproducible.
func sortByFitness(pop []*genome) {
	// Insertion sort: populations are small and mostly sorted after the
	// first generation.
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && lessFit(pop[j], pop[j-1]); j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
}
