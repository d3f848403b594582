// Package gasearch implements a genetic-programming search over small
// Moore-machine predictors, in the spirit of Emer and Gloy's
// feedback-driven predictor synthesis — the closest prior work the paper
// compares itself against (§3.2). The paper's argument is that its
// constructive design flow builds good small FSMs directly from a
// behavioural model, where a search must evaluate thousands of candidate
// machines against the trace; this package provides that baseline so the
// claim can be measured (see the BenchmarkSearchVsDesigner ablation).
//
// One evaluator scores every cohort by behaviour. Each genome's minimal
// machine (fsm.Machine.Minimal: unreachable states trimmed, equivalent
// states merged, canonically renumbered) is computed once and is what
// gets keyed, compiled and walked: a minimal machine mispredicts
// exactly where its genome does, so genomes that differ only in dead or
// redundant states share one fitness. Each genome is looked up in the
// persistent fitness memo by its minimal machine's structure, cohort
// members with the same minimal machine share one evaluation, and the
// remaining distinct minimal machines are scored exactly on the full
// trace in one fleet pass, so re-emitted children, behavioural
// duplicates and repeat searches over the same trace never re-simulate.
// Breeding, the structural tie-break and the reported Best all use the
// raw genome. Options.Adaptive adds the fidelity ladder in front of
// the fleet pass: cohorts race through representative windows first,
// and only statistical survivors escalate to exact full-trace scoring.
// Estimates only ever steer selection pressure: every elite slot, and
// therefore the reported Best and BestMissRate, is re-scored at full
// fidelity before it is trusted, and only exact scores enter the memo.
package gasearch

import (
	"fmt"
	"math/rand"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
)

// The search's fixed GA settings. No caller varies them; the parent
// pool size derives from the population (poolSize).
const (
	// mutationRate is the per-gene mutation probability.
	mutationRate = 0.02
	// elite is how many top genomes survive unchanged.
	elite = 2
	// tournamentK is the tournament selection size within the parent
	// pool.
	tournamentK = 3
)

// Options configures a search run.
type Options struct {
	// States is the fixed machine size of every genome (2..64).
	States int
	// Population is the number of genomes per generation (default 64;
	// it must exceed the elite count, 2).
	Population int
	// Generations is the number of evolution steps (default 50).
	Generations int
	// Seed makes the search reproducible.
	Seed int64
	// Warmup outcomes at the head of the trace are not scored (>= 0).
	Warmup int
	// Workers bounds the goroutines the fleet evaluation pass shards
	// machine chunks over (<= 0 means GOMAXPROCS). Fleet chunks are
	// independent, so results are bit-identical for any setting.
	Workers int
	// Adaptive enables staged-fidelity candidate racing through the
	// fidelity ladder (internal/fidelity). Default off — exact mode
	// scores every genome at full fidelity and is the differential
	// oracle the racer is tested against. Both modes share the fitness
	// memo, and Best and BestMissRate are always exact full-trace values.
	Adaptive bool
}

func (o Options) withDefaults() Options {
	if o.Population <= 0 {
		o.Population = 64
	}
	if o.Generations <= 0 {
		o.Generations = 50
	}
	return o
}

func (o Options) validate() error {
	if o.States < 2 || o.States > 64 {
		return fmt.Errorf("gasearch: states %d out of range [2,64]", o.States)
	}
	if o.Population <= elite {
		return fmt.Errorf("gasearch: population %d must exceed the elite count %d", o.Population, elite)
	}
	if o.Warmup < 0 {
		return fmt.Errorf("gasearch: negative warmup %d", o.Warmup)
	}
	return nil
}

// poolSize is the parent-pool size for a population: each generation's
// children are bred by tournaments within the top-pool genomes
// (truncation selection, the successive-halving shape). Keeping
// breeding inside an exactly-scored top set is what lets the adaptive
// racer prune losers on estimates without touching the trajectory: a
// pruned candidate's fitness is only ever compared against other
// losers. P/8 parents, at least the elites and at most 8: past that,
// tournaments within the pool almost never reach the extra members,
// and every pool slot is a full-fidelity evaluation the adaptive
// ladder cannot skip.
func poolSize(population int) int {
	return min(max(population/8, elite), 8)
}

// RacingStats reports the evaluator's activity for one search. The
// ladder fields (LadderUsed, RungEvals, Pruned, Escalated) stay zero
// when Adaptive is off; MemoHits and Deduped count in both modes.
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
	// Deduped counts genomes that shared the single evaluation of a
	// cohort member with the same minimal machine.
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
	// Racing describes the evaluator's memo, dedup and ladder work.
	Racing RacingStats
}

type genome struct {
	m *fsm.Machine
	// min is m's minimal machine, computed on first evaluation: the
	// machine the memo keys on and the fleet walks.
	min  *fsm.Machine
	miss float64
	// exact reports whether miss is a full-fidelity measurement rather
	// than a ladder estimate. Exact mode always sets it.
	exact bool
}

// tractionPatience is how many consecutive low-pruning generations the
// adaptive search tolerates before abandoning the ladder for the
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
	ev := newEvaluator(trace, opt, res)

	pop := make([]*genome, opt.Population)
	for i := range pop {
		pop[i] = &genome{m: randomMachine(rng, opt.States)}
	}
	// The initial cohort races like any other: it competes only for the
	// first parent pool, so losers can keep windowed estimates, and a
	// random population's spread dwarfs the window radius — this is where
	// pruning bites hardest. ensureTopExact then settles the pool.
	if _, _, err := ev.evaluate(pop, nil, ev.ladder != nil); err != nil {
		return nil, err
	}
	sortByFitness(pop)
	if err := ev.ensureTopExact(pop, ev.pool); err != nil {
		return nil, err
	}

	lowTraction := 0
	for gen := 0; gen < opt.Generations; gen++ {
		next := make([]*genome, 0, opt.Population)
		next = append(next, pop[:elite]...)
		// Children are bred by tournaments within the exactly-scored
		// top-pool parent pool. Their fitness is first read by the NEXT
		// generation's pool selection, so the whole cohort can be
		// generated up front and scored by one fleet pass.
		pool := pop[:ev.pool]
		for len(next) < opt.Population {
			a := tournament(rng, pool)
			b := tournament(rng, pool)
			child := &genome{m: crossover(rng, a.m, b.m)}
			mutate(rng, child.m)
			next = append(next, child)
		}
		// The carried elites anchor the racing bar (they hold pool slots
		// with exact scores), and the ladder is dropped for good once
		// pruning shows no traction for a few generations.
		useLadder := ev.ladder != nil && lowTraction < tractionPatience
		anchors := make([]float64, elite)
		for i := range anchors {
			anchors[i] = pop[i].miss
		}
		raced, prunedN, err := ev.evaluate(next[elite:], anchors, useLadder)
		if err != nil {
			return nil, err
		}
		if useLadder && raced > 0 {
			if prunedN*5 < raced {
				lowTraction++
			} else {
				lowTraction = 0
			}
		}
		pop = next
		sortByFitness(pop)
		// The whole next parent pool must be exact before anything reads
		// it: racing already escalated every plausible member, so this
		// loop converges immediately unless a confidence bound was
		// violated.
		if err := ev.ensureTopExact(pop, ev.pool); err != nil {
			return nil, err
		}
		res.PerGeneration = append(res.PerGeneration, pop[0].miss)
	}
	res.Best = pop[0].m
	res.BestMissRate = pop[0].miss
	if ev.ladder != nil {
		st := ev.ladder.Stats()
		res.Racing.RungEvals = st.RungEvals
		res.Racing.Pruned = st.Pruned
		res.Racing.Escalated = st.Escalated
	}
	return res, nil
}

// evaluator is the search's one fitness evaluator, bound to one packed
// trace and the Result whose counters it keeps.
type evaluator struct {
	opt Options
	// pool is the parent-pool size the ladder races for.
	pool   int
	res    *Result
	words  []uint64
	n      int
	runs   []bitseq.Run
	digest fidelity.Key
	// ladder is nil in exact mode, and in adaptive mode when the trace
	// is too short to stage; every genome is then scored exactly
	// through the memo — same fitness values, same trajectory.
	ladder *fidelity.Ladder
}

// newEvaluator packs the trace and builds the per-search state every
// cohort shares. The trace is packed once; every generation is then
// scored in ONE fleet pass over the packed words instead of a scalar
// walk per genome. This batching is legal because fitness evaluation
// consumes no randomness: generating a whole cohort first and scoring
// it afterwards leaves the RNG stream — and therefore every machine the
// search constructs — identical to interleaved evaluation, and the
// fleet kernel itself is bit-identical to Machine.Simulate, so the
// search trajectory does not change, only its wall clock.
func newEvaluator(trace []bool, opt Options, res *Result) *evaluator {
	bits := bitseq.FromBools(trace)
	e := &evaluator{opt: opt, pool: poolSize(opt.Population), res: res, words: bits.Words(), n: bits.Len()}
	// One run scan serves every cohort of the search: the trace never
	// changes, so the span kernel's index is hoisted out of the loop.
	e.runs = bitseq.Runs(e.words, e.n, bitseq.DefaultMinRunBytes)
	e.digest = fidelity.TraceDigest(e.words, e.n)
	if opt.Adaptive {
		e.ladder = fidelity.NewLadder(e.words, e.n, e.runs, fidelity.LadderConfig{
			Warmup:  opt.Warmup,
			Workers: opt.Workers,
			Seed:    opt.Seed,
		})
		res.Racing.LadderUsed = e.ladder != nil
	}
	return e
}

// evaluate scores a cohort through the fitness memo, behavioural dedup
// (cohort members with one minimal machine — crossover copies,
// re-converged mutants, genomes differing only in unreachable or
// equivalent states — share one evaluation), and — when useLadder —
// the staged ladder, racing for the cohort's top-pool slots against the
// anchors (the carried elites' exact misses, which compete for the same
// slots). With useLadder false every distinct minimal machine scores at
// full fidelity in one fleet pass. Tables compile from the minimal
// machines, directly rather than through the shared block cache: a
// search burns through thousands of transient machines that would
// evict the serving workload's entries. It returns how many distinct
// machines were raced and how many of those were pruned, for the
// traction tracker. Only exact misses enter the memo.
func (e *evaluator) evaluate(batch []*genome, anchors []float64, useLadder bool) (raced, prunedN int, err error) {
	e.res.Evaluations += len(batch)
	type slot struct {
		key fidelity.Key
		gs  []*genome
		// memo marks a slot the fitness memo served with miss: it is
		// never walked and never enters slots.
		memo bool
		miss float64
	}
	var slots []*slot
	index := make(map[fidelity.Key]*slot, len(batch))
	// Full-capacity clamp: appends below copy rather than scribbling on
	// the caller's backing array.
	anchors = anchors[:len(anchors):len(anchors)]
	for _, g := range batch {
		if g.min == nil {
			g.min = g.m.Minimal()
		}
		k := fidelity.FitnessKey(g.min, e.digest, e.opt.Warmup)
		s, seen := index[k]
		switch {
		case seen && !s.memo:
			s.gs = append(s.gs, g)
			e.res.Racing.Deduped++
			continue
		case seen:
			e.res.Racing.Deduped++
		default:
			miss, ok := fidelity.MemoGet(k)
			if !ok {
				s = &slot{key: k, gs: []*genome{g}}
				index[k] = s
				slots = append(slots, s)
				continue
			}
			e.res.Racing.MemoHits++
			s = &slot{key: k, memo: true, miss: miss}
			index[k] = s
		}
		g.miss, g.exact = s.miss, true
		// Memo-served cohort members, twins included, have exact scores:
		// they compete for the same top-pool slots, so their values
		// anchor (tighten) the racing bar for free.
		anchors = append(anchors, s.miss)
	}
	if len(slots) == 0 {
		return 0, 0, nil
	}
	tabs := make([]*fsm.BlockTable, len(slots))
	for i, s := range slots {
		if tabs[i], err = fsm.CompileBlockTable(s.gs[0].min); err != nil {
			return 0, 0, fmt.Errorf("gasearch: genome: %v", err)
		}
	}
	if useLadder && e.ladder != nil {
		// keep = pool exactly: the racing bar is the pool-th smallest
		// UCB, which (bounds holding) upper-bounds the pool-th best true
		// value, so nothing prunable can belong in the pool. The
		// slack-inflated radii are the safety margin for the windows'
		// non-iid reality.
		vs := e.ladder.RaceTop(tabs, e.pool, anchors)
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
		return len(slots), prunedN, nil
	}
	var misses []float64
	if e.ladder != nil {
		misses = e.ladder.ScoreExact(tabs)
	} else {
		fl := fsm.FleetOfTables(tabs)
		rs := fl.RunParallelSpans(e.opt.Workers, e.words, e.n, e.opt.Warmup, e.runs)
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
	return 0, 0, nil
}

// ensureTopExact upgrades every estimate in the sorted population's top
// k slots to a full-fidelity measurement and re-sorts, repeating until
// the band is stable. This is what makes pruning a pure skip-ahead:
// estimates can rank losers among themselves, but nothing inexact can
// enter the parent pool, become an elite, a reported per-generation
// best, or the champion. It terminates because genomes only ever move
// from estimate to exact.
func (e *evaluator) ensureTopExact(pop []*genome, k int) error {
	for {
		var inexact []*genome
		for _, g := range pop[:k] {
			if !g.exact {
				inexact = append(inexact, g)
			}
		}
		if len(inexact) == 0 {
			return nil
		}
		if _, _, err := e.evaluate(inexact, nil, false); err != nil {
			return err
		}
		sortByFitness(pop)
	}
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

// mutate flips outputs and rewires transitions with the per-gene
// probability mutationRate.
func mutate(rng *rand.Rand, m *fsm.Machine) {
	n := m.NumStates()
	for s := 0; s < n; s++ {
		if rng.Float64() < mutationRate {
			m.Output[s] = !m.Output[s]
		}
		for b := 0; b < 2; b++ {
			if rng.Float64() < mutationRate {
				m.Next[s][b] = rng.Intn(n)
			}
		}
	}
}

// tournament returns the fittest of tournamentK uniform draws from pop.
func tournament(rng *rand.Rand, pop []*genome) *genome {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < tournamentK; i++ {
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
