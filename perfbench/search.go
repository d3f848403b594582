package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/gasearch"
	"fsmpredict/internal/simpoint"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// The search workload's scale: each search evolves 8-state machines,
// population 64 for 25 generations, on a program's 512k-event training
// stream, as a user's search request would. The tests shrink it.
var (
	searchEvents      = 512_000
	searchStates      = 8
	searchPopulation  = 64
	searchGenerations = 25
)

// searchStream is one program's training stream in the two forms the
// workload needs: the []bool gasearch.Search takes and the packed words
// the layer probes walk.
type searchStream struct {
	program string
	bools   []bool
	bits    *bitseq.Bits
}

// searchSeed derives the GA seed of a program's i-th search from the
// workload seed.
func searchSeed(seed int64, program string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, program, i)
	return int64(h.Sum64() >> 1)
}

// searchPair is the outcome of one (program, seed): the exact and the
// adaptive search on the same stream.
type searchPair struct {
	exact, adaptive          *gasearch.Result
	exactS, adaptiveS, pairS float64
	exactOK, adaptiveOK      bool
	identical                bool
}

// searchLayers are the layer spans of a traced search pair.
var searchLayers = []string{"fidelity.reset", "gasearch.exact", "gasearch.adaptive"}

// runSearch is the search workload: rounds over the six branch programs,
// one exact and one adaptive search per program and round, each started
// with a cold fitness memo. Every champion is re-scored with the scalar
// Machine.Simulate oracle.
func runSearch(r *run) error {
	var streams []searchStream
	setupS, err := r.setupTimes(9, func() error {
		tracestore.Shared.Clear()
		streams = streams[:0]
		for _, p := range workload.BranchSuite() {
			bits := tracestore.Shared.Branches(p, workload.Train, searchEvents).Outcomes()
			streams = append(streams, searchStream{program: p.Name, bools: bits.Bools(), bits: bits})
		}
		return nil
	})
	if err != nil {
		return err
	}

	// one runs a (program, round) pair; with a tracer it records spans
	// under a root per pair.
	pairs := 0
	one := func(s searchStream, round int, t *tracer) searchPair {
		pairs++
		req := int64(pairs)
		seed := searchSeed(r.seed, s.program, round)
		opt := gasearch.Options{States: searchStates, Population: searchPopulation, Generations: searchGenerations, Seed: seed}
		var p searchPair
		start := time.Now()
		root := t.begin(0, req, "pair")
		t.do(root, req, "fidelity.reset", fidelity.ResetMemo)
		var errE, errA error
		t0 := time.Now()
		t.do(root, req, "gasearch.exact", func() { p.exact, errE = gasearch.Search(s.bools, opt) })
		p.exactS = time.Since(t0).Seconds()
		t.do(root, req, "fidelity.reset", fidelity.ResetMemo)
		opt.Adaptive = true
		t0 = time.Now()
		t.do(root, req, "gasearch.adaptive", func() { p.adaptive, errA = gasearch.Search(s.bools, opt) })
		p.adaptiveS = time.Since(t0).Seconds()
		t.end(root)
		p.pairS = time.Since(start).Seconds()
		p.exactOK = errE == nil && oracleMiss(p.exact, s.bools)
		p.adaptiveOK = errA == nil && oracleMiss(p.adaptive, s.bools)
		r.check(p.exactOK, "search %s seed %d exact: error %v or champion miss rate disagrees with the scalar oracle", s.program, seed, errE)
		r.check(p.adaptiveOK, "search %s seed %d adaptive: error %v or champion miss rate disagrees with the scalar oracle", s.program, seed, errA)
		if p.exactOK && p.adaptiveOK {
			p.identical = fsm.Equal(p.exact.Best, p.adaptive.Best) && p.exact.BestMissRate == p.adaptive.BestMissRate
		}
		return p
	}

	untracedBudget := r.measure
	if r.traced {
		untracedBudget = r.measure / 2
	}
	var (
		exactS, adaptiveS, pairS, roundS []float64
		identical, scored                int
		bestMiss                         []float64
	)
	before := sampleRuntime()
	deadline := time.Now().Add(untracedBudget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		var rs float64
		for _, s := range streams {
			p := one(s, round, nil)
			rs += p.pairS
			pairS = append(pairS, p.pairS)
			exactS = append(exactS, p.exactS)
			adaptiveS = append(adaptiveS, p.adaptiveS)
			if p.exactOK && p.adaptiveOK {
				scored++
				if p.identical {
					identical++
				}
				bestMiss = append(bestMiss, p.exact.BestMissRate)
			}
		}
		roundS = append(roundS, rs)
		r.calibrate()
	}
	after := sampleRuntime()
	if scored == 0 {
		return errNoWork
	}
	// A request is one round: every program searched in both modes. The
	// six programs' searches differ in cost several-fold, so the median
	// of single searches falls in a gap between them; a round's does not.
	if !r.traced {
		r.setEndToEnd(setupS, scaled(roundS, 1e3))
		return nil
	}

	r.setHostLayer()
	r.set("search.exact_s", "s", median(exactS))
	r.set("search.adaptive_s", "s", median(adaptiveS))
	r.set("search.adaptive_match_ratio", "ratio", float64(identical)/float64(scored))
	r.set("search.best_miss", "ratio", mean(bestMiss))
	r.setRuntimeLayer(before, after, len(pairS))
	var (
		evals, evalSeconds, deduped, adaptiveEvals float64
		rung, pruned, escalated, memoHits, ladder  float64
		searches                                   int
	)
	tracedStart := len(r.tracer.snapshot())
	deadline = time.Now().Add(r.measure - untracedBudget)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, s := range streams {
			p := one(s, round, r.tracer)
			if !p.exactOK || !p.adaptiveOK {
				continue
			}
			searches++
			evals += float64(p.exact.Evaluations)
			evalSeconds += p.exactS
			adaptiveEvals += float64(p.adaptive.Evaluations)
			rc := p.adaptive.Racing
			deduped += float64(rc.Deduped)
			rung += float64(rc.RungEvals)
			pruned += float64(rc.Pruned)
			escalated += float64(rc.Escalated)
			memoHits += float64(rc.MemoHits)
			if rc.LadderUsed {
				ladder++
			}
		}
	}
	if searches == 0 {
		return errNoWork
	}
	spans := r.tracer.snapshot()[tracedStart:]
	r.ledger("search", spans, searches, mean(pairS), searchLayers, "s")
	n := float64(searches)
	r.set("gasearch.evals", "count", evals/n)
	r.set("gasearch.evals_per_s", "1/s", evals/evalSeconds)
	r.set("gasearch.deduped_ratio", "ratio", deduped/max(adaptiveEvals, 1))
	r.set("fidelity.rung_evals", "count", rung/n)
	r.set("fidelity.pruned_ratio", "ratio", pruned/max(rung, 1))
	r.set("fidelity.escalated_ratio", "ratio", escalated/max(rung, 1))
	r.set("fidelity.memo_hit_ratio", "ratio", memoHits/max(adaptiveEvals, 1))
	r.set("fidelity.ladder_used_ratio", "ratio", ladder/n)
	return r.searchProbes(streams)
}

// searchProbes times the inner layers gasearch.Search calls, by making
// the same calls on the same streams from here: the run-index scan, the
// simpoint window vectors the fidelity ladder clusters, one cohort's
// block-table compiles and its many-lane fleet walk. Each is the median
// over the six programs of the median of three repetitions.
func (r *run) searchProbes(streams []searchStream) error {
	var scan, vectors, compile, fleetRate []float64
	rng := rand.New(rand.NewSource(r.seed))
	for _, s := range streams {
		words, n := s.bits.Words(), s.bits.Len()
		var runs []bitseq.Run
		scan = append(scan, repeatMedian(3, func() { runs = bitseq.Runs(words, n, bitseq.DefaultMinRunBytes) }))
		var err error
		vectors = append(vectors, repeatMedian(3, func() { _, err = simpoint.OutcomeVectors(words, n, 1024) }))
		if err != nil {
			return err
		}
		cohort := make([]*fsm.Machine, searchPopulation)
		for i := range cohort {
			cohort[i] = randomMachine(rng, searchStates)
		}
		tabs := make([]*fsm.BlockTable, len(cohort))
		compile = append(compile, repeatMedian(3, func() {
			for i, m := range cohort {
				tabs[i], err = fsm.CompileBlockTable(m)
			}
		})/float64(len(cohort)))
		if err != nil {
			return err
		}
		walk := repeatMedian(3, func() { fsm.FleetOfTables(tabs).RunParallelSpans(0, words, n, 0, runs) })
		fleetRate = append(fleetRate, float64(len(tabs))*float64(n)/8/walk/1e6)
	}
	r.set("bitseq.run_scan_s", "s", median(scan))
	r.set("simpoint.vectors_s", "s", median(vectors))
	r.set("fsm.block_compile_ms", "ms", median(compile)*1e3)
	r.set("fsm.fleet_mb_per_s", "MB/s", median(fleetRate))
	return nil
}

// oracleMiss re-scores a search champion with the scalar oracle and
// reports whether its miss rate equals the one the search reported.
func oracleMiss(res *gasearch.Result, trace []bool) bool {
	if res == nil || res.Best == nil {
		return false
	}
	return res.Best.SimulateScalar(trace, 0).MissRate() == res.BestMissRate
}

// randomMachine draws a uniform random Moore machine, the shape of a
// search's initial cohort.
func randomMachine(rng *rand.Rand, n int) *fsm.Machine {
	m := &fsm.Machine{Output: make([]bool, n), Next: make([][2]int, n)}
	for s := 0; s < n; s++ {
		m.Output[s] = rng.Intn(2) == 1
		m.Next[s] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return m
}

// repeatMedian runs f reps times and returns its median wall time in
// seconds.
func repeatMedian(reps int, f func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		f()
		times[i] = time.Since(t0).Seconds()
	}
	return median(times)
}
