package service

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fsmpredict/internal/batch"
	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/core"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/trace"
)

// This file is the coalescing batch plane that sits in front of the
// worker pool: concurrent batched requests are grouped by trace-store
// key (internal/batch) so each flush runs ONE kernel pass for the
// whole group instead of one per request.
//
//   - Design flushes dedupe identical content addresses: N concurrent
//     requests for the same (trace, options) become one pipeline
//     submission, and distinct requests fan out to the worker pool
//     together. The pool's bounded queue still applies — a flush that
//     outruns it sheds the overflowing items with ErrOverloaded.
//   - Simulate flushes run every grouped machine over the shared trace
//     in one fsm.Fleet pass: the group's block tables are packed into
//     one contiguous fleet, structurally identical machines dedup to a
//     single walk, and the whole group advances through one trace read
//     (machines over the block-table bound included).
//
// The plane drains before the worker pool on Close: every batched
// request accepted before shutdown still flushes and completes.

// designItem is one queued batched design request.
type designItem struct {
	trace *bitseq.Bits
	opt   core.Options
	key   cacheKey // content address, the intra-flush dedup key
}

// designOut pairs a design result with its cache disposition.
type designOut struct {
	res *Result
	hit bool
}

// simItem is one queued batched simulate request. All items of a group
// carry content-identical traces (the group key hashes the trace), so
// a flush replays any one of them.
type simItem struct {
	m     *fsm.Machine
	trace *bitseq.Bits
	skip  int
}

// batchPlane owns the two batchers and their metric handles.
type batchPlane struct {
	design *batch.Batcher[string, designItem, designOut]
	sim    *batch.Batcher[string, simItem, fsm.SimResult]

	designCoalesced *Counter // design items folded into another item's run
	designPasses    *Counter // unique pipeline submissions from flushes
	simPasses       *Counter // simulation kernel passes from flushes

	fleetPasses   *Counter // fleet passes run by simulate flushes
	fleetMachines *Counter // machines scored across those passes
	fleetDeduped  *Counter // machines served by a structural twin's walk
	fleetBytes    *Counter // trace bytes simulated, summed per machine
}

// newBatchPlane wires the batchers and registers the batch metrics.
func newBatchPlane(s *Service, maxBatch int, maxWait time.Duration) *batchPlane {
	p := &batchPlane{
		designCoalesced: s.registry.Counter("fsmpredict_batch_design_coalesced_total"),
		designPasses:    s.registry.Counter("fsmpredict_batch_design_passes_total"),
		simPasses:       s.registry.Counter("fsmpredict_batch_simulate_passes_total"),
		fleetPasses:     s.registry.Counter("fsmpredict_fleet_passes_total"),
		fleetMachines:   s.registry.Counter("fsmpredict_fleet_machines_total"),
		fleetDeduped:    s.registry.Counter("fsmpredict_fleet_deduped_total"),
		fleetBytes:      s.registry.Counter("fsmpredict_fleet_simulated_bytes_total"),
	}
	cfg := func(kind string) batch.Config {
		size := s.registry.SizeHistogram("fsmpredict_batch_" + kind + "_flush_size")
		lat := s.registry.Histogram("fsmpredict_batch_" + kind + "_flush_seconds")
		return batch.Config{
			MaxBatch: maxBatch,
			MaxWait:  maxWait,
			OnFlush: func(n int, elapsed time.Duration) {
				size.Observe(uint64(n))
				lat.Observe(elapsed)
			},
		}
	}
	p.design = batch.New(cfg("design"), s.flushDesigns)
	p.sim = batch.New(cfg("simulate"), s.flushSimulations)

	expose := func(kind string, st func() batch.Stats, passes *Counter) {
		s.registry.Gauge("fsmpredict_batch_"+kind+"_queue_depth", func() uint64 { return uint64(st().Pending) })
		s.registry.Gauge("fsmpredict_batch_"+kind+"_items_total", func() uint64 { return st().Submitted })
		s.registry.Gauge("fsmpredict_batch_"+kind+"_flushes_total", func() uint64 { return st().Flushes })
		// Coalesce ratio — flushed items per kernel pass, fixed-point
		// ×1000 (the registry is integer-valued). 1000 means no
		// coalescing; 2000 means every pass served two requests.
		s.registry.Gauge("fsmpredict_batch_"+kind+"_coalesce_ratio_milli", func() uint64 {
			p := passes.Value()
			if p == 0 {
				return 0
			}
			return 1000 * st().Flushed / p
		})
	}
	expose("design", p.design.Stats, p.designPasses)
	expose("simulate", p.sim.Stats, p.simPasses)
	return p
}

// close drains both batchers: pending groups flush, in-flight flushes
// complete, and every accepted item receives its outcome.
func (p *batchPlane) close() {
	p.design.Close()
	p.sim.Close()
}

// GroupKeyForTrace derives the coalescing group key of an inline trace:
// the SHA-256 of its canonical bytes, so content-identical traces from
// different connections land in the same group. Stored-trace references
// use their trace-store key instead (see TraceRef.GroupKey).
func GroupKeyForTrace(bits *bitseq.Bits) string {
	sum := sha256.Sum256(trace.CanonicalBits(bits))
	return "sha256:" + fmt.Sprintf("%x", sum[:16])
}

// DesignBatch is Design through the coalescing batch plane: the request
// joins the group named by groupKey (requests over the same stored
// trace share one), waits at most the configured flush deadline, and is
// executed in one grouped flush — identical concurrent requests
// collapse into a single pipeline run. An empty groupKey derives one
// from the trace content. The returned boolean reports whether the
// result came from the design cache.
func (s *Service) DesignBatch(ctx context.Context, traceBits *bitseq.Bits, opt core.Options, groupKey string) (*Result, bool, error) {
	if err := validateDesign(traceBits, opt); err != nil {
		return nil, false, err
	}
	if groupKey == "" {
		groupKey = GroupKeyForTrace(traceBits)
	}
	it := designItem{trace: traceBits, opt: opt, key: requestKey(traceBits, opt)}
	out, err := s.batch.design.Submit(ctx, groupKey, it)
	if err != nil {
		if err == batch.ErrClosed {
			err = ErrClosed
		}
		return nil, false, err
	}
	return out.res, out.hit, nil
}

// SimulateBatch is Simulate through the coalescing batch plane:
// requests grouped on the same (trace, skip) replay in one
// multi-machine kernel pass. An empty groupKey derives one from the
// trace content.
func (s *Service) SimulateBatch(ctx context.Context, m *fsm.Machine, traceBits *bitseq.Bits, skip int, groupKey string) (fsm.SimResult, error) {
	if err := validateSimulate(m, traceBits, skip); err != nil {
		return fsm.SimResult{}, err
	}
	if groupKey == "" {
		groupKey = GroupKeyForTrace(traceBits)
	}
	// skip changes what a pass scores, so it is part of the group key.
	key := groupKey + "|skip=" + strconv.Itoa(skip)
	res, err := s.batch.sim.Submit(ctx, key, simItem{m: m, trace: traceBits, skip: skip})
	if err == batch.ErrClosed {
		err = ErrClosed
	}
	return res, err
}

// BatchStats snapshots the two batchers' counters (design, simulate) —
// the programmatic view of the fsmpredict_batch_* metrics.
func (s *Service) BatchStats() (design, simulate batch.Stats) {
	return s.batch.design.Stats(), s.batch.sim.Stats()
}

// flushDesigns executes one coalesced design group: items are deduped
// by content address, each unique request is submitted to the worker
// pool once, and duplicates share that submission's outcome.
func (s *Service) flushDesigns(groupKey string, items []designItem) []batch.Outcome[designOut] {
	outs := make([]batch.Outcome[designOut], len(items))
	order := make([]cacheKey, 0, len(items))
	dups := make(map[cacheKey][]int, len(items))
	for i, it := range items {
		if _, ok := dups[it.key]; !ok {
			order = append(order, it.key)
		}
		dups[it.key] = append(dups[it.key], i)
	}
	s.batch.designCoalesced.Add(uint64(len(items) - len(order)))
	s.batch.designPasses.Add(uint64(len(order)))

	// Unique requests fan out concurrently; the worker pool, not the
	// flush, bounds actual pipeline parallelism (and sheds overload).
	// The background context matches Design's semantics: a departed
	// waiter does not cancel the shared execution.
	var wg sync.WaitGroup
	for _, k := range order {
		idxs := dups[k]
		wg.Add(1)
		go func(idxs []int) {
			defer wg.Done()
			it := items[idxs[0]]
			res, hit, err := s.Design(context.Background(), it.trace, it.opt)
			for _, i := range idxs {
				outs[i] = batch.Outcome[designOut]{Val: designOut{res: res, hit: hit}, Err: err}
			}
		}(idxs)
	}
	wg.Wait()
	return outs
}

// flushSimulations executes one coalesced simulate group: every grouped
// machine advances through ONE fleet pass over the group's trace, with
// structurally identical machines deduped to a single walk (machines
// over the block-table state bound ride along on their scalar walks).
func (s *Service) flushSimulations(key string, items []simItem) []batch.Outcome[fsm.SimResult] {
	outs := make([]batch.Outcome[fsm.SimResult], len(items))
	tr, skip := items[0].trace, items[0].skip
	machines := make([]*fsm.Machine, len(items))
	for i, it := range items {
		s.met.simulations.Inc()
		machines[i] = it.m
	}
	fl, err := fsm.NewFleet(machines)
	if err != nil {
		for i := range outs {
			outs[i].Err = err
		}
		return outs
	}
	// One run scan per flush, amortized over every machine in the group
	// — the span kernel then skips each homogeneous stretch once per
	// unique machine instead of walking it byte by byte.
	runs := bitseq.Runs(tr.Words(), tr.Len(), bitseq.DefaultMinRunBytes)
	for i, r := range fl.RunParallelSpans(1, tr.Words(), tr.Len(), skip, runs) {
		outs[i].Val = r
	}
	s.batch.simPasses.Inc()
	s.batch.fleetPasses.Inc()
	s.batch.fleetMachines.Add(uint64(fl.Len()))
	s.batch.fleetDeduped.Add(uint64(fl.Deduped()))
	s.batch.fleetBytes.Add(uint64(fl.Len()) * uint64((tr.Len()+7)/8))
	return outs
}
