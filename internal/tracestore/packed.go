// Package tracestore holds the behavioural traces every experiment and
// serving request reads, in two roles:
//
//   - Packed is the struct-of-arrays trace representation: static
//     branches are interned to dense IDs, the per-event PC stream becomes
//     an []int32 of IDs, outcomes become one bit-packed global stream,
//     and each static branch carries a precomputed substream view (its
//     own outcome bitstream plus the global positions it occupied).
//     Training and evaluation read dense bitstreams and integer tables
//     instead of rescanning a 16-byte-per-event record slice.
//
//   - Store is a process-wide content-addressed cache of generated
//     traces. Synthetic workloads are deterministic functions of
//     (program, variant, event count) — the variant folds in the seed
//     jitter — so that tuple is the content address, and generation runs
//     at most once per address while the trace is resident
//     (singleflight): concurrent requesters for the same trace block on
//     the one in-flight generation instead of duplicating it. Past a
//     byte bound the least recently used traces are evicted.
//
// Packed traces and confidence streams are immutable after
// construction; readers share them freely without copying. Artifacts
// computed from a trace (Packed.Derive, ConfStreams.Derive) are memoized
// on it and share its lifetime.
package tracestore

import (
	"fmt"
	"math/bits"
	"sync"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/trace"
)

// Sub is one static branch's view of the trace: its own outcomes in
// execution order and the global event positions they occurred at. Both
// slices/streams are indexed by occurrence number, so occurrence k of
// the branch happened at global position Pos[k] with outcome
// Outcomes.At(k).
type Sub struct {
	// Outcomes is the branch's local direction stream.
	Outcomes *bitseq.Bits
	// Pos maps occurrence number to global event index, ascending.
	Pos []int32
}

// Packed is an immutable struct-of-arrays branch trace. Construct with
// Pack; all accessors are safe for concurrent use.
type Packed struct {
	ids      []int32      // per-event static-branch ID
	pcs      []uint64     // PC by ID, in first-appearance order
	outcomes *bitseq.Bits // bit i = direction of event i
	subs     []Sub        // per-ID substream views
	byPC     map[uint64]int32

	spanOnce sync.Once
	spanIdx  []bitseq.Run // homogeneous-byte run index of outcomes

	derived // artifacts computed from this trace (derive.go)
}

// Pack converts an event slice into the packed form. Static branches are
// assigned dense IDs in order of first appearance, so packing is
// deterministic: identical event slices produce identical Packed traces.
func Pack(events []trace.BranchEvent) *Packed {
	p := &Packed{
		ids:      make([]int32, len(events)),
		outcomes: &bitseq.Bits{},
		byPC:     make(map[uint64]int32),
	}
	for i, e := range events {
		id, ok := p.byPC[e.PC]
		if !ok {
			id = int32(len(p.pcs))
			p.byPC[e.PC] = id
			p.pcs = append(p.pcs, e.PC)
		}
		p.ids[i] = id
		p.outcomes.Append(e.Taken)
	}
	p.subs = make([]Sub, len(p.pcs))
	for id := range p.subs {
		p.subs[id].Outcomes = &bitseq.Bits{}
	}
	for i, id := range p.ids {
		s := &p.subs[id]
		s.Outcomes.Append(events[i].Taken)
		s.Pos = append(s.Pos, int32(i))
	}
	return p
}

// Len is the number of events.
func (p *Packed) Len() int { return len(p.ids) }

// NumStatics is the number of distinct static branches.
func (p *Packed) NumStatics() int { return len(p.pcs) }

// IDAt returns the dense static-branch ID of event i.
func (p *Packed) IDAt(i int) int32 { return p.ids[i] }

// PCAt returns the PC of event i.
func (p *Packed) PCAt(i int) uint64 { return p.pcs[p.ids[i]] }

// Taken returns the direction of event i.
func (p *Packed) Taken(i int) bool { return p.outcomes.At(i) }

// PCOf returns the PC interned as the given ID.
func (p *Packed) PCOf(id int32) uint64 { return p.pcs[id] }

// IDOf returns the dense ID of a static branch, if it occurs.
func (p *Packed) IDOf(pc uint64) (int32, bool) {
	id, ok := p.byPC[pc]
	return id, ok
}

// Outcomes returns the global direction stream (bit i = event i).
// Callers must not append to it.
func (p *Packed) Outcomes() *bitseq.Bits { return p.outcomes }

// SubOf returns the substream view of one static branch.
func (p *Packed) SubOf(id int32) Sub { return p.subs[id] }

// SpanIndex returns the homogeneous-byte run index of the global outcome
// stream (bitseq.Runs at the default granularity), computing it on first
// request. The scan is one pass over the packed words and the result is
// immutable and shared — the span kernels walk it on every replay of this
// trace. Callers must not mutate the returned slice.
func (p *Packed) SpanIndex() []bitseq.Run {
	p.spanOnce.Do(func() {
		p.spanIdx = bitseq.Runs(p.outcomes.Words(), p.outcomes.Len(), bitseq.DefaultMinRunBytes)
	})
	return p.spanIdx
}

// seedSpanIndex installs a precomputed run index (a validated disk-tier
// artifact), short-circuiting the first SpanIndex scan. Must be called
// before the trace is shared, i.e. inside the store's singleflight slot.
func (p *Packed) seedSpanIndex(runs []bitseq.Run) {
	p.spanOnce.Do(func() { p.spanIdx = runs })
}

// Events materializes the trace back into a fresh event slice — the
// compatibility bridge to the []trace.BranchEvent APIs and the
// differential oracle in tests.
func (p *Packed) Events() []trace.BranchEvent {
	events := make([]trace.BranchEvent, len(p.ids))
	for i, id := range p.ids {
		events[i] = trace.BranchEvent{PC: p.pcs[id], Taken: p.outcomes.At(i)}
	}
	return events
}

// Bytes estimates the retained size of the packed trace (the store's
// bytes metric): the ID stream, the PC table, the outcome streams and
// the position indexes.
func (p *Packed) Bytes() uint64 {
	b := uint64(4*len(p.ids)) + uint64(8*len(p.pcs)) + uint64(p.outcomes.Len()+7)/8
	for _, s := range p.subs {
		b += uint64(s.Outcomes.Len()+7)/8 + uint64(4*len(s.Pos))
	}
	return b
}

// GlobalHistory returns the order-N global history register value as it
// stood immediately before event pos: the direction of event pos-1 in
// bit 0, pos-2 in bit 1, and so on — exactly the value a
// bitseq.History of that width holds after pushing events [0, pos).
// It panics unless order is in [1,32] and pos >= order (the warm-up
// region has no defined history).
func (p *Packed) GlobalHistory(pos, order int) uint32 {
	if order < 1 || order > 32 {
		panic(fmt.Sprintf("tracestore: history order %d out of range [1,32]", order))
	}
	if pos < order {
		panic(fmt.Sprintf("tracestore: position %d precedes warm-up of order %d", pos, order))
	}
	// The packed window has event pos-order in bit 0; the history register
	// wants event pos-1 there, i.e. the window bit-reversed.
	raw := p.outcomes.Uint64At(pos-order, order)
	return uint32(bits.Reverse64(raw) >> (64 - uint(order)))
}

// GlobalModels builds, for each requested static branch, the order-N
// Markov model over the GLOBAL history — the §7.3 training input —
// reading only the branch's own substream positions plus two-word
// history windows, instead of rescanning the full trace per model. The
// models are identical to trace.GlobalMarkov on the materialized events:
// occurrences before the order-N warm-up are skipped.
func (p *Packed) GlobalModels(ids []int32, order int) []*markov.Model {
	models := make([]*markov.Model, len(ids))
	for i, id := range ids {
		m := markov.New(order)
		sub := p.subs[id]
		for k, pos := range sub.Pos {
			if int(pos) < order {
				continue
			}
			m.Observe(p.GlobalHistory(int(pos), order), sub.Outcomes.At(k))
		}
		models[i] = m
	}
	return models
}
