package tracestore

import (
	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/vpred"
	"fsmpredict/internal/workload"
)

// ConfSegment is one confidence-estimator lifetime in the §6 harness:
// the span of loads mapped to one value-predictor table entry while the
// entry belonged to one static load. Per-entry estimators (counters or
// FSM runners) are created at the segment start and see exactly this
// correctness stream, so any estimator can be evaluated by replaying
// segments — no stride-predictor re-simulation needed.
type ConfSegment struct {
	// Valid marks loads whose access produced a value prediction (tag
	// hit); only these are scored.
	Valid *bitseq.Bits
	// Correct marks loads that were validly predicted AND correct — the
	// bit estimators train on (Correct implies Valid).
	Correct *bitseq.Bits
	// Spans indexes the homogeneous byte runs of Correct (bitseq.Runs)
	// for the fsm span kernel's gated replay. Derived data: computed
	// once at build/decode time, deterministic per Correct stream.
	Spans []bitseq.Run
}

// ConfStreams is the order-independent residue of one (load trace,
// table size) stride-predictor simulation: the global per-load valid and
// correctness streams in trace order, plus the same bits re-cut into
// per-entry estimator segments. Both the counter sweep and every
// (history length, bias threshold) FSM evaluation of Figure 2 replay
// these packed bits instead of re-running the two-delta predictor.
type ConfStreams struct {
	// Segments lists estimator lifetimes in order of first load.
	Segments []ConfSegment
	// Valid and Correct are the whole-trace streams, in load order,
	// driving the global (§6.3-literal) evaluation protocol.
	Valid   *bitseq.Bits
	Correct *bitseq.Bits

	derived // artifacts computed from these streams (derive.go)
}

// Loads returns the number of load events the streams were built from.
func (c *ConfStreams) Loads() int { return c.Valid.Len() }

// Bytes estimates the retained size of the streams (the store's bytes
// metric): four bit streams cover every load twice, as the global and
// the segment view.
func (c *ConfStreams) Bytes() uint64 { return uint64(4 * c.Loads() / 8) }

// BuildConfStreams runs the two-delta stride predictor once over the
// load trace and packs the resulting correctness bits. The segmentation
// matches the confidence harness exactly: a new segment opens when an
// entry is first touched or reallocated to a different load PC.
func BuildConfStreams(loads []trace.LoadEvent, tableLog2 int) *ConfStreams {
	b := newConfBuilder(len(loads), tableLog2)
	for _, ld := range loads {
		b.add(ld.PC, ld.Value)
	}
	return b.finish()
}

// buildConf simulates the confidence streams of a value program straight
// from its emission loop, with BuildConfStreams' builder: no load trace
// is materialized.
func buildConf(prog *workload.LoadProgram, v workload.Variant, n, tableLog2 int) *ConfStreams {
	// A pass overshoots n by less than one body (at most 8 loads in the
	// suite); a longer one only regrows the global streams.
	b := newConfBuilder(n+64, tableLog2)
	prog.Emit(v, n, b.add)
	return b.finish()
}

// confBuilder feeds loads through the stride predictor and writes the
// global and per-segment valid/correct streams a word at a time.
type confBuilder struct {
	sp             *vpred.StridePredictor
	open           []int32  // segment of each table entry, -1 before first touch
	owners         []uint64 // load PC each entry's open segment belongs to
	valid, correct bitWriter
	segs           []segWriter
}

// segWriter holds one segment's streams while they are written.
type segWriter struct{ valid, correct bitWriter }

// newConfBuilder starts streams with room for about n loads.
func newConfBuilder(n, tableLog2 int) *confBuilder {
	sp := vpred.New(tableLog2)
	open := make([]int32, sp.Size())
	for i := range open {
		open[i] = -1
	}
	return &confBuilder{
		sp:      sp,
		open:    open,
		owners:  make([]uint64, sp.Size()),
		valid:   newBitWriter(n),
		correct: newBitWriter(n),
	}
}

// add runs one load through the predictor and records its bits.
func (b *confBuilder) add(pc, value uint64) {
	acc := b.sp.Access(pc, value)
	s := b.open[acc.Entry]
	if s < 0 || b.owners[acc.Entry] != pc {
		s = int32(len(b.segs))
		b.segs = append(b.segs, segWriter{})
		b.open[acc.Entry] = s
		b.owners[acc.Entry] = pc
	}
	correct := acc.Valid && acc.Correct
	seg := &b.segs[s]
	seg.valid.put(acc.Valid)
	seg.correct.put(correct)
	b.valid.put(acc.Valid)
	b.correct.put(correct)
}

// finish seals every stream and indexes the segments' spans.
func (b *confBuilder) finish() *ConfStreams {
	cs := &ConfStreams{
		Valid:    b.valid.bits(),
		Correct:  b.correct.bits(),
		Segments: make([]ConfSegment, len(b.segs)),
	}
	for i := range b.segs {
		seg := &b.segs[i]
		cs.Segments[i] = ConfSegment{Valid: seg.valid.bits(), Correct: seg.correct.bits()}
	}
	cs.indexSpans()
	return cs
}

// indexSpans (re)derives every segment's run index from its correctness
// stream — after building, after decoding from the disk tier, and after
// any other construction path, so the two are always consistent.
func (c *ConfStreams) indexSpans() {
	for i := range c.Segments {
		seg := &c.Segments[i]
		seg.Spans = bitseq.Runs(seg.Correct.Words(), seg.Correct.Len(), bitseq.DefaultMinRunBytes)
	}
}

// confKey is the store's cache key: a trace key plus, for load traces,
// the value-predictor table size the confidence streams depend on (0
// for branch traces).
type confKey struct {
	Key
	TableLog2 int
}

// ConfStreams returns the packed correctness streams of (program,
// variant, n) under a 2^tableLog2-entry stride predictor, simulating
// them unless they are resident. Concurrent requests for the same key
// share one simulation. The load trace feeding it is generated inside
// the same slot and dropped once the streams are built.
func (s *Store) ConfStreams(p *workload.LoadProgram, v workload.Variant, n, tableLog2 int) *ConfStreams {
	key := confKey{Key: LoadKey(p.Name, v, n), TableLog2: tableLog2}
	return s.c.Do(key, nil, func() sized {
		return buildConf(p, v, n, tableLog2)
	}).(*ConfStreams)
}
