package tracestore

import (
	"unsafe"

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
	// Correct marks loads that were predicted AND correct — the bit
	// estimators train on. Bit 0 is the load that allocated the entry:
	// it made no prediction, so it is always 0 and is never scored;
	// every later load of the segment hits the entry and is scored.
	Correct *bitseq.Bits
	// Spans indexes the homogeneous byte runs of Correct (bitseq.Runs)
	// for the fsm span kernel's gated replay. Derived data: computed
	// once at build/decode time, deterministic per Correct stream.
	Spans []bitseq.Run
}

// ConfStreams is the order-independent residue of one (load trace,
// table size) stride-predictor simulation: the per-load correctness
// bits cut into per-entry estimator segments. Both the counter sweep
// and every (history length, bias threshold) FSM evaluation of Figure 2
// replay these packed bits instead of re-running the two-delta
// predictor.
type ConfStreams struct {
	// Segments lists estimator lifetimes in order of first load; their
	// lengths sum to Loads().
	Segments []ConfSegment
	loads    int

	derived // artifacts computed from these streams (derive.go)
}

// Loads returns the number of load events the streams were built from.
func (c *ConfStreams) Loads() int { return c.loads }

// Bytes reports the resident size of the streams (the store's bytes
// metric): each segment's slot, its stream header, its word array and
// its span index, at the capacities they were allocated with.
// A table small enough to thrash opens a segment per load, so the
// per-segment headers can outweigh the bits themselves.
func (c *ConfStreams) Bytes() uint64 {
	const (
		segSize  = uint64(unsafe.Sizeof(ConfSegment{}))
		bitsSize = uint64(unsafe.Sizeof(bitseq.Bits{}))
		runSize  = uint64(unsafe.Sizeof(bitseq.Run{}))
	)
	b := uint64(cap(c.Segments)) * segSize
	for _, seg := range c.Segments {
		b += bitsSize + 8*uint64(cap(seg.Correct.Words())) + runSize*uint64(cap(seg.Spans))
	}
	return b
}

// BuildConfStreams runs the two-delta stride predictor once over the
// load trace and packs the resulting correctness bits. The segmentation
// matches the confidence harness exactly: a new segment opens when an
// entry is first touched or reallocated to a different load PC.
func BuildConfStreams(loads []trace.LoadEvent, tableLog2 int) *ConfStreams {
	b := newConfBuilder(tableLog2)
	for _, ld := range loads {
		b.add(ld.PC, ld.Value)
	}
	return b.finish()
}

// buildConf simulates the confidence streams of a value program straight
// from its emission loop, with BuildConfStreams' builder: no load trace
// is materialized.
func buildConf(prog *workload.LoadProgram, v workload.Variant, n, tableLog2 int) *ConfStreams {
	b := newConfBuilder(tableLog2)
	prog.Emit(v, n, b.add)
	return b.finish()
}

// confBuilder feeds loads through the stride predictor and writes each
// segment's correctness stream a word at a time.
type confBuilder struct {
	sp     *vpred.StridePredictor
	open   []int32  // segment of each table entry, -1 before first touch
	owners []uint64 // load PC each entry's open segment belongs to
	segs   []bitWriter
	loads  int
}

// newConfBuilder starts an empty build for a 2^tableLog2-entry table.
func newConfBuilder(tableLog2 int) *confBuilder {
	sp := vpred.New(tableLog2)
	open := make([]int32, sp.Size())
	for i := range open {
		open[i] = -1
	}
	return &confBuilder{sp: sp, open: open, owners: make([]uint64, sp.Size())}
}

// add runs one load through the predictor and records its bits.
func (b *confBuilder) add(pc, value uint64) {
	acc := b.sp.Access(pc, value)
	s := b.open[acc.Entry]
	if s < 0 || b.owners[acc.Entry] != pc {
		s = int32(len(b.segs))
		b.segs = append(b.segs, bitWriter{})
		b.open[acc.Entry] = s
		b.owners[acc.Entry] = pc
	}
	b.segs[s].put(acc.Correct)
	b.loads++
}

// finish seals every stream and indexes the segments' spans.
func (b *confBuilder) finish() *ConfStreams {
	cs := &ConfStreams{Segments: make([]ConfSegment, len(b.segs)), loads: b.loads}
	for i := range b.segs {
		cs.Segments[i] = ConfSegment{Correct: b.segs[i].bits()}
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
