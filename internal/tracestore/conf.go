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

// BuildConfStreams runs the two-delta stride predictor once over the
// load trace and packs the resulting correctness bits. The segmentation
// matches the confidence harness exactly: a new segment opens when an
// entry is first touched or reallocated to a different load PC.
func BuildConfStreams(loads []trace.LoadEvent, tableLog2 int) *ConfStreams {
	sp := vpred.New(tableLog2)
	open := make([]int, sp.Size())
	for i := range open {
		open[i] = -1
	}
	owners := make([]uint64, sp.Size())
	cs := &ConfStreams{Valid: &bitseq.Bits{}, Correct: &bitseq.Bits{}}
	for _, ld := range loads {
		acc := sp.Access(ld.PC, ld.Value)
		if open[acc.Entry] < 0 || owners[acc.Entry] != ld.PC {
			cs.Segments = append(cs.Segments, ConfSegment{Valid: &bitseq.Bits{}, Correct: &bitseq.Bits{}})
			open[acc.Entry] = len(cs.Segments) - 1
			owners[acc.Entry] = ld.PC
		}
		seg := &cs.Segments[open[acc.Entry]]
		correct := acc.Valid && acc.Correct
		seg.Valid.Append(acc.Valid)
		seg.Correct.Append(correct)
		cs.Valid.Append(acc.Valid)
		cs.Correct.Append(correct)
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

// confKey addresses one simulated confidence-stream set: the load trace
// plus the value-predictor table size the streams depend on.
type confKey struct {
	Key
	TableLog2 int
}

// ConfStreams returns the packed correctness streams of (program,
// variant, n) under a 2^tableLog2-entry stride predictor, simulating
// them on first request. Concurrent requests for the same key share one
// simulation; the underlying load trace comes from (and is retained by)
// the same store.
func (s *Store) ConfStreams(p *workload.LoadProgram, v workload.Variant, n, tableLog2 int) *ConfStreams {
	key := confKey{Key: LoadKey(p.Name, v, n), TableLog2: tableLog2}
	s.mu.Lock()
	if s.confs == nil {
		s.confs = make(map[confKey]*flight[*ConfStreams])
	}
	if f, ok := s.confs[key]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		<-f.done
		return f.val
	}
	f := &flight[*ConfStreams]{done: make(chan struct{})}
	s.confs[key] = f
	disk := s.disk
	s.mu.Unlock()

	if cs, ok := s.diskLoadConf(disk, key); ok {
		// A disk hit skips not only the stride-predictor simulation but
		// the load-trace generation feeding it.
		s.tierHits.Add(1)
		f.val = cs
	} else {
		s.misses.Add(1)
		f.val = BuildConfStreams(s.Loads(p, v, n), tableLog2)
		if disk != nil {
			disk.Put(confKind, confVersion, confAddress(key), encodeConfStreams(f.val))
		}
	}
	// Four bit streams cover every load twice (global + segment view).
	s.bytes.Add(uint64(4 * f.val.Loads() / 8))
	close(f.done)
	return f.val
}

// ConfStreamsByName is ConfStreams for a benchmark looked up in the
// load suite.
func (s *Store) ConfStreamsByName(program string, v workload.Variant, n, tableLog2 int) (*ConfStreams, error) {
	p, err := workload.LoadByName(program)
	if err != nil {
		return nil, err
	}
	return s.ConfStreams(p, v, n, tableLog2), nil
}
