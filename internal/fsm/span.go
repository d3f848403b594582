package fsm

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the run-length span kernel, the content-aware rung above
// the byte-blocked superstep: the block kernel pays one table lookup
// per 8 events regardless of what the events are, but a machine's
// response to a HOMOGENEOUS byte (0x00 or 0xFF) is one of only two
// transition functions, and transition functions compose. A SpanTable
// closes those two functions over themselves by doubling — power tables
// tab^(2^j) mapping state → (exit state, misprediction count) for 2^j
// consecutive homogeneous bytes — so a k-byte run advances in
// popcount(k) ≤ log2(k)+1 lookups with exact per-state miss
// accumulation, instead of k byte lookups. The engine's walkers
// (walk.go) take a precomputed run index (bitseq.Runs) and use the byte
// loop on mixed stretches; runs stay bit-identical to the byte loop by
// construction — same event sequence, tables composed from the same
// 2-symbol step function.

// SpanKernelStats is a snapshot of the process-wide span-kernel
// counters — the source of the fsmpredict_span_* metrics.
type SpanKernelStats struct {
	// Runs counts homogeneous runs advanced through the power tables.
	Runs uint64
	// SkippedEvents counts events those runs covered (each one scored
	// exactly, but without a per-byte table lookup).
	SkippedEvents uint64
	// TableBytes is the memory retained by all built power-table
	// levels.
	TableBytes uint64
}

var (
	spanRunsTotal    atomic.Uint64
	spanSkippedTotal atomic.Uint64
	spanTableBytes   atomic.Uint64
)

// SpanStats snapshots the span-kernel counters.
func SpanStats() SpanKernelStats {
	return SpanKernelStats{
		Runs:          spanRunsTotal.Load(),
		SkippedEvents: spanSkippedTotal.Load(),
		TableBytes:    spanTableBytes.Load(),
	}
}

// spanTally accumulates span counters locally during one kernel call
// and publishes them in a single atomic round, keeping the hot loops
// free of shared-cacheline traffic.
type spanTally struct {
	runs    int
	skipped int
}

func (t *spanTally) flush() {
	if t.runs > 0 {
		spanRunsTotal.Add(uint64(t.runs))
		spanSkippedTotal.Add(uint64(t.skipped))
	}
}

// spanEntry is one power-table cell: the state reached after a block of
// homogeneous bytes and the mispredictions accumulated on the way. The
// count is 32-bit because a 2^j-byte block can miss up to 2^(j+3)
// times.
type spanEntry struct {
	next uint8
	miss uint32
}

// spanEntryBytes is spanEntry's aligned in-memory size, the unit of the
// TableBytes accounting.
const spanEntryBytes = 8

// SpanTable holds the lazily built power tables of one machine over
// homogeneous bytes. Level j, when built, maps (byte value, entry
// state) to the response to 2^j consecutive 0x00 or 0xFF bytes. The
// shell is cheap (two slice headers); levels grow on demand under a
// mutex and are published through an atomic pointer, so concurrent
// walks never lock once the levels they need exist. Safe for
// concurrent use.
type SpanTable struct {
	n    int
	step []uint8 // 2-symbol step, machine-local: step[s<<1|b]
	out  []uint8 // out[s]: state s's prediction bit

	mu     sync.Mutex
	levels atomic.Pointer[[][]spanEntry] // levels[j][b*n+s]
}

// newSpanTable wraps a machine's 2-symbol tables (BlockTable layout)
// without building any levels.
func newSpanTable(step, out []uint8) *SpanTable {
	return &SpanTable{n: len(out), step: step, out: out}
}

// ensure returns the level slice with levels 0..lv present, building
// the missing ones. Level 0 replays eight scalar steps per (byte value,
// state); level j composes level j-1 with itself — exit states chain,
// miss counts add — so every level is exact by induction.
func (st *SpanTable) ensure(lv int) [][]spanEntry {
	if p := st.levels.Load(); p != nil && len(*p) > lv {
		return *p
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var cur [][]spanEntry
	if p := st.levels.Load(); p != nil {
		cur = *p
		if len(cur) > lv {
			return cur
		}
	}
	n := st.n
	grown := append(make([][]spanEntry, 0, lv+1), cur...)
	for j := len(grown); j <= lv; j++ {
		l := make([]spanEntry, 2*n)
		if j == 0 {
			for b := 0; b < 2; b++ {
				for s := 0; s < n; s++ {
					e := spanEntry{next: uint8(s)}
					for k := 0; k < 8; k++ {
						if int(st.out[e.next]) != b {
							e.miss++
						}
						e.next = st.step[int(e.next)<<1|b]
					}
					l[b*n+s] = e
				}
			}
		} else {
			prev := grown[j-1]
			for b := 0; b < 2; b++ {
				for s := 0; s < n; s++ {
					e1 := prev[b*n+s]
					e2 := prev[b*n+int(e1.next)]
					l[b*n+s] = spanEntry{next: e2.next, miss: e1.miss + e2.miss}
				}
			}
		}
		grown = append(grown, l)
		spanTableBytes.Add(uint64(2*n) * spanEntryBytes)
	}
	st.levels.Store(&grown)
	return grown
}

// walk advances state s through k consecutive homogeneous bytes of bit
// value b (0 or 1), returning the exit state and the exact
// misprediction count over the 8k events — the binary decomposition of
// k through the power tables. Powers of one function commute, so the
// ascending-level order is exact.
func (st *SpanTable) walk(s uint8, k, b int) (uint8, int) {
	lv := st.ensure(bits.Len(uint(k)) - 1)
	base := b * st.n
	miss := 0
	for j := 0; k != 0; j++ {
		if k&1 != 0 {
			e := lv[j][base+int(s)]
			miss += int(e.miss)
			s = e.next
		}
		k >>= 1
	}
	return s, miss
}
