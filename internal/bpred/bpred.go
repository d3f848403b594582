// Package bpred implements the branch prediction architectures compared
// in §7.5 of the paper:
//
//   - XScale: a 128-entry coupled BTB whose entries carry 2-bit
//     saturating counters, predicting not-taken on a BTB miss (§7.2).
//   - gshare: McFarling's global-history predictor over a range of table
//     sizes.
//   - LGC: a local/global chooser in the style of the Alpha 21264 — a
//     two-level local predictor, a global predictor, and a meta chooser.
//   - Custom: the paper's customized architecture (Figure 3) — the
//     XScale baseline extended with a bank of per-branch custom FSM
//     predictors behind a fully associative tag match, all of which are
//     updated on every branch (§7.3).
//
// Every predictor reports its estimated area in gate equivalents so the
// area/miss-rate curves of Figure 5 can be regenerated.
package bpred

import (
	"fmt"

	"fsmpredict/internal/fsm"
	"fsmpredict/internal/trace"
)

// Area cost constants in gate equivalents (GE). SRAM bits are cheap and
// regular; CAM (fully associative tag) bits cost roughly double.
const (
	SRAMBit = 0.6
	CAMBit  = 1.2

	// btbEntries and the per-entry field widths model the XScale branch
	// target buffer (§7.2): tag, target, 2-bit counter.
	btbEntries    = 128
	btbTagBits    = 30
	btbTargetBits = 32
)

// Predictor is a dynamic conditional branch direction predictor.
type Predictor interface {
	// Name identifies the configuration (for reports).
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint64, taken bool)
	// Area estimates the implementation cost in gate equivalents,
	// including the BTB where the architecture has one.
	Area() float64
}

// Result summarizes running a predictor over a trace.
type Result struct {
	Total  int
	Misses int
}

// MissRate returns the misprediction rate.
func (r Result) MissRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Total)
}

// Run drives the predictor over the event stream, counting mispredictions.
func Run(p Predictor, events []trace.BranchEvent) Result {
	var r Result
	for _, e := range events {
		r.Total++
		if p.Predict(e.PC) != e.Taken {
			r.Misses++
		}
		p.Update(e.PC, e.Taken)
	}
	return r
}

// BTBArea is the gate-equivalent cost of the shared 128-entry BTB.
func BTBArea() float64 {
	return btbEntries * (btbTagBits + btbTargetBits + 2) * SRAMBit
}

// --- XScale ---

type btbEntry struct {
	valid   bool
	tag     uint64
	counter int // 2-bit saturating
}

// XScale is the baseline embedded predictor: BTB-coupled 2-bit counters,
// not-taken on a BTB miss.
type XScale struct {
	entries [btbEntries]btbEntry
}

// NewXScale returns an empty XScale predictor.
func NewXScale() *XScale { return &XScale{} }

// Name identifies the predictor.
func (x *XScale) Name() string { return "xscale" }

func btbIndex(pc uint64) int { return int(pc>>2) % btbEntries }

// Predict returns taken if the BTB hits and the counter is at least 2.
func (x *XScale) Predict(pc uint64) bool {
	e := &x.entries[btbIndex(pc)]
	return e.valid && e.tag == pc && e.counter >= 2
}

// Update trains the matching entry, allocating on a taken branch as
// classic coupled BTBs do.
func (x *XScale) Update(pc uint64, taken bool) {
	e := &x.entries[btbIndex(pc)]
	if e.valid && e.tag == pc {
		if taken {
			if e.counter < 3 {
				e.counter++
			}
		} else if e.counter > 0 {
			e.counter--
		}
		return
	}
	if taken {
		*e = btbEntry{valid: true, tag: pc, counter: 2}
	}
}

// Area reports the BTB cost (counters are part of the BTB entries).
func (x *XScale) Area() float64 { return BTBArea() }

// --- gshare ---

// Gshare is McFarling's global-history predictor: a 2^bits table of
// 2-bit counters indexed by PC XOR the global history register.
type Gshare struct {
	bits  int
	mask  uint32
	ghr   uint32
	table []int8
}

// NewGshare returns a gshare predictor with 2^bits counters and a
// bits-wide global history register.
func NewGshare(bits int) *Gshare {
	if bits < 1 || bits > 24 {
		panic(fmt.Sprintf("bpred: gshare bits %d out of range [1,24]", bits))
	}
	g := &Gshare{bits: bits, mask: uint32(1)<<uint(bits) - 1}
	g.table = make([]int8, 1<<uint(bits))
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	return g
}

// Name identifies the configuration.
func (g *Gshare) Name() string { return fmt.Sprintf("gshare-%d", g.bits) }

func (g *Gshare) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ g.ghr) & g.mask
}

// Predict consults the indexed counter.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update trains the counter and shifts the global history.
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else if g.table[i] > 0 {
		g.table[i]--
	}
	g.ghr = g.ghr << 1 & g.mask
	if taken {
		g.ghr |= 1
	}
}

// sweep runs the predictor over one block of events — xs[e] the PC word
// index (pc >> 2), ts[e] the outcome bit — exactly as Predict then
// Update per event would, and returns the block's misses. The history
// register lives in a local for the block and is written back.
func (g *Gshare) sweep(xs []uint32, ts []uint8) (misses int) {
	ghr, mask, table := g.ghr, g.mask, g.table
	ts = ts[:len(xs)]
	for e, x := range xs {
		t := ts[e]
		i := (x ^ ghr) & mask
		c := table[i]
		misses += int(uint8(c)>>1 ^ t)
		table[i] = counterStep[counterIndex(c, 1, t)]
		ghr = (ghr<<1 | uint32(t)) & mask
	}
	g.ghr = ghr
	return misses
}

// counterStep is the 2-bit saturating counter as a lookup table, indexed
// by counterIndex: a disabled step keeps the counter, an enabled one
// moves it one step toward up, saturating at 0 and 3.
var counterStep = [16]int8{
	0, 1, 2, 3, 0, 1, 2, 3, // disabled
	0, 0, 1, 2, 1, 2, 3, 3, // enabled: down, then up
}

// counterIndex packs a counter (0..3), an enable bit and a direction bit
// into a counterStep index; the mask proves the index in range.
func counterIndex(c int8, enable, up uint8) uint8 {
	return (enable<<3 | up<<2 | uint8(c)) & 15
}

// Area is the counter table plus the shared BTB.
func (g *Gshare) Area() float64 {
	return BTBArea() + float64(uint64(2)<<uint(g.bits))*SRAMBit
}

// --- LGC (local/global chooser) ---

// LGC is a 21264-style hybrid: a two-level local predictor (per-branch
// history into a pattern table), a global predictor, and a chooser that
// learns which component to trust per global history.
type LGC struct {
	bits      int // log2 size of the global, chooser and local-history tables
	histBits  int // local history length
	ghr       uint32
	mask      uint32
	localHist []uint32
	localPHT  []int8
	globalPHT []int8
	chooser   []int8
}

// NewLGC returns an LGC predictor; bits sizes the tables (2^bits entries
// each) and the local history length is min(bits, 12).
func NewLGC(bits int) *LGC {
	if bits < 2 || bits > 22 {
		panic(fmt.Sprintf("bpred: lgc bits %d out of range [2,22]", bits))
	}
	h := bits
	if h > 12 {
		h = 12
	}
	l := &LGC{
		bits:      bits,
		histBits:  h,
		mask:      uint32(1)<<uint(bits) - 1,
		localHist: make([]uint32, 1<<uint(bits)),
		localPHT:  make([]int8, 1<<uint(h)),
		globalPHT: make([]int8, 1<<uint(bits)),
		chooser:   make([]int8, 1<<uint(bits)),
	}
	for i := range l.localPHT {
		l.localPHT[i] = 1
	}
	for i := range l.globalPHT {
		l.globalPHT[i] = 1
	}
	for i := range l.chooser {
		l.chooser[i] = 2 // weakly prefer global, as the 21264 does
	}
	return l
}

// Name identifies the configuration.
func (l *LGC) Name() string { return fmt.Sprintf("lgc-%d", l.bits) }

func (l *LGC) localIndex(pc uint64) uint32 { return uint32(pc>>2) & l.mask }

func (l *LGC) components(pc uint64) (localTaken, globalTaken, useGlobal bool, li, gi, ci uint32) {
	li = l.localHist[l.localIndex(pc)] & (uint32(1)<<uint(l.histBits) - 1)
	gi = l.ghr & l.mask
	ci = l.ghr & l.mask
	localTaken = l.localPHT[li] >= 2
	globalTaken = l.globalPHT[gi] >= 2
	useGlobal = l.chooser[ci] >= 2
	return
}

// Predict combines the local and global components through the chooser.
func (l *LGC) Predict(pc uint64) bool {
	localTaken, globalTaken, useGlobal, _, _, _ := l.components(pc)
	if useGlobal {
		return globalTaken
	}
	return localTaken
}

// Update trains both components, the chooser (only when they disagree),
// the local history, and the global history register.
func (l *LGC) Update(pc uint64, taken bool) {
	localTaken, globalTaken, _, li, gi, ci := l.components(pc)

	bump := func(t []int8, i uint32, up bool) {
		if up {
			if t[i] < 3 {
				t[i]++
			}
		} else if t[i] > 0 {
			t[i]--
		}
	}
	bump(l.localPHT, li, taken)
	bump(l.globalPHT, gi, taken)
	if localTaken != globalTaken {
		bump(l.chooser, ci, globalTaken == taken)
	}

	lh := &l.localHist[l.localIndex(pc)]
	*lh = *lh << 1 & (uint32(1)<<uint(l.histBits) - 1)
	if taken {
		*lh |= 1
	}
	l.ghr = l.ghr << 1 & l.mask
	if taken {
		l.ghr |= 1
	}
}

// sweep runs the predictor over one block of events exactly as Predict
// then Update per event would (see Gshare.sweep), branch-free: the
// chooser selects a component by bit arithmetic and trains through a
// disabled counter step when the components agree.
func (l *LGC) sweep(xs []uint32, ts []uint8) (misses int) {
	ghr, mask := l.ghr, l.mask
	hmask := uint32(1)<<uint(l.histBits) - 1
	localHist, localPHT, globalPHT, chooser := l.localHist, l.localPHT, l.globalPHT, l.chooser
	ts = ts[:len(xs)]
	for e, x := range xs {
		t := ts[e]
		lh := &localHist[x&mask]
		li, gi := *lh&hmask, ghr&mask
		lc, gc, cc := localPHT[li], globalPHT[gi], chooser[gi]
		lt, gt := uint8(lc)>>1, uint8(gc)>>1
		pred := lt ^ (lt^gt)&(uint8(cc)>>1)
		misses += int(pred ^ t)
		localPHT[li] = counterStep[counterIndex(lc, 1, t)]
		globalPHT[gi] = counterStep[counterIndex(gc, 1, t)]
		chooser[gi] = counterStep[counterIndex(cc, lt^gt, gt^t^1)]
		*lh = (*lh<<1 | uint32(t)) & hmask
		ghr = (ghr<<1 | uint32(t)) & mask
	}
	l.ghr = ghr
	return misses
}

// Area sums the local history table, both pattern tables, the chooser and
// the shared BTB.
func (l *LGC) Area() float64 {
	bitsTotal := float64(uint64(1)<<uint(l.bits))*float64(l.histBits) + // local histories
		float64(uint64(2)<<uint(l.histBits)) + // local PHT
		float64(uint64(2)<<uint(l.bits)) + // global PHT
		float64(uint64(2)<<uint(l.bits)) // chooser
	return BTBArea() + bitsTotal*SRAMBit
}

// --- customized architecture ---

// CustomEntry is one hard-wired predictor slot: a branch address tag and
// a custom FSM (Figure 3). Entries carry no mutable simulation state, so
// one trained entry set can back many Custom instances simulating
// concurrently (the Figure 5 area sweep fans out one instance per point).
type CustomEntry struct {
	Tag     uint64
	Machine *fsm.Machine
}

// Custom is the paper's customized branch architecture: the XScale
// baseline plus a fully associative bank of per-branch FSM predictors.
// All custom FSMs advance on every branch outcome (§7.3), relying on the
// machines' synchronization property (§7.6).
type Custom struct {
	base    *XScale
	entries []*CustomEntry
	// runners[i] is this instance's execution state for entries[i].
	runners []*fsm.Runner
	byTag   map[uint64]int // entry tag -> slot index
	// FSMArea estimates a machine's area from its state count; Figure 5
	// uses the linear model fitted in Figure 4. The default charges
	// nothing, so callers supply the fitted model for area studies.
	FSMArea func(states int) float64
	// UpdateMatchedOnly disables the paper's update-all policy (§7.3):
	// each custom FSM then advances only on its own branch's outcomes.
	// This exists as an ablation — it breaks the global-history semantics
	// the machines were designed for and performs measurably worse on
	// globally correlated workloads.
	UpdateMatchedOnly bool
}

// NewCustom assembles the architecture from per-branch machines.
func NewCustom(entries []*CustomEntry) *Custom {
	c := &Custom{
		base:    NewXScale(),
		entries: append([]*CustomEntry(nil), entries...),
		runners: make([]*fsm.Runner, len(entries)),
		byTag:   make(map[uint64]int, len(entries)),
	}
	for i, e := range c.entries {
		c.runners[i] = e.Machine.NewRunner()
		c.byTag[e.Tag] = i
	}
	return c
}

// Name identifies the configuration.
func (c *Custom) Name() string { return fmt.Sprintf("custom-%d", len(c.entries)) }

// Predict uses the custom FSM on a tag match, otherwise the XScale base.
func (c *Custom) Predict(pc uint64) bool {
	if i, ok := c.byTag[pc]; ok {
		return c.runners[i].Predict()
	}
	return c.base.Predict(pc)
}

// Update advances every custom FSM with the outcome (the update-all
// policy) and trains the base predictor.
func (c *Custom) Update(pc uint64, taken bool) {
	if c.UpdateMatchedOnly {
		if i, ok := c.byTag[pc]; ok {
			c.runners[i].Update(taken)
		}
	} else {
		for _, r := range c.runners {
			r.Update(taken)
		}
	}
	c.base.Update(pc, taken)
}

// Area sums the base BTB and, per custom entry, the CAM tag, the target,
// and the FSM's estimated area.
func (c *Custom) Area() float64 {
	a := c.base.Area()
	for _, e := range c.entries {
		a += btbTagBits*CAMBit + btbTargetBits*SRAMBit
		if c.FSMArea != nil {
			a += c.FSMArea(e.Machine.NumStates())
		}
	}
	return a
}

// Entries returns the custom entries in rank order.
func (c *Custom) Entries() []*CustomEntry { return c.entries }
