package fsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
)

// randomMachine builds a valid machine from a seeded source; the block
// kernels must match the scalar oracle on any of them.
func randomMachine(rng *rand.Rand, states int) *Machine {
	m := &Machine{
		Output: make([]bool, states),
		Next:   make([][2]int, states),
		Start:  rng.Intn(states),
	}
	for s := 0; s < states; s++ {
		m.Output[s] = rng.Intn(2) == 1
		m.Next[s] = [2]int{rng.Intn(states), rng.Intn(states)}
	}
	return m
}

func randomBits(rng *rand.Rand, n int) *bitseq.Bits {
	b := &bitseq.Bits{}
	for i := 0; i < n; i++ {
		b.Append(rng.Intn(2) == 1)
	}
	return b
}

// TestSimulateUsesBlockKernel checks every Machine walk — Simulate,
// SimulateBits, RunFrom from a non-start state, RunSampled and
// ReplayGated — and the three walks of a fleet mixing both kinds of
// machine, with duplicates, against the scalar references, on the
// blocked walk and on the scalar walk a machine over the block-table
// bound takes. The padded machines add unreachable states to a small
// one, so at 256 states (the last with a table) and at 257 every walk
// must reproduce the small machine's references exactly.
func TestSimulateUsesBlockKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMachine(rng, 23)
	bits := randomBits(rng, 10000)
	bools := bits.Bools()
	words, n := bits.Words(), bits.Len()
	runs := bitseq.Runs(words, n, 1)
	pad := func(states int) *Machine {
		p := m.Clone()
		for s := p.NumStates(); s < states; s++ {
			p.Output = append(p.Output, false)
			p.Next = append(p.Next, [2]int{s, s})
		}
		return p
	}
	at256, at257 := pad(maxBlockStates), pad(maxBlockStates+1)
	if BlockTableFor(m) == nil || BlockTableFor(at256) == nil || BlockTableFor(at257) != nil {
		t.Fatal("block-table availability is not what the test needs")
	}
	var pos []int32
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			pos = append(pos, int32(i))
		}
	}
	const from = 7 // a non-start entry state, below every machine's size
	if from == m.Start {
		t.Fatal("entry state is the start state")
	}
	fromStart := m.Clone()
	fromStart.Start = from
	wantMiss, wantEnd := m.RunSampledScalar(from, words, n, pos)
	wantFlag, wantFlagCorrect := m.gatedScalar(words, n)
	kinds := map[string]*Machine{"blocked": m, "256 states": at256, "257 states": at257}
	for name, mm := range kinds {
		for _, skip := range []int{0, 9, 4096, 4100, 9999, 10000, 10001} {
			want := m.SimulateScalar(bools, skip)
			if got := mm.Simulate(bools, skip); got != want {
				t.Fatalf("%s skip %d: Simulate %+v, scalar %+v", name, skip, got, want)
			}
			if got := mm.SimulateBits(bits, skip); got != want {
				t.Fatalf("%s skip %d: SimulateBits %+v, scalar %+v", name, skip, got, want)
			}
			want = fromStart.SimulateScalar(bools, skip)
			if got, end := mm.RunFrom(from, words, n, skip, runs); got != want || end != wantEnd {
				t.Fatalf("%s skip %d: RunFrom(%d) %+v exit %d, scalar %+v exit %d", name, skip, from, got, end, want, wantEnd)
			}
		}
		if miss, end := mm.RunSampled(from, words, n, pos, runs); miss != wantMiss || end != wantEnd {
			t.Fatalf("%s: RunSampled %d misses exit %d, scalar %d exit %d", name, miss, end, wantMiss, wantEnd)
		}
		if flagged, flaggedCorrect := mm.ReplayGated(words, n, runs); flagged != wantFlag || flaggedCorrect != wantFlagCorrect {
			t.Fatalf("%s: ReplayGated (%d, %d), scalar (%d, %d)", name, flagged, flaggedCorrect, wantFlag, wantFlagCorrect)
		}
	}

	// A mixed fleet: duplicates of both kinds, one a distinct pointer,
	// and two distinct machines over the bound.
	members := []*Machine{at257, m, at256, at257, pad(maxBlockStates + 1), m, pad(maxBlockStates + 2)}
	f, err := NewFleet(members)
	if err != nil {
		t.Fatal(err)
	}
	if unique(f) != 4 || len(f.idx)-unique(f) != 3 {
		t.Fatalf("fleet unique %d deduped %d, want 4 and 3", unique(f), len(f.idx)-unique(f))
	}
	memberPos := make([][]int32, len(members))
	for j := range members {
		memberPos[j] = pos[j:] // a different sample per member, duplicates too
	}
	for _, skip := range []int{0, 9, 4100, 10001} {
		want := m.SimulateScalar(bools, skip)
		for j, got := range f.RunParallelSpans(2, words, n, skip, runs) {
			if got != want {
				t.Fatalf("fleet member %d skip %d: RunParallelSpans %+v, scalar %+v", j, skip, got, want)
			}
		}
	}
	for j, miss := range f.RunSampled(words, n, memberPos) {
		if want, _ := m.RunSampledScalar(m.Start, words, n, memberPos[j]); miss != want {
			t.Fatalf("fleet member %d: RunSampled %d misses, scalar %d", j, miss, want)
		}
	}
	// ReplayGated adds into its tallies: two passes count twice.
	flagged, flaggedCorrect := make([]int, len(members)), make([]int, len(members))
	f.ReplayGated(words, n, runs, flagged, flaggedCorrect)
	f.ReplayGated(words, n, runs, flagged, flaggedCorrect)
	for j := range members {
		if flagged[j] != 2*wantFlag || flaggedCorrect[j] != 2*wantFlagCorrect {
			t.Fatalf("fleet member %d: ReplayGated (%d, %d), scalar (%d, %d)", j, flagged[j], flaggedCorrect[j], wantFlag, wantFlagCorrect)
		}
	}
}

// TestClosureEntryEncoding is the closure table's closed-form oracle,
// no other kernel involved: for random machines of 1 to 256 states,
// the entry of every (state, byte) must be missMask<<24 | exit<<8 |
// misses, where exit, the miss mask and the miss count come from eight
// steps of the machine's 2-symbol step/out rows.
func TestClosureEntryEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 1 + rng.Intn(16), 1 + rng.Intn(64), 1 + rng.Intn(256), maxBlockStates} {
		tab, err := CompileBlockTable(randomMachine(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			for v := 0; v < 1<<blockShift; v++ {
				st, mask, misses := s, uint32(0), uint32(0)
				for j := 0; j < blockShift; j++ {
					b := v >> j & 1
					if int(tab.out[st]) != b {
						mask |= 1 << j
						misses++
					}
					st = int(tab.step[st<<1|b])
				}
				if got, want := tab.tab[s<<blockShift|v], mask<<24|uint32(st)<<8|misses; got != want {
					t.Fatalf("%d states: entry (%d, %#02x) = %#08x, want %#08x", n, s, v, got, want)
				}
			}
		}
	}
}

// TestBlockTableForVerifiesContent: mutating a machine after its table
// was cached must recompile, not serve the stale closure.
func TestBlockTableForVerifiesContent(t *testing.T) {
	m := &Machine{
		Output: []bool{false, true},
		Next:   [][2]int{{0, 1}, {0, 1}},
		Start:  0,
	}
	t1 := BlockTableFor(m)
	if t1 == nil {
		t.Fatal("no table")
	}
	m.Output[0] = true
	t2 := BlockTableFor(m)
	if t2 == nil {
		t.Fatal("no table after mutation")
	}
	if !t2.compiledFrom(m) {
		t.Fatal("table does not match mutated machine")
	}
	if t1.compiledFrom(m) {
		t.Fatal("stale table claims to match mutated machine")
	}
}

// TestBlockTableForRejectsOversized: machines beyond the uint8 state
// bound fall back to scalar (nil table) rather than truncating.
func TestBlockTableForRejectsOversized(t *testing.T) {
	const n = maxBlockStates + 1
	m := &Machine{Output: make([]bool, n), Next: make([][2]int, n)}
	for s := range m.Next {
		m.Next[s] = [2]int{(s + 1) % n, s}
	}
	if BlockTableFor(m) != nil {
		t.Fatal("expected nil table for oversized machine")
	}
	if _, err := CompileBlockTable(m); err == nil {
		t.Fatal("expected CompileBlockTable error for oversized machine")
	}
	// The boundary case compiles fine and still matches the oracle.
	big := m.Clone()
	big.Output = big.Output[:maxBlockStates]
	big.Next = big.Next[:maxBlockStates]
	for s := range big.Next {
		big.Next[s] = [2]int{(s + 1) % maxBlockStates, s}
	}
	tab, err := CompileBlockTable(big)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	bits := randomBits(rng, 777)
	got, _ := tab.RunFrom(tab.StartState(), bits.Words(), 777, 5, nil)
	if want := big.SimulateScalar(bits.Bools(), 5); got != want {
		t.Fatalf("256-state machine: packed %+v, scalar %+v", got, want)
	}
}

// TestBlockTableCacheConcurrent hammers the shared cache from many
// goroutines over overlapping machine content — the race-stress target
// for concurrent designs sharing tables.
func TestBlockTableCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const distinct = 8
	machines := make([]*Machine, distinct)
	streams := make([]*bitseq.Bits, distinct)
	want := make([]SimResult, distinct)
	for i := range machines {
		machines[i] = randomMachine(rng, 2+rng.Intn(30))
		streams[i] = randomBits(rng, 2048)
		want[i] = machines[i].SimulateScalar(streams[i].Bools(), 3)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 50; iter++ {
				i := r.Intn(distinct)
				// Fresh clone: same content, different identity — the
				// content address must dedup them.
				m := machines[i].Clone()
				tab := BlockTableFor(m)
				if tab == nil {
					t.Error("nil table")
					return
				}
				if got, _ := tab.RunFrom(tab.StartState(), streams[i].Words(), streams[i].Len(), 3, nil); got != want[i] {
					t.Errorf("machine %d: got %+v, want %+v", i, got, want[i])
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestBlockKernelAllocs: the table walks, with and without a run
// index, and the warmed Simulate paths must allocate nothing per call.
func TestBlockKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMachine(rng, 17)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := runnyBits(rng, 4096, 0.9, 100)
	words, n := bits.Words(), bits.Len()
	runs := spanIndexOf(bits)
	bools := bits.Bools()
	var pos []int32
	for i := 0; i < n; i += 7 {
		pos = append(pos, int32(i))
	}
	check := func(name string, f func()) {
		t.Helper()
		if avg := testing.AllocsPerRun(100, f); avg != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", name, avg)
		}
	}
	for _, r := range [][]bitseq.Run{nil, runs} {
		check("RunFrom", func() { tab.RunFrom(2, words, n, 11, r) })
		check("RunSampled", func() { tab.RunSampled(3, words, n, pos, r) })
		check("ReplayGated", func() { tab.ReplayGated(words, n, r) })
	}
	check("Machine.SimulateBits", func() { m.SimulateBits(bits, 11) })
	check("Machine.Simulate", func() { m.Simulate(bools, 11) })
}

// BenchmarkSimulatePacked compares the blocked kernel against the
// scalar oracle on the same stream; the perf gate tracks the blocked
// variant, and the acceptance bar is blocked ≥3× faster per event.
func BenchmarkSimulatePacked(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randomMachine(rng, 16)
	bits := randomBits(rng, 1<<16)
	words, n := bits.Words(), bits.Len()
	bools := bits.Bools()
	tab, err := CompileBlockTable(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(int64(n) / 8)
		for i := 0; i < b.N; i++ {
			tab.RunFrom(tab.StartState(), words, n, 64, nil)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(n) / 8)
		for i := 0; i < b.N; i++ {
			m.SimulateScalar(bools, 64)
		}
	})
}

// BenchmarkCompileBlockTable prices table construction — the one-time
// cost a cache miss pays, and the per-genome cost of a GA search — at
// the search's machine size and at its 64-state bound.
func BenchmarkCompileBlockTable(b *testing.B) {
	for _, states := range []int{8, 64} {
		m := randomMachine(rand.New(rand.NewSource(11)), states)
		b.Run(fmt.Sprintf("states=%d", states), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CompileBlockTable(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
