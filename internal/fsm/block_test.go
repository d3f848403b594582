package fsm

import (
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

// TestSimulateUsesBlockKernel checks Simulate/SimulateBits agree with
// the scalar oracle on the blocked walk and on the scalar fallback a
// machine over the block-table bound takes.
func TestSimulateUsesBlockKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMachine(rng, 23)
	bits := randomBits(rng, 10000)
	bools := bits.Bools()
	big := m.Clone()
	for s := big.NumStates(); s <= maxBlockStates; s++ {
		big.Output = append(big.Output, false)
		big.Next = append(big.Next, [2]int{s, s})
	}
	if BlockTableFor(m) == nil || BlockTableFor(big) != nil {
		t.Fatal("block-table availability is not what the test needs")
	}
	for _, skip := range []int{0, 9, 4096, 4100, 9999, 10000, 10001} {
		want := m.SimulateScalar(bools, skip)
		for name, mm := range map[string]*Machine{"blocked": m, "fallback": big} {
			if got := mm.Simulate(bools, skip); got != want {
				t.Fatalf("%s skip %d: Simulate %+v, scalar %+v", name, skip, got, want)
			}
			if got := mm.SimulateBits(bits, skip); got != want {
				t.Fatalf("%s skip %d: SimulateBits %+v, scalar %+v", name, skip, got, want)
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
		check("ReplayGated", func() { tab.ReplayGated(words, words, n, r) })
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
// cost a cache miss pays.
func BenchmarkCompileBlockTable(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := randomMachine(rng, 32)
	for i := 0; i < b.N; i++ {
		if _, err := CompileBlockTable(m); err != nil {
			b.Fatal(err)
		}
	}
}
