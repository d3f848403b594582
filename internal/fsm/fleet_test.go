package fsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
)

// TestFleetDedup checks that structural duplicates collapse into one
// walk and still receive independent (correct) results.
func TestFleetDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randomMachine(rng, 6)
	b := randomMachine(rng, 11)
	aCopy := a.Clone()
	aCopy.Name = "renamed" // Name must not defeat dedup
	fl, err := NewFleet([]*Machine{a, b, aCopy, a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.idx) != 5 || unique(fl) != 2 {
		t.Fatalf("slots=%d unique=%d, want 5/2", len(fl.idx), unique(fl))
	}
	bits := randomBits(rng, 777)
	res := fl.RunParallelSpans(1, bits.Words(), bits.Len(), 13, nil)
	if res[0] != res[2] || res[0] != res[3] || res[1] != res[4] {
		t.Fatalf("duplicate slots disagree: %+v", res)
	}
	if want := a.SimulateBits(bits, 13); res[0] != want {
		t.Fatalf("fleet %+v, machine %+v", res[0], want)
	}
	// A fleet of one distinct table is that table: no copy.
	tab := BlockTableFor(a)
	one := FleetOfTables([]*BlockTable{tab, BlockTableFor(aCopy)})
	if unique(one) != 1 || &one.tab[0] != &tab.tab[0] || one.spans[0] != tab.spans[0] {
		t.Fatal("single-table fleet copied the table's arrays")
	}
}

// unique returns the number of structurally distinct machines in a
// fleet: the walks whose results a pass actually uses.
func unique(f *Fleet) int {
	n := 0
	for _, i := range f.first {
		if i >= 0 {
			n++
		}
	}
	return n
}

// TestFleetEmpty covers the zero-machine and zero-trace edges.
func TestFleetEmpty(t *testing.T) {
	fl, err := NewFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := fl.RunParallelSpans(1, nil, 100, 0, nil); len(res) != 0 {
		t.Fatalf("empty fleet returned %v", res)
	}
	rng := rand.New(rand.NewSource(3))
	fl, err = NewFleet([]*Machine{randomMachine(rng, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if res := fl.RunParallelSpans(1, nil, 0, 0, nil); res[0] != (SimResult{}) {
		t.Fatalf("empty trace returned %+v", res[0])
	}
}

// TestFleetRejectsInvalid checks the error path: nil and invalid
// machines are rejected, while a valid machine over the block-table
// bound is not (it walks the scalar reference).
func TestFleetRejectsInvalid(t *testing.T) {
	if _, err := NewFleet([]*Machine{nil}); err == nil {
		t.Fatal("nil machine accepted")
	}
	bad := &Machine{Output: []bool{false}, Next: [][2]int{{0, 7}}}
	if _, err := NewFleet([]*Machine{bad}); err == nil {
		t.Fatal("invalid machine accepted")
	}
	big := &Machine{Output: make([]bool, 300), Next: make([][2]int, 300)}
	if _, err := NewFleet([]*Machine{big}); err != nil {
		t.Fatalf("300-state machine rejected: %v", err)
	}
}

// TestFleetPastRowBound: a fleet of more distinct 256-state machines
// than a closure entry's 16-bit row field can address packs tables
// while they fit maxPackedStates — lane padding then fills the layout
// to exactly maxLayoutStates — and walks the rest through their Machine
// methods. Every mode must still match the scalar references.
func TestFleetPastRowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const width = maxLayoutStates/maxBlockStates + 4
	const packed = maxPackedStates / maxBlockStates
	machines := make([]*Machine, width)
	tabs := make([]*BlockTable, width)
	for j := range tabs {
		machines[j] = randomMachine(rng, maxBlockStates)
		var err error
		if tabs[j], err = CompileBlockTable(machines[j]); err != nil {
			t.Fatal(err)
		}
	}
	f := FleetOfTables(tabs)
	tabs = nil // the fleet holds its own copy of the packed rows
	if n := unique(f) - len(f.big); n != packed || len(f.big) != width-packed || f.off[f.slots()] != maxLayoutStates {
		t.Fatalf("packed %d (%d states) with %d walked apart, want %d (%d) and %d",
			n, f.off[f.slots()], len(f.big), packed, maxLayoutStates, width-packed)
	}
	bits := runnyBits(rng, 3001, 0.8, 40)
	words, n := bits.Words(), bits.Len()
	runs := spanIndexOf(bits)
	pos := make([][]int32, width)
	for j := range pos {
		for i := j % 5; i < n; i += 1 + j%7 {
			pos[j] = append(pos[j], int32(i))
		}
	}
	got := f.RunParallelSpans(2, words, n, 11, runs)
	misses := f.RunSampled(words, n, pos)
	flagged, flaggedCorrect := make([]int, width), make([]int, width)
	f.ReplayGated(words, n, runs, flagged, flaggedCorrect)
	for j, m := range machines {
		if want := m.SimulateScalar(bits.Bools(), 11); got[j] != want {
			t.Fatalf("machine %d: fleet %+v, scalar %+v", j, got[j], want)
		}
		if want, _ := m.RunSampledScalar(m.Start, words, n, pos[j]); misses[j] != want {
			t.Fatalf("machine %d: fleet sampled %d misses, scalar %d", j, misses[j], want)
		}
		if wf, wfc := m.gatedScalar(words, n); flagged[j] != wf || flaggedCorrect[j] != wfc {
			t.Fatalf("machine %d: fleet gated (%d, %d), scalar (%d, %d)", j, flagged[j], flaggedCorrect[j], wf, wfc)
		}
	}
}

// TestPackedEntryPointsClampOverlongN is the bounds-guard regression:
// every packed entry point must clamp an event count beyond the words'
// capacity instead of reading out of range, and the clamped run must
// equal the run at the true capacity.
func TestPackedEntryPointsClampOverlongN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMachine(rng, 9)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(rng, 130)
	words, n := bits.Words(), bits.Len()
	over := len(words)*64 + 129 // far past capacity
	capEvents := len(words) * 64
	runs := bitseq.Runs(words, capEvents, 1)

	for _, r := range [][]bitseq.Run{nil, runs} {
		want, wantEnd := tab.RunFrom(m.Start, words, capEvents, 5, r)
		if got, end := tab.RunFrom(m.Start, words, over, 5, r); got != want || end != wantEnd {
			t.Fatalf("RunFrom over-long: (%+v, %d), want (%+v, %d)", got, end, want, wantEnd)
		}
		fl := FleetOfTables([]*BlockTable{tab, tab})
		if got := fl.RunParallelSpans(1, words, over, 5, r); got[0] != want || got[1] != want {
			t.Fatalf("Fleet.RunParallelSpans over-long: %+v, want %+v", got, want)
		}
		wf, wfc := m.gatedScalar(words, capEvents)
		if f, fc := tab.ReplayGated(words, over, r); f != wf || fc != wfc {
			t.Fatalf("ReplayGated over-long: (%d,%d), want (%d,%d)", f, fc, wf, wfc)
		}
		f, fc := make([]int, 2), make([]int, 2)
		if fl.ReplayGated(words, over, r, f, fc); f[1] != wf || fc[1] != wfc {
			t.Fatalf("Fleet.ReplayGated over-long: (%d,%d), want (%d,%d)", f[1], fc[1], wf, wfc)
		}
		if f, fc := tab.ReplayGated(words, -5, r); f != 0 || fc != 0 {
			t.Fatalf("ReplayGated on negative n: (%d,%d), want zeros", f, fc)
		}
	}
	var pos []int32
	for i := 0; i < n; i += 3 {
		pos = append(pos, int32(i))
	}
	wm, we := tab.RunSampled(m.Start, words, capEvents, pos, nil)
	if gm, ge := tab.RunSampled(m.Start, words, over, pos, runs); gm != wm || ge != we {
		t.Fatalf("RunSampled over-long: (%d,%d), want (%d,%d)", gm, ge, wm, we)
	}
	if gm, ge := m.RunSampledScalar(m.Start, words, over, pos); gm != wm || ge != we {
		t.Fatalf("RunSampledScalar over-long: (%d,%d), want (%d,%d)", gm, ge, wm, we)
	}
	if got := FleetOfTables([]*BlockTable{tab}).RunSampled(words, over, [][]int32{pos}); got[0] != wm {
		t.Fatalf("Fleet.RunSampled over-long: %d, want %d", got[0], wm)
	}
}

// TestFleetConcurrent hammers one shared fleet from many goroutines
// mixing sequential and sharded passes over a run index — the -race
// stress for the engine's immutability claim.
func TestFleetConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	machines := make([]*Machine, 24)
	for j := range machines {
		machines[j] = randomMachine(rng, 2+rng.Intn(20))
	}
	fl, err := NewFleet(machines)
	if err != nil {
		t.Fatal(err)
	}
	bits := randomBits(rng, 5000)
	words, n := bits.Words(), bits.Len()
	runs := bitseq.Runs(words, n, 1)
	want := fl.RunParallelSpans(1, words, n, 7, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got := fl.RunParallelSpans(1+g%4, words, n, 7, runs)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d iter %d: results diverged", g, iter)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkFleet measures the fleet's aggregate throughput scaling
// curve, serial and sharded, and at one machine the single-table walk
// the fleet of one shares its arrays and walker with.
func BenchmarkFleet(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	bits := randomBits(rng, 1<<18)
	words, n := bits.Words(), bits.Len()
	for _, machines := range []int{1, 16, 64, 256} {
		tabs := make([]*BlockTable, machines)
		for j := range tabs {
			var err error
			if tabs[j], err = CompileBlockTable(randomMachine(rng, 4+j%13)); err != nil {
				b.Fatal(err)
			}
		}
		fl := FleetOfTables(tabs)
		bytes := int64(machines * n / 8)
		b.Run(fmt.Sprintf("fleet/n%d", machines), func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fl.RunParallelSpans(1, words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("fleet-parallel/n%d", machines), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				fl.RunParallelSpans(0, words, n, 0, nil)
			}
		})
		if machines == 1 {
			b.Run("single/n1", func(b *testing.B) {
				b.SetBytes(bytes)
				for i := 0; i < b.N; i++ {
					tabs[0].RunFrom(tabs[0].StartState(), words, n, 0, nil)
				}
			})
		}
	}
}
