package fsm

import (
	"bytes"
	"math/rand"
	"testing"
)

// twoBitCounter is the saturating 2-bit counter in canonical form:
// states strongly-not-taken, weakly-not-taken, weakly-taken,
// strongly-taken, numbered in BFS order from the start state.
func twoBitCounter() *Machine {
	return &Machine{
		Output: []bool{false, false, true, true},
		Next:   [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
		Start:  0,
	}
}

func checkSameStructure(t *testing.T, got, want *Machine) {
	t.Helper()
	if CompareStructural(got, want) != 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestMinimalTwoBitCounter hides the counter among unreachable states
// and a split copy of its strongly-taken state, numbered out of order
// with a non-zero start: Minimal must return exactly the counter.
func TestMinimalTwoBitCounter(t *testing.T) {
	// 0: unreachable, 1: weakly-taken, 2: strongly-taken copy,
	// 3: strongly-not-taken (start), 4: weakly-not-taken,
	// 5: strongly-taken, 6: unreachable.
	padded := &Machine{
		Name:   "counter",
		Output: []bool{true, true, true, false, false, true, false},
		Next:   [][2]int{{3, 6}, {4, 2}, {1, 5}, {3, 4}, {3, 1}, {1, 2}, {0, 5}},
		Start:  3,
	}
	got := padded.Minimal()
	checkSameStructure(t, got, twoBitCounter())
	if got.Name != "counter" {
		t.Fatalf("name %q not kept", got.Name)
	}
	checkSameStructure(t, twoBitCounter().Minimal(), twoBitCounter())
}

// TestMinimalConstantOutput: a machine that predicts the same value in
// every state is one state looping on itself, whatever its wiring.
func TestMinimalConstantOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, out := range []bool{false, true} {
		m := randomMachine(rng, 9)
		for s := range m.Output {
			m.Output[s] = out
		}
		want := &Machine{Output: []bool{out}, Next: [][2]int{{0, 0}}, Start: 0}
		checkSameStructure(t, m.Minimal(), want)
	}
}

// permuted renumbers m's states by a random permutation.
func permuted(rng *rand.Rand, m *Machine) *Machine {
	n := m.NumStates()
	perm := rng.Perm(n)
	p := &Machine{Output: make([]bool, n), Next: make([][2]int, n), Start: perm[m.Start]}
	for s := 0; s < n; s++ {
		p.Output[perm[s]] = m.Output[s]
		p.Next[perm[s]] = [2]int{perm[m.Next[s][0]], perm[m.Next[s][1]]}
	}
	return p
}

// padded appends k states no start-reachable state enters, wired at
// random into the whole machine, and splits the start state: a copy
// takes over the start's incoming edges from the original states.
func padded(rng *rand.Rand, m *Machine, k int) *Machine {
	p := m.Clone()
	n := m.NumStates()
	twin := n
	p.Output = append(p.Output, m.Output[m.Start])
	p.Next = append(p.Next, m.Next[m.Start])
	for s := 0; s < n; s++ {
		for b := 0; b < 2; b++ {
			if p.Next[s][b] == m.Start {
				p.Next[s][b] = twin
			}
		}
	}
	for i := 0; i < k; i++ {
		p.Output = append(p.Output, rng.Intn(2) == 1)
		p.Next = append(p.Next, [2]int{rng.Intn(n + 1 + k), rng.Intn(n + 1 + k)})
	}
	return p
}

// TestMinimalCanonicalUnderPermutationAndPadding: renumbered and padded
// copies of a machine share its minimal machine byte for byte, and the
// minimal machine is equivalent to the original and never larger.
func TestMinimalCanonicalUnderPermutationAndPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		m := randomMachine(rng, 1+rng.Intn(12))
		minimal := m.Minimal()
		want := minimal.AppendCanonical(nil)
		if minimal.NumStates() > m.NumStates() {
			t.Fatalf("machine %d: minimal has %d states, original %d", i, minimal.NumStates(), m.NumStates())
		}
		if !Equal(m, minimal) {
			t.Fatalf("machine %d: minimal machine is not equivalent", i)
		}
		for _, c := range []*Machine{permuted(rng, m), padded(rng, m, 1+rng.Intn(4)), permuted(rng, padded(rng, m, 2))} {
			if !bytes.Equal(c.Minimal().AppendCanonical(nil), want) {
				t.Fatalf("machine %d: copy %v minimizes to %v, want %v", i, c, c.Minimal(), minimal)
			}
		}
	}
}

// FuzzMinimal checks Minimal on arbitrary machines and traces: the
// minimal machine is valid, never larger, mispredicts exactly where the
// original does, and is its own minimal machine.
func FuzzMinimal(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 1, 0, 2, 0, 1, 1}, []byte{0x5a, 0xff, 0x00})
	f.Add([]byte{7, 3, 1, 2, 3, 0, 4, 5, 1, 6, 0}, []byte{0x0f})
	f.Add([]byte{0}, []byte{})
	f.Fuzz(func(t *testing.T, shape, trace []byte) {
		at := func(i int) int {
			if i < len(shape) {
				return int(shape[i])
			}
			return 0
		}
		n := 1 + at(0)%16
		m := &Machine{Output: make([]bool, n), Next: make([][2]int, n), Start: at(1) % n}
		for s := 0; s < n; s++ {
			m.Output[s] = at(2+3*s)&1 == 1
			m.Next[s] = [2]int{at(3+3*s) % n, at(4+3*s) % n}
		}
		outcomes := make([]bool, 8*len(trace))
		for i := range outcomes {
			outcomes[i] = trace[i>>3]>>(i&7)&1 == 1
		}
		minimal := m.Minimal()
		if err := minimal.Validate(); err != nil {
			t.Fatalf("invalid minimal machine: %v", err)
		}
		if minimal.NumStates() > n {
			t.Fatalf("minimal has %d states, original %d", minimal.NumStates(), n)
		}
		if got, want := minimal.SimulateScalar(outcomes, 0), m.SimulateScalar(outcomes, 0); got != want {
			t.Fatalf("minimal scores %+v, original %+v", got, want)
		}
		if !bytes.Equal(minimal.Minimal().AppendCanonical(nil), minimal.AppendCanonical(nil)) {
			t.Fatal("Minimal is not idempotent")
		}
	})
}

// BenchmarkMinimal prices one minimization at the GA search's genome
// size, the cost the search pays once per genome.
func BenchmarkMinimal(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	ms := make([]*Machine, 64)
	for i := range ms {
		ms[i] = randomMachine(rng, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms[i%len(ms)].Minimal()
	}
}
