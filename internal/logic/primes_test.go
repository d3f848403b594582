package logic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// bruteForcePrimes enumerates all 3^w cubes as (value, care) pairs and
// keeps each one whose minterms are all on or dc and none of whose
// single-literal expansions has that property — the definition of a
// prime, checked minterm by minterm.
func bruteForcePrimes(p Problem) []bitseq.Cube {
	allowed := make([]bool, 1<<uint(p.Width))
	for _, m := range p.On {
		allowed[m] = true
	}
	for _, m := range p.DC {
		allowed[m] = true
	}
	implicant := func(c bitseq.Cube) bool {
		return c.EachMinterm(func(m uint32) bool { return allowed[m] })
	}
	full := uint32(1)<<uint(p.Width) - 1
	var primes []bitseq.Cube
	for care := uint32(0); care <= full; care++ {
		for value := uint32(0); value <= full; value++ {
			if value&^care != 0 {
				continue
			}
			c := bitseq.NewCube(value, care, p.Width)
			if !implicant(c) {
				continue
			}
			prime := true
			for b := uint32(1); b <= full && prime; b <<= 1 {
				if care&b != 0 && implicant(bitseq.NewCube(value, care&^b, p.Width)) {
					prime = false
				}
			}
			if prime {
				primes = append(primes, c)
			}
		}
	}
	bitseq.SortCubes(primes)
	return primes
}

// densityProblem draws each minterm into the on-set with probability
// pOn, else into the dc-set with probability pDC.
func densityProblem(rng *rand.Rand, width int, pOn, pDC float64) Problem {
	p := Problem{Width: width}
	for m := uint32(0); m < 1<<uint(width); m++ {
		switch r := rng.Float64(); {
		case r < pOn:
			p.On = append(p.On, m)
		case r < pOn+pDC:
			p.DC = append(p.DC, m)
		}
	}
	return p
}

// edgeCase is a degenerate problem with its known prime set.
type edgeCase struct {
	p      Problem
	primes []bitseq.Cube
}

// edgeProblems are the degenerate shapes every width must handle: no
// minterm has no prime, a lone minterm is its own prime, and any
// problem with no off-set has the tautology as its only prime.
func edgeProblems(width int) map[string]edgeCase {
	all := make([]uint32, 1<<uint(width))
	for m := range all {
		all[m] = uint32(m)
	}
	single := uint32(0x5555) & (uint32(1)<<uint(width) - 1)
	taut := []bitseq.Cube{bitseq.NewCube(0, 0, width)}
	return map[string]edgeCase{
		"empty":   {Problem{Width: width}, nil},
		"dc-only": {Problem{Width: width, DC: all}, taut},
		"full-on": {Problem{Width: width, On: all}, taut},
		"single":  {Problem{Width: width, On: []uint32{single}}, []bitseq.Cube{bitseq.Minterm(single, width)}},
		"on+dc":   {Problem{Width: width, On: all[:len(all)/2], DC: all[len(all)/2:]}, taut},
	}
}

func mustPrimes(t testing.TB, p Problem) []bitseq.Cube {
	t.Helper()
	primes, err := PrimeImplicants(p)
	if err != nil {
		t.Fatal(err)
	}
	return primes
}

func checkPrimes(t testing.TB, name string, p Problem, want []bitseq.Cube) {
	t.Helper()
	if got := mustPrimes(t, p); !slices.Equal(got, want) {
		t.Fatalf("%s: width %d: PrimeImplicants = %v, want %v", name, p.Width, got, want)
	}
}

// TestPrimeImplicantsBruteForce is the prime generator's non-differential
// oracle: for every width 1..6 the returned set, in SortCubes order,
// must equal the definition evaluated over all 3^w cubes.
func TestPrimeImplicantsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	densities := [][2]float64{{0.05, 0}, {0.2, 0.1}, {0.35, 0.35}, {0.6, 0.2}, {0.1, 0.8}, {0.9, 0}}
	for w := 1; w <= 6; w++ {
		for name, e := range edgeProblems(w) {
			checkPrimes(t, name, e.p, e.primes)
			checkPrimes(t, name+" (brute force)", e.p, bruteForcePrimes(e.p))
		}
		for _, d := range densities {
			for trial := 0; trial < 8; trial++ {
				p := densityProblem(rng, w, d[0], d[1])
				checkPrimes(t, fmt.Sprintf("density %v trial %d", d, trial), p, bruteForcePrimes(p))
			}
		}
	}
}

// TestPrimeImplicantsMatchTabular covers widths 7..12, beyond brute
// force: the edge cases against their known primes, and against the
// tabular reference random problems from sparse to dense and the real
// order-9 partitions of the six branch programs at the paper's figure
// scale.
func TestPrimeImplicantsMatchTabular(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for w := 7; w <= 12; w++ {
		for name, e := range edgeProblems(w) {
			checkPrimes(t, name, e.p, e.primes)
		}
		for _, d := range [][2]float64{{0.002, 0.002}, {0.02, 0.01}, {0.3, 0.3}} {
			p := densityProblem(rng, w, d[0], d[1])
			checkPrimes(t, fmt.Sprintf("density %v", d), p, primeImplicantsTabular(p))
		}
	}
	for _, prog := range workload.BranchSuite() {
		for _, p := range branchPartitions(t, prog, 9) {
			checkPrimes(t, prog.Name, p, primeImplicantsTabular(p))
		}
	}
}

// branchPartitions returns the minimization problems the §4 flow builds
// for every branch of the program's training trace executed at least 64
// times (a superset of the Figure 4/5 custom designs, which take the
// worst-predicted of these): the global-history model at the given
// order, partitioned with the paper's defaults.
func branchPartitions(t testing.TB, prog *workload.Program, order int) []Problem {
	t.Helper()
	tr := tracestore.Pack(prog.Generate(workload.Train, 250_000))
	var ids []int32
	for id := int32(0); int(id) < tr.NumStatics(); id++ {
		if len(tr.SubOf(id).Pos) >= 64 {
			ids = append(ids, id)
		}
	}
	var out []Problem
	for _, m := range tr.GlobalModels(ids, order) {
		part, err := m.Partition(markov.DefaultPartitionOptions())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, FromPartition(order, part.PredictOne, part.DontCare))
	}
	return out
}

func TestPrimeImplicantsWidthBound(t *testing.T) {
	for _, w := range []int{0, 13, 24} {
		if _, err := PrimeImplicants(Problem{Width: w}); err == nil {
			t.Errorf("width %d: expected an error", w)
		}
	}
	if _, err := MinimizeQM(Problem{Width: 13, On: []uint32{1}}); err == nil {
		t.Error("MinimizeQM width 13: expected an error")
	}
	// Minimize routes the same problem to the heuristic engine.
	p := Problem{Width: 13, On: []uint32{1, 3}}
	cover, err := Minimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, cover); err != nil {
		t.Fatal(err)
	}
}

// FuzzPrimeImplicants reads on and dc as minterm bitmaps (bit m of byte
// m/8) at width 1..12 and checks the primes against brute force up to
// width 6 and against the tabular reference beyond.
func FuzzPrimeImplicants(f *testing.F) {
	f.Add(uint8(2), []byte{0b1110}, []byte{})
	f.Add(uint8(4), []byte{0x0f, 0xf0}, []byte{0x30})
	f.Add(uint8(9), []byte{0xff, 0, 0x81, 0x18}, []byte{0, 0xff})
	f.Add(uint8(12), []byte{1, 0, 0, 0x80}, []byte{0x40})
	f.Fuzz(func(t *testing.T, width uint8, on, dc []byte) {
		p := Problem{Width: int(width%maxQMWidth) + 1}
		for m := uint32(0); m < 1<<uint(p.Width); m++ {
			bit := func(set []byte) bool { return int(m/8) < len(set) && set[m/8]>>(m%8)&1 != 0 }
			switch {
			case bit(on):
				p.On = append(p.On, m)
			case bit(dc):
				p.DC = append(p.DC, m)
			}
		}
		want := primeImplicantsTabular(p)
		if p.Width <= 6 {
			want = bruteForcePrimes(p)
		}
		checkPrimes(t, "fuzz", p, want)
	})
}

// primesSink keeps the benchmarked calls' results live.
var primesSink []bitseq.Cube

// BenchmarkPrimeImplicants measures prime generation on the figure-scale
// problems (the order-9 partitions of two branch programs) and on sparse
// width-12 problems, where the tabular method touches few cubes but the
// implicant table still fills all 3^12.
func BenchmarkPrimeImplicants(b *testing.B) {
	var figure []Problem
	for _, prog := range workload.BranchSuite()[:2] {
		figure = append(figure, branchPartitions(b, prog, 9)...)
	}
	rng := rand.New(rand.NewSource(12))
	var sparse []Problem
	for i := 0; i < 8; i++ {
		sparse = append(sparse, densityProblem(rng, 12, 0.01, 0.005))
	}
	for _, bc := range []struct {
		name string
		set  []Problem
	}{{"figure-order9", figure}, {"sparse-width12", sparse}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range bc.set {
					primesSink = mustPrimes(b, p)
				}
			}
		})
		b.Run(bc.name+"/tabular", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range bc.set {
					primesSink = primeImplicantsTabular(p)
				}
			}
		})
	}
}
