package logic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fsmpredict/internal/bitseq"
)

func mustCubes(t *testing.T, ss ...string) []bitseq.Cube {
	t.Helper()
	out := make([]bitseq.Cube, len(ss))
	for i, s := range ss {
		out[i] = bitseq.MustParseCube(s)
	}
	return out
}

func coverSet(cover []bitseq.Cube) map[string]bool {
	m := map[string]bool{}
	for _, c := range cover {
		m[c.String()] = true
	}
	return m
}

func TestPaperExampleMinimization(t *testing.T) {
	// §4.4: predict1 = {01, 10, 11}, predict0 = {00}, dc = ∅
	// minimizes to ((x 1) ∨ (1 x)).
	p := Problem{Width: 2, On: []uint32{0b01, 0b10, 0b11}}
	for name, engine := range map[string]func(Problem) ([]bitseq.Cube, error){
		"qm": MinimizeQM, "heuristic": MinimizeHeuristic, "auto": Minimize,
	} {
		cover, err := engine(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := coverSet(cover)
		if len(got) != 2 || !got["x1"] || !got["1x"] {
			t.Errorf("%s: cover = %v, want {x1, 1x}", name, cover)
		}
		if err := Verify(p, cover); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFullOnSetCollapsesToTautology(t *testing.T) {
	p := Problem{Width: 4}
	for m := uint32(0); m < 16; m++ {
		p.On = append(p.On, m)
	}
	cover, err := Minimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != 1 || cover[0].String() != "xxxx" {
		t.Fatalf("cover = %v, want [xxxx]", cover)
	}
}

func TestEmptyOnSet(t *testing.T) {
	cover, err := Minimize(Problem{Width: 3, DC: []uint32{1, 2}})
	if err != nil || len(cover) != 0 {
		t.Fatalf("cover = %v, err = %v; want empty, nil", cover, err)
	}
}

func TestDontCareAbsorption(t *testing.T) {
	// On = {0}, DC = {1}, width 1: the single cube "x" suffices.
	cover, err := Minimize(Problem{Width: 1, On: []uint32{0}, DC: []uint32{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cover) != 1 || cover[0].String() != "x" {
		t.Fatalf("cover = %v, want [x]", cover)
	}
}

func TestParityNeedsAllMinterms(t *testing.T) {
	// Odd parity of 3 bits admits no merging: minimal cover is 4 minterms.
	p := Problem{Width: 3, On: []uint32{0b001, 0b010, 0b100, 0b111}}
	for name, engine := range map[string]func(Problem) ([]bitseq.Cube, error){
		"qm": MinimizeQM, "heuristic": MinimizeHeuristic,
	} {
		cover, err := engine(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(cover) != 4 {
			t.Errorf("%s: cover size = %d, want 4 (%v)", name, len(cover), cover)
		}
		if err := Verify(p, cover); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVerifyRejectsBadCovers(t *testing.T) {
	p := Problem{Width: 2, On: []uint32{0b01, 0b10}}
	// Missing on-set minterm.
	if err := Verify(p, mustCubes(t, "1x")); err == nil {
		t.Error("expected uncovered on-set error")
	}
	// Covers the off-set minterm 11.
	if err := Verify(p, mustCubes(t, "x1", "1x")); err == nil {
		t.Error("expected off-set coverage error")
	}
	// Wrong width.
	if err := Verify(p, mustCubes(t, "x1x")); err == nil {
		t.Error("expected width error")
	}
}

func TestProblemValidate(t *testing.T) {
	if err := (Problem{Width: 0}).Validate(); err == nil {
		t.Error("expected width error")
	}
	if err := (Problem{Width: 2, On: []uint32{4}}).Validate(); err == nil {
		t.Error("expected out-of-width minterm error")
	}
	if err := (Problem{Width: 2, On: []uint32{1}, DC: []uint32{1}}).Validate(); err == nil {
		t.Error("expected overlap error")
	}
	if err := (Problem{Width: 2, On: []uint32{1}, DC: []uint32{2}}).Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestFromPartition(t *testing.T) {
	on := mustCubes(t, "01", "11")
	dc := mustCubes(t, "10")
	p := FromPartition(2, on, dc)
	if len(p.On) != 2 || len(p.DC) != 1 || p.Width != 2 {
		t.Fatalf("FromPartition = %+v", p)
	}
}

func TestCoverCost(t *testing.T) {
	c := CoverCost(mustCubes(t, "1x", "x11"))
	if c.Cubes != 2 || c.Literals != 3 {
		t.Fatalf("cost = %+v, want {2 3}", c)
	}
	if !(Cost{1, 5}).Less(Cost{2, 1}) {
		t.Error("fewer cubes should win")
	}
	if !(Cost{2, 1}).Less(Cost{2, 3}) {
		t.Error("fewer literals should break ties")
	}
}

func randomProblem(rng *rand.Rand, width int) Problem {
	p := Problem{Width: width}
	for m := uint32(0); m < 1<<uint(width); m++ {
		switch rng.Intn(3) {
		case 0:
			p.On = append(p.On, m)
		case 1:
			p.DC = append(p.DC, m)
		}
	}
	return p
}

func TestEnginesProduceValidCoversQuick(t *testing.T) {
	f := func(seed int64, widthRaw uint8) bool {
		width := int(widthRaw%7) + 2
		p := randomProblem(rand.New(rand.NewSource(seed)), width)
		for _, engine := range []func(Problem) ([]bitseq.Cube, error){
			MinimizeQM, MinimizeHeuristic, Minimize,
		} {
			cover, err := engine(p)
			if err != nil {
				return false
			}
			if err := Verify(p, cover); err != nil {
				t.Logf("seed %d width %d: %v", seed, width, err)
				return false
			}
			if len(cover) > len(p.On) {
				return false // never worse than the raw minterm list
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// bruteForceMinCubes finds the true minimum number of cubes for tiny
// problems by exhaustive search over all valid cubes.
func bruteForceMinCubes(p Problem) int {
	allowed := map[uint32]bool{}
	for _, m := range p.On {
		allowed[m] = true
	}
	for _, m := range p.DC {
		allowed[m] = true
	}
	var valid []bitseq.Cube
	mask := uint32(1)<<uint(p.Width) - 1
	for care := uint32(0); care <= mask; care++ {
		for value := uint32(0); value <= mask; value++ {
			if value&^care != 0 {
				continue
			}
			c := bitseq.NewCube(value, care, p.Width)
			ok := true
			for _, m := range c.Minterms() {
				if !allowed[m] {
					ok = false
					break
				}
			}
			if ok {
				valid = append(valid, c)
			}
		}
	}
	if len(p.On) == 0 {
		return 0
	}
	best := len(p.On)
	var rec func(uncovered []uint32, used int)
	rec = func(uncovered []uint32, used int) {
		if len(uncovered) == 0 {
			if used < best {
				best = used
			}
			return
		}
		if used+1 > best {
			return
		}
		m := uncovered[0]
		for _, c := range valid {
			if !c.Matches(m) {
				continue
			}
			var rest []uint32
			for _, u := range uncovered {
				if !c.Matches(u) {
					rest = append(rest, u)
				}
			}
			rec(rest, used+1)
		}
	}
	rec(p.On, 0)
	return best
}

func TestQMFindsMinimumCubeCountWidth3(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 3)
		cover, err := MinimizeQM(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(p, cover); err != nil {
			t.Fatal(err)
		}
		want := bruteForceMinCubes(p)
		if len(cover) != want {
			t.Errorf("trial %d: QM found %d cubes, optimum is %d (on=%v dc=%v)",
				trial, len(cover), want, p.On, p.DC)
		}
	}
}

func TestPrimeImplicantsAreMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(rng, 4)
		if len(p.On) == 0 {
			continue
		}
		allowed := map[uint32]bool{}
		for _, m := range p.On {
			allowed[m] = true
		}
		for _, m := range p.DC {
			allowed[m] = true
		}
		primes := mustPrimes(t, p)
		for _, c := range primes {
			// Valid: covers only allowed minterms.
			for _, m := range c.Minterms() {
				if !allowed[m] {
					t.Fatalf("prime %v covers off-set minterm %d", c, m)
				}
			}
			// Maximal: freeing any cared bit breaks validity.
			for b := 0; b < p.Width; b++ {
				if c.Care>>uint(b)&1 == 0 {
					continue
				}
				bigger := bitseq.NewCube(c.Value&^(1<<uint(b)), c.Care&^(1<<uint(b)), p.Width)
				ok := true
				for _, m := range bigger.Minterms() {
					if !allowed[m] {
						ok = false
						break
					}
				}
				if ok {
					t.Fatalf("prime %v is not maximal: %v also valid", c, bigger)
				}
			}
		}
	}
}

func TestMinimizeDeterministic(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 6)
	a, err := Minimize(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Minimize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("nondeterministic cover size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic cover at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkMinimizeQMWidth8(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(11)), 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeQM(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeHeuristicWidth10(b *testing.B) {
	p := randomProblem(rand.New(rand.NewSource(11)), 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MinimizeHeuristic(p); err != nil {
			b.Fatal(err)
		}
	}
}
