package bitseq

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(200)
	if !s.Empty() || s.Len() != 0 || s.n != 200 {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		s.Add(i)
	}
	if s.Empty() || s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if !s.Has(64) || s.Has(66) {
		t.Fatal("membership wrong")
	}
	if s.Min() != 0 {
		t.Fatalf("Min = %d, want 0", s.Min())
	}
	s.Remove(0)
	if s.Has(0) || s.Min() != 1 {
		t.Fatalf("after Remove(0): Has(0)=%v Min=%d", s.Has(0), s.Min())
	}
	want := []int{1, 63, 64, 65, 127, 128, 199}
	got := s.AppendTo(nil)
	if len(got) != len(want) {
		t.Fatalf("AppendTo = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendTo = %v, want %v", got, want)
		}
	}
	var walked []int
	s.ForEach(func(i int) { walked = append(walked, i) })
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("ForEach = %v, want %v", walked, want)
		}
	}
}

func TestSetUnionIntersect(t *testing.T) {
	a, b := NewSet(130), NewSet(130)
	a.Add(1)
	a.Add(100)
	b.Add(100)
	b.Add(129)
	u := a.Clone()
	u.UnionWith(b)
	if u.Len() != 3 || !u.Has(1) || !u.Has(100) || !u.Has(129) {
		t.Fatalf("union wrong: %v", u.AppendTo(nil))
	}
	i := a.Clone()
	i.IntersectWith(b)
	if i.Len() != 1 || !i.Has(100) {
		t.Fatalf("intersection wrong: %v", i.AppendTo(nil))
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("Equal wrong")
	}
}

func TestSetReset(t *testing.T) {
	s := NewSet(100)
	s.Add(99)
	s.Reset(50)
	if !s.Empty() || s.n != 50 {
		t.Fatal("Reset(50) did not clear")
	}
	s.Add(49)
	s.Reset(1000)
	if !s.Empty() || s.n != 1000 {
		t.Fatal("Reset(1000) did not clear/grow")
	}
	s.Add(999)
	if !s.Has(999) {
		t.Fatal("grown set lost Add")
	}
}

func TestSetKeyCanonical(t *testing.T) {
	a, b := NewSet(192), NewSet(192)
	keys := map[string]bool{}
	for _, i := range []int{5, 64, 191} {
		a.Add(i)
		b.Add(i)
	}
	if a.Key() != b.Key() {
		t.Fatal("equal sets have different keys")
	}
	keys[a.Key()] = true
	b.Add(0)
	if keys[b.Key()] {
		t.Fatal("different sets share a key")
	}
	// Key survives later mutation of the set (it must be a copy).
	k := a.Key()
	a.Add(7)
	if a.Key() == k {
		t.Fatal("key did not change after mutation")
	}
	if !NewSet(0).Empty() || NewSet(0).Key() != "" {
		t.Fatal("empty-universe set wrong")
	}
}

// TestSetAgainstMap cross-checks the bitset against a map[int]bool model
// under a random operation stream.
func TestSetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 300
	s := NewSet(n)
	model := map[int]bool{}
	for op := 0; op < 5000; op++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			s.Add(i)
			model[i] = true
		case 1:
			s.Remove(i)
			delete(model, i)
		default:
			if s.Has(i) != model[i] {
				t.Fatalf("op %d: Has(%d) = %v, model %v", op, i, s.Has(i), model[i])
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
	var want []int
	for i := range model {
		want = append(want, i)
	}
	sort.Ints(want)
	got := s.AppendTo(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elements diverge: %v vs %v", got, want)
		}
	}
}

func TestCubeEachMinterm(t *testing.T) {
	for _, spec := range []string{"1x0x", "xxx", "101", "x", "1111", "0x1x0x"} {
		c := MustParseCube(spec)
		want := c.Minterms()
		var got []uint32
		c.EachMinterm(func(m uint32) bool {
			got = append(got, m)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("%s: %d minterms, want %d", spec, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: EachMinterm order %v, want %v", spec, got, want)
			}
		}
		// Early stop.
		n := 0
		c.EachMinterm(func(uint32) bool { n++; return n < 2 })
		if len(want) >= 2 && n != 2 {
			t.Fatalf("%s: early stop visited %d", spec, n)
		}
	}
}
