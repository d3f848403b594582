package bitseq

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromStringRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", ""},
		{"0", "0"},
		{"1", "1"},
		{"0000 1000 1011 1101 1110 1111", "000010001011110111101111"},
		{"01_10", "0110"},
	}
	for _, c := range cases {
		b, err := FromString(c.in)
		if err != nil {
			t.Fatalf("FromString(%q): %v", c.in, err)
		}
		if got := b.String(); got != c.want {
			t.Errorf("FromString(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFromStringInvalid(t *testing.T) {
	for _, s := range []string{"2", "01a", "0,1"} {
		if _, err := FromString(s); err == nil {
			t.Errorf("FromString(%q): expected error", s)
		}
	}
}

func TestBitsAppendAt(t *testing.T) {
	b := &Bits{}
	// Cross the word boundary to exercise packing.
	want := make([]bool, 200)
	for i := range want {
		want[i] = i%3 == 0 || i%7 == 0
		b.Append(want[i])
	}
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	for i, w := range want {
		if b.At(i) != w {
			t.Fatalf("At(%d) = %v, want %v", i, b.At(i), w)
		}
	}
}

func TestBitsOnes(t *testing.T) {
	b := MustFromString("10110001")
	if got := b.Ones(); got != 4 {
		t.Errorf("Ones = %d, want 4", got)
	}
	if got := b.Bit(0); got != 1 {
		t.Errorf("Bit(0) = %d, want 1", got)
	}
	if got := b.Bit(1); got != 0 {
		t.Errorf("Bit(1) = %d, want 0", got)
	}
}

func TestBitsClone(t *testing.T) {
	b := MustFromString("1010")
	c := b.Clone()
	c.Append(true)
	if b.Len() != 4 || c.Len() != 5 {
		t.Fatalf("clone not independent: %d vs %d", b.Len(), c.Len())
	}
}

func TestBitsAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range At")
		}
	}()
	MustFromString("1").At(1)
}

// TestFromBoolsMatchesAppend checks the word-at-a-time packer against
// bit-by-bit Append at the word edges and at a search trace's length.
func TestFromBoolsMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 512000} {
		vs := make([]bool, n)
		want := &Bits{}
		for i := range vs {
			vs[i] = rng.Intn(2) == 1
			want.Append(vs[i])
		}
		got := FromBools(vs)
		if got.Len() != n || !slices.Equal(got.Words(), want.Words()) {
			t.Fatalf("n=%d: FromBools packs %d bits into %d words, Append %d words", n, got.Len(), len(got.Words()), len(want.Words()))
		}
	}
}

func TestBitsRoundTripQuick(t *testing.T) {
	f := func(vs []bool) bool {
		b := FromBools(vs)
		got := b.Bools()
		if len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistoryPush(t *testing.T) {
	h := NewHistory(3)
	if h.Warm() {
		t.Fatal("new history should not be warm")
	}
	// Push 1,0,1 -> oldest-first "101" -> value 0b101.
	h.Push(true)
	h.Push(false)
	v := h.Push(true)
	if v != 0b101 {
		t.Fatalf("value = %03b, want 101", v)
	}
	if !h.Warm() {
		t.Fatal("history should be warm after Width pushes")
	}
	// Push 1 -> window slides to "011".
	if v := h.Push(true); v != 0b011 {
		t.Fatalf("value = %03b, want 011", v)
	}
	if got := h.String(); got != "011" {
		t.Fatalf("String = %q, want 011", got)
	}
}

func TestHistoryStartupString(t *testing.T) {
	h := NewHistory(4)
	h.Push(true)
	if got := h.String(); got != "xxx1" {
		t.Fatalf("String = %q, want xxx1", got)
	}
}

func TestHistoryReset(t *testing.T) {
	h := NewHistory(2)
	h.Push(true)
	h.Push(true)
	h.Reset()
	if h.Value() != 0 || h.Seen() != 0 || h.Warm() {
		t.Fatal("Reset did not clear state")
	}
}

func TestHistoryWidthPanics(t *testing.T) {
	for _, w := range []int{0, 33, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistory(%d): expected panic", w)
				}
			}()
			NewHistory(w)
		}()
	}
}

func TestHistoryStringRoundTrip(t *testing.T) {
	f := func(v uint32, wraw uint8) bool {
		w := int(wraw%32) + 1
		v &= uint32(1)<<uint(w) - 1
		s := HistoryString(v, w)
		got, err := ParseHistory(s)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseHistoryErrors(t *testing.T) {
	for _, s := range []string{"", "012", "abc", "111111111111111111111111111111111"} {
		if _, err := ParseHistory(s); err == nil {
			t.Errorf("ParseHistory(%q): expected error", s)
		}
	}
}

func TestCubeParseString(t *testing.T) {
	cases := []string{"1x", "0x1x", "0xx1x", "0", "1", "xxxx", "101", "x-X"}
	wants := []string{"1x", "0x1x", "0xx1x", "0", "1", "xxxx", "101", "xxx"}
	for i, s := range cases {
		c, err := ParseCube(s)
		if err != nil {
			t.Fatalf("ParseCube(%q): %v", s, err)
		}
		if got := c.String(); got != wants[i] {
			t.Errorf("ParseCube(%q).String() = %q, want %q", s, got, wants[i])
		}
	}
}

func TestCubeMatches(t *testing.T) {
	// "1x": oldest bit is 1. Width 2, so histories 10 (0b10) and 11 (0b11).
	c := MustParseCube("1x")
	for h, want := range map[uint32]bool{0b00: false, 0b01: false, 0b10: true, 0b11: true} {
		if got := c.Matches(h); got != want {
			t.Errorf("1x matches %02b = %v, want %v", h, got, want)
		}
	}
}

func TestCubeMinterms(t *testing.T) {
	c := MustParseCube("x1x")
	got := c.Minterms()
	want := []uint32{0b010, 0b011, 0b110, 0b111}
	if len(got) != len(want) {
		t.Fatalf("Minterms = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Minterms = %v, want %v", got, want)
		}
	}
	if c.Size() != 4 || c.FreeCount() != 2 || c.Literals() != 1 {
		t.Errorf("Size/FreeCount/Literals = %d/%d/%d, want 4/2/1",
			c.Size(), c.FreeCount(), c.Literals())
	}
}

func TestCubeContains(t *testing.T) {
	big := MustParseCube("1xx")
	small := MustParseCube("10x")
	if !big.Contains(small) {
		t.Error("1xx should contain 10x")
	}
	if small.Contains(big) {
		t.Error("10x should not contain 1xx")
	}
	if !big.Contains(big) {
		t.Error("cube should contain itself")
	}
	other := MustParseCube("0xx")
	if big.Contains(other) || big.Intersects(other) {
		t.Error("1xx should not contain or intersect 0xx")
	}
}

func TestCubeCombine(t *testing.T) {
	a := MustParseCube("101")
	b := MustParseCube("111")
	got, ok := a.Combine(b)
	if !ok || got.String() != "1x1" {
		t.Fatalf("Combine = %v/%v, want 1x1", got, ok)
	}
	// Differ in two bits: no combine.
	if _, ok := MustParseCube("00").Combine(MustParseCube("11")); ok {
		t.Error("cubes differing in two bits must not combine")
	}
	// Different care masks: no combine.
	if _, ok := MustParseCube("0x").Combine(MustParseCube("x0")); ok {
		t.Error("cubes with different care masks must not combine")
	}
}

func TestCubeCombineCoversUnionQuick(t *testing.T) {
	// Whenever Combine succeeds, the result covers exactly the union of the
	// two inputs' minterms.
	f := func(v1, v2, care uint32, wraw uint8) bool {
		w := int(wraw%10) + 2
		a := NewCube(v1, care|1, w)
		b := NewCube(v2, care|1, w)
		m, ok := a.Combine(b)
		if !ok {
			return true
		}
		seen := map[uint32]bool{}
		for _, x := range a.Minterms() {
			seen[x] = true
		}
		for _, x := range b.Minterms() {
			seen[x] = true
		}
		ms := m.Minterms()
		if uint64(len(seen)) != m.Size() {
			return false
		}
		for _, x := range ms {
			if !seen[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinterm(t *testing.T) {
	m := Minterm(0b101, 3)
	if !m.IsMinterm() || m.String() != "101" || m.Size() != 1 {
		t.Fatalf("Minterm(101) = %v", m)
	}
}

func TestCoverMatches(t *testing.T) {
	cover := []Cube{MustParseCube("1x"), MustParseCube("x1")}
	for h, want := range map[uint32]bool{0b00: false, 0b01: true, 0b10: true, 0b11: true} {
		if got := CoverMatches(cover, h); got != want {
			t.Errorf("CoverMatches(%02b) = %v, want %v", h, got, want)
		}
	}
}

func TestSortCubesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cubes := make([]Cube, 50)
	for i := range cubes {
		cubes[i] = NewCube(rng.Uint32(), rng.Uint32(), 6)
	}
	a := append([]Cube(nil), cubes...)
	b := append([]Cube(nil), cubes...)
	// Shuffle b, sort both, expect identical order.
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	SortCubes(a)
	SortCubes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SortCubes not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCubeWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width 0")
		}
	}()
	NewCube(0, 0, 0)
}

func TestFromWords(t *testing.T) {
	src := MustFromString("1011 0010 1110 0001 1")
	words := append([]uint64(nil), src.Words()...)
	got := FromWords(words, src.Len())
	if got.Len() != src.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), src.Len())
	}
	for i := 0; i < src.Len(); i++ {
		if got.At(i) != src.At(i) {
			t.Fatalf("bit %d differs", i)
		}
	}
	// Dirty padding beyond n must be cleared so appends and window reads
	// stay exact.
	dirty := []uint64{0xFFFFFFFFFFFFFFFF}
	b := FromWords(dirty, 3)
	if b.Len() != 3 || b.Words()[0] != 0b111 {
		t.Fatalf("padding not cleared: %#x", b.Words()[0])
	}
	b.Append(false)
	b.Append(true)
	if b.Len() != 5 || !b.At(4) || b.At(3) {
		t.Fatal("append after FromWords broken")
	}
	// Too-short word slices must panic, not read garbage.
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords(1 word, 65 bits) did not panic")
		}
	}()
	FromWords(make([]uint64, 1), 65)
}
