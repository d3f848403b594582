package bitseq

import (
	"math/bits"
	"unsafe"
)

// Set is a dense bitset over the fixed universe [0, n). It replaces the
// map[int]bool sets the automaton kernels (subset construction, Hopcroft
// refinement, recurrent-state search) and the espresso minterm tables
// were originally built on: membership is one shift and mask, union is a
// word-wise OR, and the packed words double as a canonical map key, so
// interning a set costs no per-element string formatting.
//
// The zero Set is empty with an empty universe; use NewSet or Reset to
// size it. Methods panic on out-of-range indices only via the slice
// bounds check, keeping the hot paths branch-free.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set over the universe [0, n).
func NewSet(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Reset clears the set and, if needed, regrows it for a universe of n.
// It reuses the existing backing array when large enough, so a scratch
// set can serve many rounds without reallocating.
func (s *Set) Reset(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	return s.words[i>>6]>>uint(i&63)&1 == 1
}

// Len returns the number of elements (population count).
func (s *Set) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	return &Set{words: append([]uint64(nil), s.words...), n: s.n}
}

// Copy overwrites s with the contents of other (universes must match in
// word count; Reset first if not).
func (s *Set) Copy(other *Set) {
	copy(s.words, other.words)
}

// UnionWith adds every element of other to s.
func (s *Set) UnionWith(other *Set) {
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// IntersectWith removes every element of s not in other.
func (s *Set) IntersectWith(other *Set) {
	for i := range s.words {
		s.words[i] &= other.words[i]
	}
}

// Equal reports whether two sets over the same universe hold the same
// elements.
func (s *Set) Equal(other *Set) bool {
	if len(s.words) != len(other.words) {
		return false
	}
	for i, w := range s.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// AppendTo appends the elements in ascending order and returns the
// extended slice, letting callers reuse one scratch buffer.
func (s *Set) AppendTo(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi<<6+b)
			w &= w - 1
		}
	}
	return dst
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Key returns the packed words as a string, a canonical map key for sets
// over the same universe: two sets collide iff they are equal, and
// building the key is one allocation (the string copy) instead of the
// per-element integer formatting the kernels used before.
func (s *Set) Key() string {
	if len(s.words) == 0 {
		return ""
	}
	p := (*byte)(unsafe.Pointer(&s.words[0]))
	return string(unsafe.Slice(p, 8*len(s.words)))
}
