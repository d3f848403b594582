// Package bitseq provides the basic bit-level vocabulary shared by the FSM
// predictor design flow: compact binary sequences (Bits), fixed-width
// sliding history registers (History), and three-valued 0/1/x patterns
// (Cube).
//
// Conventions used throughout the module:
//
//   - A history of width W is stored in the low W bits of an unsigned
//     integer with the MOST RECENT input in bit 0 (the LSB). Pushing a new
//     input b therefore computes h' = ((h << 1) | b) & mask.
//   - The string form of histories and cubes is written OLDEST FIRST, the
//     way the paper writes patterns such as "1x" (a one, then anything).
//     String index 0 corresponds to integer bit W-1.
package bitseq

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bits is an append-only sequence of bits, stored packed. The zero value is
// an empty, ready-to-use sequence.
type Bits struct {
	words []uint64
	n     int
}

// FromString parses a sequence such as "0000 1000 1011"; spaces, tabs and
// underscores are ignored. It returns an error on any other character.
func FromString(s string) (*Bits, error) {
	b := &Bits{}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			b.Append(false)
		case '1':
			b.Append(true)
		case ' ', '\t', '\n', '\r', '_':
		default:
			return nil, fmt.Errorf("bitseq: invalid character %q at offset %d", s[i], i)
		}
	}
	return b, nil
}

// MustFromString is FromString but panics on error. Intended for tests and
// literals.
func MustFromString(s string) *Bits {
	b, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// FromWords builds a sequence of n bits over a packed word slice (bit i
// of the sequence in bit i%64 of words[i/64], the layout Words exposes).
// The slice is adopted, not copied — the caller must not reuse it — and
// bits at n and beyond are cleared, restoring the zero-padding invariant
// the packed kernels rely on. It panics if words is too short for n.
func FromWords(words []uint64, n int) *Bits {
	if n < 0 || (n+63)/64 > len(words) {
		panic(fmt.Sprintf("bitseq: %d words cannot hold %d bits", len(words), n))
	}
	words = words[:(n+63)/64]
	if rem := uint(n % 64); rem != 0 {
		words[len(words)-1] &= (1 << rem) - 1
	}
	return &Bits{words: words, n: n}
}

// FromBools builds a sequence from a slice of booleans, packing each
// word from its 64 booleans into a presized slice.
func FromBools(vs []bool) *Bits {
	words := make([]uint64, (len(vs)+63)/64)
	for w := range words {
		var x uint64
		for k, v := range vs[w<<6 : min(w<<6+64, len(vs))] {
			if v {
				x |= 1 << uint(k)
			}
		}
		words[w] = x
	}
	return &Bits{words: words, n: len(vs)}
}

// Append adds one bit to the end of the sequence.
func (b *Bits) Append(v bool) {
	w, off := b.n/64, uint(b.n%64)
	if w == len(b.words) {
		b.words = append(b.words, 0)
	}
	if v {
		b.words[w] |= 1 << off
	}
	b.n++
}

// AppendBit adds 0 or 1; any nonzero value counts as 1.
func (b *Bits) AppendBit(v int) { b.Append(v != 0) }

// Len reports the number of bits in the sequence.
func (b *Bits) Len() int { return b.n }

// At returns bit i (0 = first appended). It panics if i is out of range.
func (b *Bits) At(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitseq: index %d out of range [0,%d)", i, b.n))
	}
	return b.words[i/64]>>(uint(i%64))&1 == 1
}

// Bit returns bit i as 0 or 1.
func (b *Bits) Bit(i int) int {
	if b.At(i) {
		return 1
	}
	return 0
}

// Uint64At returns w bits starting at position i as an integer, with bit
// i of the sequence in bit 0 of the result. It panics unless
// 0 <= i <= i+w <= Len() and 0 <= w <= 64. Window reads are the packed
// counterpart of re-scanning a trace: extracting an order-N history is
// two word reads instead of N appends.
func (b *Bits) Uint64At(i, w int) uint64 {
	if w < 0 || w > 64 {
		panic(fmt.Sprintf("bitseq: window width %d out of range [0,64]", w))
	}
	if i < 0 || i+w > b.n {
		panic(fmt.Sprintf("bitseq: window [%d,%d) out of range [0,%d)", i, i+w, b.n))
	}
	if w == 0 {
		return 0
	}
	word, off := i/64, uint(i%64)
	v := b.words[word] >> off
	if rem := 64 - int(off); rem < w {
		v |= b.words[word+1] << uint(rem)
	}
	if w == 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// Ones counts the set bits. Append never sets bits past Len, so the
// count is a word-level popcount rather than a per-bit scan.
func (b *Bits) Ones() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Words exposes the packed backing store: bit i of the sequence is
// words()[i/64] >> (i%64) & 1, and every bit at position Len() or above
// is zero. The slice is shared, not copied — callers must treat it as
// read-only. It is the input format of the fsm block-table kernels,
// which consume the sequence a byte at a time.
func (b *Bits) Words() []uint64 { return b.words }

// String renders the sequence as a string of '0' and '1' in append order.
func (b *Bits) String() string {
	var sb strings.Builder
	sb.Grow(b.n)
	for i := 0; i < b.n; i++ {
		if b.At(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Bools returns the sequence as a fresh slice of booleans.
func (b *Bits) Bools() []bool {
	out := make([]bool, b.n)
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}

// Clone returns an independent copy of the sequence.
func (b *Bits) Clone() *Bits {
	return &Bits{words: append([]uint64(nil), b.words...), n: b.n}
}

// History is a fixed-width sliding register over {0,1}. The most recent
// input occupies bit 0. Seen reports how many inputs have been pushed so
// far, which lets callers distinguish the undefined start-up period.
type History struct {
	Width int
	value uint32
	seen  int
}

// NewHistory returns a history register of the given width (1..32).
func NewHistory(width int) *History {
	if width < 1 || width > 32 {
		panic(fmt.Sprintf("bitseq: history width %d out of range [1,32]", width))
	}
	return &History{Width: width}
}

// Push shifts in one input bit and returns the new register value.
func (h *History) Push(b bool) uint32 {
	h.value = (h.value<<1 | boolBit(b)) & h.Mask()
	h.seen++
	return h.value
}

// Value returns the current register contents (low Width bits).
func (h *History) Value() uint32 { return h.value }

// Seen reports how many bits have been pushed since creation or Reset.
func (h *History) Seen() int { return h.seen }

// Warm reports whether at least Width bits have been pushed, i.e. the
// register no longer contains undefined start-up zeros.
func (h *History) Warm() bool { return h.seen >= h.Width }

// Mask returns the bit mask covering the register width.
func (h *History) Mask() uint32 {
	return uint32(1)<<uint(h.Width) - 1
}

// Reset clears the register and the seen counter.
func (h *History) Reset() { h.value, h.seen = 0, 0 }

// String renders the register oldest-first ("x" for positions not yet
// pushed).
func (h *History) String() string {
	var sb strings.Builder
	for i := h.Width - 1; i >= 0; i-- {
		switch {
		case i >= h.seen && h.seen < h.Width:
			sb.WriteByte('x')
		case h.value>>uint(i)&1 == 1:
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// HistoryString renders a W-bit history value oldest-first, e.g.
// HistoryString(0b10, 2) == "10" (a 1 followed by a 0, the 0 most recent).
func HistoryString(h uint32, width int) string {
	var sb strings.Builder
	for i := width - 1; i >= 0; i-- {
		if h>>uint(i)&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseHistory parses an oldest-first history string of '0'/'1' into its
// integer value.
func ParseHistory(s string) (uint32, error) {
	if len(s) == 0 || len(s) > 32 {
		return 0, fmt.Errorf("bitseq: history length %d out of range [1,32]", len(s))
	}
	var v uint32
	for i := 0; i < len(s); i++ {
		v <<= 1
		switch s[i] {
		case '1':
			v |= 1
		case '0':
		default:
			return 0, fmt.Errorf("bitseq: invalid history character %q", s[i])
		}
	}
	return v, nil
}
