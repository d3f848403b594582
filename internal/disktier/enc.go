package disktier

import "encoding/binary"

// This file is the tiny codec vocabulary the artifact producers share:
// append-style little-endian writers and a cursor reader whose error
// state is sticky, so decoders read a whole layout linearly and check
// Err once at the end. Payload formats stay compact and self-contained;
// the surrounding file header (kind, version, CRC) is the store's job.

// AppendU32 appends a little-endian uint32.
func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendU64s appends a count-prefixed little-endian uint64 slice.
func AppendU64s(b []byte, vs []uint64) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendU64(b, v)
	}
	return b
}

// AppendU32s appends a count-prefixed little-endian uint32 slice.
func AppendU32s(b []byte, vs []uint32) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendU32(b, v)
	}
	return b
}

// AppendI32s appends a count-prefixed little-endian int32 slice.
func AppendI32s(b []byte, vs []int32) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendU32(b, uint32(v))
	}
	return b
}

// AppendBytes appends a count-prefixed byte slice.
func AppendBytes(b []byte, vs []byte) []byte {
	b = AppendU32(b, uint32(len(vs)))
	return append(b, vs...)
}

// maxDecodeElems bounds any single count-prefixed slice a Reader will
// materialize (1 G elements): a corrupted count that survived the CRC
// cannot ask for an absurd allocation.
const maxDecodeElems = 1 << 30

// Reader is a sticky-error cursor over a payload. After any short read
// every further call returns zero values and Err reports failure.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader wraps a payload.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports whether any read ran past the payload.
func (r *Reader) Err() bool { return r.bad }

// take returns the next n bytes, or marks the reader bad.
func (r *Reader) take(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// count reads a slice length and sanity-bounds it.
func (r *Reader) count() int {
	n := int(r.U32())
	if n > maxDecodeElems {
		r.bad = true
		return 0
	}
	return n
}

// U64s reads a count-prefixed uint64 slice.
func (r *Reader) U64s() []uint64 {
	n := r.count()
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vs
}

// U32s reads a count-prefixed uint32 slice.
func (r *Reader) U32s() []uint32 {
	n := r.count()
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return vs
}

// I32s reads a count-prefixed int32 slice.
func (r *Reader) I32s() []int32 {
	n := r.count()
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

// Bytes reads a count-prefixed byte slice (copied out of the payload,
// so it stays valid after the blob closes).
func (r *Reader) Bytes() []byte {
	n := r.count()
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Done reports whether the payload was consumed exactly: no error and
// no trailing garbage.
func (r *Reader) Done() bool { return !r.bad && r.off == len(r.b) }
