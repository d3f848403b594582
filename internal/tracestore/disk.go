package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/disktier"
)

// The trace store's disk tier. Synthetic traces are pure functions of
// their Key, but generating and packing a 10M-event trace takes long
// enough to dominate a cold bench run; the packed struct-of-arrays form
// (and the stride-predictor correctness streams derived from load
// traces) serialize compactly, so a restarted process reloads them
// instead of regenerating. Artifacts are validated on decode — length
// against the key's event count, IDs against the PC table, implication
// invariants on the confidence bits — so corruption or key collisions
// degrade to regeneration, never to wrong bits.

const (
	traceKind    = "trace"
	traceVersion = 1

	confKind    = "confstream"
	confVersion = 1

	spanKind    = "spanidx"
	spanVersion = 1
)

// SetDisk attaches a disk store beneath the trace cache (nil detaches).
// Loads and stores run inside the per-key singleflight slot, so each
// artifact is read or written at most once per generation even under
// concurrent demand; a branch trace's span index is loaded, or scanned
// and stored, in the same slot.
func (s *Store) SetDisk(d *disktier.Store) {
	if d == nil {
		s.c.SetTier2(nil, nil)
		return
	}
	s.c.SetTier2(
		func(k confKey) (sized, bool) {
			if k.Kind == "branch" {
				p, ok := diskLoadPacked(d, k.Key)
				if ok {
					attachSpans(d, k.Key, p)
				}
				return p, ok
			}
			// A disk hit skips not only the stride-predictor simulation
			// but the load-trace generation feeding it.
			return diskLoadConf(d, k)
		},
		func(k confKey, v sized) {
			switch v := v.(type) {
			case *Packed:
				d.Put(traceKind, traceVersion, branchAddress(k.Key), encodePacked(v))
				attachSpans(d, k.Key, v)
			case *ConfStreams:
				d.Put(confKind, confVersion, confAddress(k), encodeConfStreams(v))
			}
		},
	)
}

// attachSpans gives a branch trace its run index before the trace is
// shared: loaded (and validated against the trace words) from the tier
// when present, otherwise scanned once here and persisted for the next
// process.
func attachSpans(d *disktier.Store, k Key, p *Packed) {
	if runs, ok := diskLoadSpans(d, k, p); ok {
		p.seedSpanIndex(runs)
	} else {
		d.Put(spanKind, spanVersion, spanAddress(k), encodeSpanIndex(p.SpanIndex()))
	}
}

// diskAddress renders a store key as a disk-tier address. Key strings
// contain ':' and '/', which the tier's address grammar rejects, so the
// address is the SHA-256 of the canonical string — collision-free in
// practice and validated structurally on decode regardless.
func diskAddress(canonical string) string {
	h := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(h[:])
}

func branchAddress(k Key) string { return diskAddress(k.String()) }

func confAddress(k confKey) string {
	return diskAddress(fmt.Sprintf("%s|conf|%d", k.Key.String(), k.TableLog2))
}

func spanAddress(k Key) string {
	return diskAddress(fmt.Sprintf("%s|spanidx|%d", k.String(), bitseq.DefaultMinRunBytes))
}

// encodePacked renders a packed trace: event count, PC table, per-event
// ID stream, then the packed outcome words. The substream views and the
// PC index are derived data and rebuilt on decode.
func encodePacked(p *Packed) []byte {
	words := p.outcomes.Words()
	b := make([]byte, 0, 20+8*len(p.pcs)+4*len(p.ids)+8*len(words))
	b = disktier.AppendU32(b, uint32(len(p.ids)))
	b = disktier.AppendU64s(b, p.pcs)
	b = disktier.AppendI32s(b, p.ids)
	b = disktier.AppendU64s(b, words)
	return b
}

// decodePacked parses a payload back into a packed trace, rebuilding
// the substream views and the PC index exactly as Pack would. Any
// structural inconsistency — ID out of range, duplicate PC, unused ID,
// word count mismatch — reads as a miss.
func decodePacked(payload []byte) (*Packed, bool) {
	r := disktier.NewReader(payload)
	n := int(r.U32())
	pcs := r.U64s()
	ids := r.I32s()
	words := r.U64s()
	if !r.Done() || n < 0 || len(ids) != n || len(words) != (n+63)/64 {
		return nil, false
	}
	counts := make([]int, len(pcs))
	for _, id := range ids {
		if id < 0 || int(id) >= len(pcs) {
			return nil, false
		}
		counts[id]++
	}
	byPC := make(map[uint64]int32, len(pcs))
	for i, pc := range pcs {
		if _, dup := byPC[pc]; dup {
			return nil, false
		}
		if counts[i] == 0 {
			return nil, false // interned PC with no events: not a Pack output
		}
		byPC[pc] = int32(i)
	}
	p := &Packed{
		ids:      ids,
		pcs:      pcs,
		outcomes: bitseq.FromWords(words, n),
		subs:     make([]Sub, len(pcs)),
		byPC:     byPC,
	}
	for i := range p.subs {
		p.subs[i].Outcomes = &bitseq.Bits{}
		p.subs[i].Pos = make([]int32, 0, counts[i])
	}
	for i, id := range p.ids {
		s := &p.subs[id]
		s.Outcomes.Append(p.outcomes.At(i))
		s.Pos = append(s.Pos, int32(i))
	}
	return p, true
}

// encodeConfStreams renders the global valid/correct streams followed
// by each segment's length and streams.
func encodeConfStreams(cs *ConfStreams) []byte {
	n := cs.Valid.Len()
	b := make([]byte, 0, 24+2*(n/8)+24*len(cs.Segments)+2*(n/8))
	b = disktier.AppendU32(b, uint32(n))
	b = disktier.AppendU64s(b, cs.Valid.Words())
	b = disktier.AppendU64s(b, cs.Correct.Words())
	b = disktier.AppendU32(b, uint32(len(cs.Segments)))
	for _, seg := range cs.Segments {
		b = disktier.AppendU32(b, uint32(seg.Valid.Len()))
		b = disktier.AppendU64s(b, seg.Valid.Words())
		b = disktier.AppendU64s(b, seg.Correct.Words())
	}
	return b
}

// decodeConfStreams parses confidence streams, enforcing the harness
// invariants: Correct implies Valid bit-for-bit, and the segment
// lengths partition the load count.
func decodeConfStreams(payload []byte) (*ConfStreams, bool) {
	r := disktier.NewReader(payload)
	n := int(r.U32())
	valid, ok := readStream(r, n)
	if !ok {
		return nil, false
	}
	correct, ok := readStream(r, n)
	if !ok {
		return nil, false
	}
	if !impliesBitwise(correct, valid) {
		return nil, false
	}
	nseg := int(r.U32())
	if r.Err() || nseg < 0 || nseg > n {
		return nil, false
	}
	cs := &ConfStreams{Valid: valid, Correct: correct}
	total := 0
	for i := 0; i < nseg; i++ {
		sl := int(r.U32())
		sv, ok := readStream(r, sl)
		if !ok {
			return nil, false
		}
		sc, ok := readStream(r, sl)
		if !ok || !impliesBitwise(sc, sv) {
			return nil, false
		}
		total += sl
		cs.Segments = append(cs.Segments, ConfSegment{Valid: sv, Correct: sc})
	}
	if !r.Done() || total != n {
		return nil, false
	}
	// Span indexes are derived data, never persisted: rederive them so a
	// decoded artifact is structurally identical to a fresh build.
	cs.indexSpans()
	return cs, true
}

// readStream decodes one count-prefixed word slice as an n-bit stream,
// rejecting length mismatches and set padding bits.
func readStream(r *disktier.Reader, n int) (*bitseq.Bits, bool) {
	words := r.U64s()
	if r.Err() || n < 0 || len(words) != (n+63)/64 {
		return nil, false
	}
	if rem := uint(n % 64); rem != 0 && len(words) > 0 && words[len(words)-1]>>rem != 0 {
		return nil, false
	}
	return bitseq.FromWords(words, n), true
}

// impliesBitwise reports whether every set bit of a is also set in b.
// Both streams have clean padding, so the word-level check suffices.
func impliesBitwise(a, b *bitseq.Bits) bool {
	aw, bw := a.Words(), b.Words()
	if len(aw) != len(bw) {
		return false
	}
	for i := range aw {
		if aw[i]&^bw[i] != 0 {
			return false
		}
	}
	return true
}

// encodeSpanIndex renders a trace's run index: the run count, then each
// run's start position, byte length, and repeated bit.
func encodeSpanIndex(runs []bitseq.Run) []byte {
	b := make([]byte, 0, 4+9*len(runs))
	b = disktier.AppendU32(b, uint32(len(runs)))
	for _, r := range runs {
		b = disktier.AppendU32(b, uint32(r.Start))
		b = disktier.AppendU32(b, uint32(r.Bytes))
		var one uint8
		if r.One {
			one = 1
		}
		b = append(b, one)
	}
	return b
}

// decodeSpanIndex parses a run index and validates it against the trace
// it claims to describe: runs must be byte-aligned, in-bounds, ascending
// and non-overlapping, at least the default granularity, and — the part
// that makes corruption harmless — every covered word of the outcome
// stream must actually be homogeneous with the claimed bit. A stale or
// corrupt index reads as a miss and the store rescans; it can never make
// a span kernel skip a mixed region. Non-maximal runs are accepted (they
// only cost speed), so the check is pure word compares, no rescan.
func decodeSpanIndex(payload []byte, p *Packed) ([]bitseq.Run, bool) {
	r := disktier.NewReader(payload)
	count := int(r.U32())
	words, n := p.Outcomes().Words(), p.Outcomes().Len()
	if r.Err() || count < 0 || count > n/8+1 {
		return nil, false
	}
	// nil for an empty index, matching a fresh scan exactly.
	var runs []bitseq.Run
	if count > 0 {
		runs = make([]bitseq.Run, 0, count)
	}
	prevEnd := 0
	for i := 0; i < count; i++ {
		start, nbytes := int(r.U32()), int(r.U32())
		one := r.U8() != 0
		if r.Err() || start&7 != 0 || start < prevEnd || nbytes < bitseq.DefaultMinRunBytes {
			return nil, false
		}
		end := start + nbytes<<3
		if end > n&^7 {
			return nil, false
		}
		var want uint64
		if one {
			want = ^uint64(0)
		}
		for j := start >> 3; j < end>>3; j++ {
			if uint8(words[j>>3]>>uint((j&7)<<3)) != uint8(want) {
				return nil, false
			}
		}
		runs = append(runs, bitseq.Run{Start: int32(start), Bytes: int32(nbytes), One: one})
		prevEnd = end
	}
	if !r.Done() {
		return nil, false
	}
	return runs, true
}

// diskLoadSpans consults the disk tier for a trace's run index,
// validating it against the already-loaded trace words.
func diskLoadSpans(d *disktier.Store, k Key, p *Packed) ([]bitseq.Run, bool) {
	blob, ok := d.Get(spanKind, spanVersion, spanAddress(k))
	if !ok {
		return nil, false
	}
	defer blob.Close()
	return decodeSpanIndex(blob.Data, p)
}

// diskLoadPacked consults the disk tier for a branch trace. Generation
// completes whole program iterations, so a trace carries at least —
// not exactly — the key's event count; a shorter artifact cannot be
// the key's trace and reads as a miss.
func diskLoadPacked(d *disktier.Store, k Key) (*Packed, bool) {
	blob, ok := d.Get(traceKind, traceVersion, branchAddress(k))
	if !ok {
		return nil, false
	}
	defer blob.Close()
	p, ok := decodePacked(blob.Data)
	if !ok || p.Len() < k.Events {
		return nil, false
	}
	return p, true
}

// diskLoadConf consults the disk tier for confidence streams; like
// branch traces, the underlying load generation rounds up to whole
// iterations, so the streams must cover at least the key's load count.
func diskLoadConf(d *disktier.Store, k confKey) (*ConfStreams, bool) {
	blob, ok := d.Get(confKind, confVersion, confAddress(k))
	if !ok {
		return nil, false
	}
	defer blob.Close()
	cs, ok := decodeConfStreams(blob.Data)
	if !ok || cs.Loads() < k.Events {
		return nil, false
	}
	return cs, true
}
