// Package fidelity is the adaptive-fidelity evaluation engine behind
// the candidate-scoring loops: a staged evaluation ladder (ladder.go)
// that screens predictor cohorts on simpoint-selected representative
// windows and escalates statistical survivors through widening window
// tiers — clustered representatives first, then a strided uniform gate
// — to an exact full-trace rung, and a persistent fitness memo (this
// file) that remembers every exact full-fidelity measurement by
// content — structurally identical machine, identical trace, identical
// warm-up — across cohorts, generations, searches, and, through the
// disk tier, process restarts.
//
// The contract that keeps reported results exact: ONLY exact
// full-fidelity miss rates enter the memo, and pruning is only ever a
// skip-ahead — a pruned candidate keeps its estimate as a fitness
// value, but anything a caller reports (a search champion, a figure
// point) is re-scored at full fidelity first. DESIGN.md §Adaptive
// fidelity spells out why that makes the ladder unable to change any
// figure output.
//
// A fitness key addresses the exact miss rate of the machine with the
// canonical bytes it was derived from. Callers may derive it from any
// machine that mispredicts on exactly the same events as the one they
// score: the GA search keys each genome on its minimal machine
// (fsm.Machine.Minimal), so behaviourally equal genomes share one
// entry. That changes no stored value's meaning, so the disk-tier
// artifact version did not change with it.
package fidelity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/memo"
)

// Key addresses one exact fitness measurement: a SHA-256 over the
// machine's canonical structure, the trace digest, and the warm-up
// length. At 256 bits the key IS the content for all practical
// purposes, so no structural re-verification is needed on a hit (the
// disk tier still CRC-checks and shape-validates its payloads).
type Key [sha256.Size]byte

func (k Key) hex() string { return hex.EncodeToString(k[:]) }

const (
	// fitnessKind addresses single miss-rate artifacts in the disk tier.
	fitnessKind = "fitness"
	// sweepKind addresses exact result-vector artifacts (the figure
	// prefix sweeps and sampled-miss batches).
	sweepKind = "fitsweep"
	// fitnessVersion / sweepVersion are the artifact format versions;
	// bump on any layout change and stale files recompute cleanly.
	fitnessVersion = 1
	sweepVersion   = 1

	// memoEntries bounds the in-process fitness tier: a full GA run
	// touches a few thousand distinct machines, so 64k entries hold
	// many searches' worth of exact scores.
	memoEntries = 1 << 16
	// memoEntryBytes is the accounted footprint of one fitness entry
	// (key + value + LRU bookkeeping), for the memo_bytes metric.
	memoEntryBytes = 120
	// sweepEntries bounds the in-process sweep tier; sweep vectors are
	// per-(figure, program, trace), so a handful suffice.
	sweepEntries = 64
)

var (
	fitnessCache = memo.New[Key, float64](memoEntries, 0, func(float64) uint64 { return memoEntryBytes })
	sweepCache   = memo.New[Key, []fsm.SimResult](sweepEntries, 0, func(v []fsm.SimResult) uint64 {
		return uint64(16*len(v)) + 64
	})
)

// Stats is a point-in-time snapshot of the fitness and sweep memos'
// counters — the source of the fsmpredict_search_{fitness_hits,memo_bytes}
// gauges.
type Stats struct {
	// Hits counts memo lookups served, from either tier.
	Hits uint64
	// DiskHits counts the subset of Hits served by the disk tier.
	DiskHits uint64
	// Misses counts memo lookups that found nothing.
	Misses uint64
	// Entries and Bytes describe the in-process fitness tier.
	Entries uint64
	Bytes   uint64
}

// Snapshot returns the current counters, read from the two caches.
func Snapshot() Stats {
	fs, ss := fitnessCache.Stats(), sweepCache.Stats()
	return Stats{
		Hits:     fs.Hits + fs.TierHits + ss.Hits + ss.TierHits,
		DiskHits: fs.TierHits + ss.TierHits,
		Misses:   fs.Misses + ss.Misses,
		Entries:  fs.Entries,
		Bytes:    fs.Bytes,
	}
}

// SetDiskTier attaches a disk store beneath the fitness and sweep memos
// (nil detaches). Intended to be called once at startup via
// cachewire.Setup, alongside the block-table and trace tiers.
func SetDiskTier(d *disktier.Store) {
	setTier(fitnessCache, d, fitnessKind, fitnessVersion, encodeFitness, decodeFitness)
	setTier(sweepCache, d, sweepKind, sweepVersion, encodeSweep, decodeSweep)
}

// setTier installs d beneath c as its second tier: a lookup that misses
// in process reads and validates the kind's artifact, and every Put
// writes one.
func setTier[V any](c *memo.Cache[Key, V], d *disktier.Store, kind string, version byte,
	enc func(V) []byte, dec func([]byte) (V, bool)) {
	if d == nil {
		c.SetTier2(nil, nil)
		return
	}
	c.SetTier2(
		func(k Key) (V, bool) {
			blob, ok := d.Get(kind, version, k.hex())
			if !ok {
				var zero V
				return zero, false
			}
			defer blob.Close()
			return dec(blob.Data)
		},
		func(k Key, v V) { d.Put(kind, version, k.hex(), enc(v)) },
	)
}

// ResetMemo drops both in-process tiers (counters and any disk tier
// remain). Warm-start measurement uses it to force the next lookups
// through the disk tier, exactly like fsm.ResetBlockCache.
func ResetMemo() {
	fitnessCache.Clear()
	sweepCache.Clear()
}

// TraceDigest fingerprints the first n events of a packed outcome
// stream. Bits past n in the final word are masked out, so streams that
// agree on their first n outcomes digest identically regardless of
// buffer tails.
func TraceDigest(words []uint64, n int) Key {
	if max := len(words) << 6; n > max {
		n = max
	}
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	h.Write(buf[:])
	full := n >> 6
	for _, w := range words[:full] {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	if rem := n & 63; rem != 0 {
		binary.LittleEndian.PutUint64(buf[:], words[full]&(1<<uint(rem)-1))
		h.Write(buf[:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// FitnessKey derives the memo address of (machine, trace, warmup). The
// machine contributes its canonical structural bytes (Name excluded),
// so renamed or separately-allocated copies of one structure share an
// address; pass a minimal machine to make the address behavioural.
func FitnessKey(m *fsm.Machine, trace Key, warmup int) Key {
	h := sha256.New()
	h.Write([]byte("fitness\x00"))
	h.Write(trace[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(warmup))
	h.Write(buf[:])
	h.Write(m.AppendCanonical(nil))
	var k Key
	h.Sum(k[:0])
	return k
}

// DigestKey derives a memo address for an arbitrary exact-result
// artifact from a domain tag and its content parts — the figure sweeps
// use it to key on (kind, trace content, entry set).
func DigestKey(domain string, parts ...[]byte) Key {
	h := sha256.New()
	h.Write([]byte(domain))
	h.Write([]byte{0})
	var buf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(p)))
		h.Write(buf[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// MemoGet returns the memoized exact miss rate for a key, from either
// tier.
func MemoGet(k Key) (float64, bool) { return fitnessCache.Get(k) }

// MemoPut records an exact full-fidelity miss rate in both tiers.
// Callers must never store estimates — the memo's whole guarantee is
// that a hit is indistinguishable from re-running the full simulation.
func MemoPut(k Key, miss float64) { fitnessCache.Put(k, miss) }

// SweepGet returns a memoized exact result vector (figure sweep or
// sampled-miss batch), from either tier.
func SweepGet(k Key) ([]fsm.SimResult, bool) { return sweepCache.Get(k) }

// SweepPut records an exact result vector in both tiers. Like MemoPut,
// estimates must never be stored.
func SweepPut(k Key, v []fsm.SimResult) { sweepCache.Put(k, v) }

// encodeFitness renders a miss rate as its exact IEEE-754 bits.
func encodeFitness(miss float64) []byte {
	return disktier.AppendU64(nil, math.Float64bits(miss))
}

// decodeFitness parses and sanity-checks a fitness payload; anything
// that is not a plausible miss rate reads as a miss (the caller
// recomputes), so a corrupted artifact that slipped past the CRC can
// never poison a search.
func decodeFitness(payload []byte) (float64, bool) {
	r := disktier.NewReader(payload)
	v := math.Float64frombits(r.U64())
	if !r.Done() || math.IsNaN(v) || v < 0 || v > 1 {
		return 0, false
	}
	return v, true
}

// encodeSweep renders a result vector as count-prefixed (total,
// correct) pairs.
func encodeSweep(v []fsm.SimResult) []byte {
	b := make([]byte, 0, 4+16*len(v))
	b = disktier.AppendU32(b, uint32(len(v)))
	for _, r := range v {
		b = disktier.AppendU64(b, uint64(r.Total))
		b = disktier.AppendU64(b, uint64(r.Correct))
	}
	return b
}

// decodeSweep parses a result vector, validating every pair; any
// inconsistency reads as a miss.
func decodeSweep(payload []byte) ([]fsm.SimResult, bool) {
	r := disktier.NewReader(payload)
	n := int(r.U32())
	if n < 0 || n > 1<<20 {
		return nil, false
	}
	v := make([]fsm.SimResult, n)
	for i := range v {
		total, correct := r.U64(), r.U64()
		if total > 1<<40 || correct > total {
			return nil, false
		}
		v[i] = fsm.SimResult{Total: int(total), Correct: int(correct)}
	}
	if !r.Done() {
		return nil, false
	}
	return v, true
}
