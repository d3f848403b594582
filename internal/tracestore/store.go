package tracestore

import (
	"fmt"
	"math"

	"fsmpredict/internal/memo"
	"fsmpredict/internal/workload"
)

// Key is the content address of a generated trace. The synthetic
// workloads are pure functions of these fields — the variant selects the
// derived seed and parameter jitter — so equal keys guarantee equal
// traces.
type Key struct {
	// Kind separates the two event spaces ("branch" or "load").
	Kind string
	// Program is the benchmark name (e.g. "vortex").
	Program string
	// Variant is the input data set ("train" or "test").
	Variant string
	// Events is the requested event count.
	Events int
}

// String renders the key in its canonical one-line form, from which
// the disk tier's artifact addresses are derived.
func (k Key) String() string {
	return fmt.Sprintf("%s:%s/%s/%d", k.Kind, k.Program, k.Variant, k.Events)
}

// BranchKey addresses a branch trace.
func BranchKey(program string, v workload.Variant, events int) Key {
	return Key{Kind: "branch", Program: program, Variant: v.String(), Events: events}
}

// LoadKey addresses a load-value trace.
func LoadKey(program string, v workload.Variant, events int) Key {
	return Key{Kind: "load", Program: program, Variant: v.String(), Events: events}
}

// maxBytes bounds the store's resident traces. It holds the cold paper
// grid (about 45 MB) and the serve workload's traces (about 25 MB) with
// room to spare; past it the least recently used traces are evicted.
// The newest trace is always kept, so one maximal service reference
// (16M events, about 132 MB) is still served.
const maxBytes = 128 << 20

// Stats is a snapshot of a store's counters. Hits includes lookups
// coalesced onto an in-flight generation, TierHits counts traces
// served by the disk tier instead of a regeneration, and Bytes is the
// estimated size of the resident traces.
type Stats = memo.Stats

// sized is what the store holds: a *Packed under a branch key, a
// *ConfStreams under a load key.
type sized interface{ Bytes() uint64 }

// Store is a process-wide content-addressed trace cache with
// singleflight generation and LRU eviction past a byte bound. The zero
// value is not usable; call NewStore.
type Store struct {
	c *memo.Cache[confKey, sized]
}

// NewStore returns an empty store.
func NewStore() *Store { return newStore(maxBytes) }

func newStore(bound uint64) *Store {
	return &Store{c: memo.New[confKey, sized](math.MaxInt, bound, sized.Bytes)}
}

// Shared is the process-wide store the experiments and the serving layer
// use, so repeated runs in one process share generated traces.
var Shared = NewStore()

// Stats snapshots the hit/miss/bytes counters.
func (s *Store) Stats() Stats { return s.c.Stats() }

// Len reports how many traces the store holds (generations still in
// flight are not counted).
func (s *Store) Len() int { return s.c.Len() }

// Clear drops every cached trace while keeping the statistics and the
// disk hookup — the warm-start measurement primitive: after Clear, the
// next lookups expose the disk tier (or regeneration) underneath.
func (s *Store) Clear() { s.c.Clear() }

// Branches returns the packed branch trace of (program, variant, n),
// generating and packing it unless it is resident. Concurrent requests
// for the same key share one generation.
func (s *Store) Branches(p *workload.Program, v workload.Variant, n int) *Packed {
	key := confKey{Key: BranchKey(p.Name, v, n)}
	return s.c.Do(key, nil, func() sized { return packBranches(p, v, n) }).(*Packed)
}
