package tracestore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"fsmpredict/internal/disktier"
	"fsmpredict/internal/trace"
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

// flight is one singleflight slot: the first requester generates, every
// later requester blocks on done and shares the result.
type flight[T any] struct {
	done chan struct{}
	val  T
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Hits counts lookups served from an existing (or in-flight) entry.
	Hits uint64
	// TierHits counts lookups served by the disk tier instead of a
	// regeneration.
	TierHits uint64
	// Misses counts lookups that had to generate.
	Misses uint64
	// Bytes is the estimated retained size of all stored traces.
	Bytes uint64
}

// Store is a process-wide content-addressed trace cache with
// singleflight generation. The zero value is not usable; call NewStore.
// Entries live for the life of the store — the workload suite is a small
// closed set, so there is no eviction.
type Store struct {
	mu       sync.Mutex
	branches map[Key]*flight[*Packed]
	loads    map[Key]*flight[[]trace.LoadEvent]
	confs    map[confKey]*flight[*ConfStreams] // lazily allocated
	disk     *disktier.Store                   // optional second tier

	hits     atomic.Uint64
	tierHits atomic.Uint64
	misses   atomic.Uint64
	bytes    atomic.Uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		branches: make(map[Key]*flight[*Packed]),
		loads:    make(map[Key]*flight[[]trace.LoadEvent]),
	}
}

// Shared is the process-wide store the experiments and the serving layer
// use, so repeated runs in one process share generated traces.
var Shared = NewStore()

// Stats snapshots the hit/miss/bytes counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:     s.hits.Load(),
		TierHits: s.tierHits.Load(),
		Misses:   s.misses.Load(),
		Bytes:    s.bytes.Load(),
	}
}

// Len reports how many traces the store holds (including in-flight
// generations).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.branches) + len(s.loads) + len(s.confs)
}

// Branches returns the packed branch trace of (program, variant, n),
// generating and packing it on first request. Concurrent requests for
// the same key share one generation.
func (s *Store) Branches(p *workload.Program, v workload.Variant, n int) *Packed {
	key := BranchKey(p.Name, v, n)
	s.mu.Lock()
	if f, ok := s.branches[key]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		<-f.done
		return f.val
	}
	f := &flight[*Packed]{done: make(chan struct{})}
	s.branches[key] = f
	disk := s.disk
	s.mu.Unlock()

	if packed, ok := s.diskLoadPacked(disk, key); ok {
		s.tierHits.Add(1)
		f.val = packed
	} else {
		s.misses.Add(1)
		f.val = Pack(p.Generate(v, n))
		if disk != nil {
			disk.Put(traceKind, traceVersion, branchAddress(key), encodePacked(f.val))
		}
	}
	if disk != nil {
		// The run index rides the same singleflight slot: loaded (and
		// validated against the trace words) from the tier when present,
		// otherwise scanned once here and persisted for the next process.
		if runs, ok := s.diskLoadSpans(disk, key, f.val); ok {
			f.val.seedSpanIndex(runs)
		} else {
			disk.Put(spanKind, spanVersion, spanAddress(key), encodeSpanIndex(f.val.SpanIndex()))
		}
	}
	s.bytes.Add(f.val.Bytes())
	close(f.done)
	return f.val
}

// BranchesByName is Branches for a benchmark looked up in the suite.
func (s *Store) BranchesByName(program string, v workload.Variant, n int) (*Packed, error) {
	p, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	return s.Branches(p, v, n), nil
}

// Loads returns the load-value trace of (program, variant, n),
// generating it on first request. The returned slice is shared and must
// be treated as immutable.
func (s *Store) Loads(p *workload.LoadProgram, v workload.Variant, n int) []trace.LoadEvent {
	key := LoadKey(p.Name, v, n)
	s.mu.Lock()
	if f, ok := s.loads[key]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		<-f.done
		return f.val
	}
	f := &flight[[]trace.LoadEvent]{done: make(chan struct{})}
	s.loads[key] = f
	s.mu.Unlock()
	s.misses.Add(1)

	f.val = p.Generate(v, n)
	s.bytes.Add(uint64(16 * len(f.val)))
	close(f.done)
	return f.val
}
