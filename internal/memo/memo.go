// Package memo provides the bounded content-addressed cache primitive
// shared by the serving layer and the simulation kernels: an LRU map
// with singleflight request coalescing and hit/miss/byte statistics.
//
// It is the one cache type behind the service's design results, the
// fsm block tables, the fidelity fitness and sweep memos and the trace
// store: values are immutable once inserted and shared by all readers,
// concurrent requests for a missing key block on the one in-flight
// computation instead of duplicating it, and an optional validator lets
// callers content-verify a hit when the key is a lossy digest of the
// source (the fsm block-table cache keys on a 64-bit machine hash and
// re-checks the machine itself).
package memo

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts lookups served from the in-process tier, including
	// requests coalesced onto another caller's in-flight computation.
	Hits uint64
	// TierHits counts lookups served by the second tier (disk) instead
	// of a recompute. Before the tiered stats split, these were
	// indistinguishable from Misses.
	TierHits uint64
	// Misses counts computations actually run (Do) and lookups neither
	// tier served (Get).
	Misses uint64
	// Entries is the current number of cached values.
	Entries uint64
	// Bytes is the retained size of the cached values, as reported by
	// the size function (0 when no size function was given).
	Bytes uint64
}

// Cache is a bounded LRU keyed by K. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	max      int
	maxBytes uint64 // 0 = no byte bound
	size     func(V) uint64
	order    *list.List // front = most recently used; values are *entry[K, V]
	byKey    map[K]*list.Element
	flight   map[K]*flight[V]
	hits     uint64
	tierHits uint64
	misses   uint64
	bytes    uint64

	// Optional second tier, consulted on a miss (by Do inside the
	// singleflight slot before compute runs, and by Get), and filled
	// after a compute and by Put. Both calls happen outside the cache
	// lock — they are expected to do disk IO.
	tier2Load  func(K) (V, bool)
	tier2Store func(K, V)
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// flight is one singleflight slot. ok records that val was produced
// (computed or loaded from the second tier); a slot whose compute
// panicked closes done with ok false.
type flight[V any] struct {
	done chan struct{}
	val  V
	ok   bool
}

// New returns a cache holding at most max entries (max < 1 is treated
// as 1) and, when maxBytes > 0, at most maxBytes of values as reported
// by size — except that the newest entry is always kept, so one value
// larger than maxBytes is still served and cached alone. size, if
// non-nil, reports the retained bytes of a value for the bound and the
// Stats accounting; it is called once per insertion and eviction and
// must return the same figure both times.
func New[K comparable, V any](max int, maxBytes uint64, size func(V) uint64) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	return &Cache[K, V]{
		max:      max,
		maxBytes: maxBytes,
		size:     size,
		order:    list.New(),
		byKey:    make(map[K]*list.Element),
		flight:   make(map[K]*flight[V]),
	}
}

// Get returns the cached value for the key, refreshing its recency. On
// an in-process miss it consults the second tier, if one is attached:
// a tier value is installed and counted in Stats.TierHits, and a
// lookup neither tier serves counts in Stats.Misses.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.order.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, true
	}
	load := c.tier2Load
	c.mu.Unlock()
	var v V
	ok := false
	if load != nil {
		v, ok = load(k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.tierHits++
	c.putLocked(k, v)
	return v, true
}

// Put inserts a value, replacing any existing entry for the key and
// evicting the least recently used entries beyond the bounds, then
// publishes it to the second tier, if one is attached.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	c.putLocked(k, v)
	store := c.tier2Store
	c.mu.Unlock()
	if store != nil {
		store(k, v)
	}
}

func (c *Cache[K, V]) putLocked(k K, v V) {
	if el, ok := c.byKey[k]; ok {
		e := el.Value.(*entry[K, V])
		if c.size != nil {
			c.bytes += c.size(v) - c.size(e.val)
		}
		e.val = v
		c.order.MoveToFront(el)
	} else {
		c.byKey[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
		if c.size != nil {
			c.bytes += c.size(v)
		}
	}
	// The one eviction loop: drop from the cold end while either bound
	// is exceeded, never the entry just inserted.
	for c.order.Len() > c.max || (c.maxBytes > 0 && c.bytes > c.maxBytes && c.order.Len() > 1) {
		c.removeLocked(c.order.Back())
	}
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[K, V])
	c.order.Remove(el)
	delete(c.byKey, e.key)
	if c.size != nil {
		c.bytes -= c.size(e.val)
	}
}

// SetTier2 attaches (or, with nils, detaches) a second cache tier —
// in practice a disk store. On a miss the owning Do call, or Get,
// consults load before computing or reporting a miss; a (validated)
// tier-2 value is installed in the in-process tier and counted in
// Stats.TierHits, distinguishable from a recompute or a miss
// (Stats.Misses). After an actual compute, and on every Put, store
// publishes the value to the tier. Both functions run outside the
// cache lock and must be safe for concurrent use.
func (c *Cache[K, V]) SetTier2(load func(K) (V, bool), store func(K, V)) {
	c.mu.Lock()
	c.tier2Load, c.tier2Store = load, store
	c.mu.Unlock()
}

// Clear drops every cached entry (statistics and the tier-2 hookup are
// retained, and in-flight computations complete normally). It exists
// for warm-start measurement: dropping the in-process tier exposes the
// disk tier underneath.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.order.Len() > 0 {
		c.removeLocked(c.order.Back())
	}
}

// Do returns the value for the key, computing and inserting it on a
// miss. Concurrent Do calls for the same key coalesce: one runs
// compute, the rest block and share its result (counted as hits).
//
// valid, if non-nil, content-verifies a candidate value before it is
// returned; a cached entry that fails validation is dropped and
// recomputed. This is the guard for lossy keys — when K is a hash of
// the value's source, a collision (or a caller mutating the source
// after insertion) yields a stale entry that validation catches. The
// same validation is applied to values surfacing from the second tier,
// so a disk artifact can never be weaker-checked than a memory hit.
func (c *Cache[K, V]) Do(k K, valid func(V) bool, compute func() V) V {
	for {
		c.mu.Lock()
		if el, ok := c.byKey[k]; ok {
			e := el.Value.(*entry[K, V])
			if valid == nil || valid(e.val) {
				c.order.MoveToFront(el)
				c.hits++
				c.mu.Unlock()
				return e.val
			}
			c.removeLocked(el)
		}
		if f, ok := c.flight[k]; ok {
			c.mu.Unlock()
			<-f.done
			// The in-flight computation may have panicked or been for a
			// colliding source; share only a finished, valid value, else
			// retry as the computing caller.
			if f.ok && (valid == nil || valid(f.val)) {
				c.mu.Lock()
				c.hits++
				c.mu.Unlock()
				return f.val
			}
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flight[k] = f
		t2load, t2store := c.tier2Load, c.tier2Store
		c.mu.Unlock()

		// Always clear the flight and release waiters, even if compute
		// panics (f.ok is then false and waiters recompute for
		// themselves). The flight leaves the map before done closes, so
		// a released waiter never finds the finished slot again.
		defer func() {
			c.mu.Lock()
			delete(c.flight, k)
			if f.ok {
				c.putLocked(k, f.val)
			}
			c.mu.Unlock()
			close(f.done)
		}()
		if t2load != nil {
			if v, ok := t2load(k); ok && (valid == nil || valid(v)) {
				c.mu.Lock()
				c.tierHits++
				c.mu.Unlock()
				f.val, f.ok = v, true
				return f.val
			}
		}
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		f.val = compute()
		f.ok = true
		if t2store != nil {
			t2store(k, f.val)
		}
		return f.val
	}
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:     c.hits,
		TierHits: c.tierHits,
		Misses:   c.misses,
		Entries:  uint64(c.order.Len()),
		Bytes:    c.bytes,
	}
}
