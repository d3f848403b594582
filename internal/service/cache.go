package service

import (
	"crypto/sha256"
	"fmt"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/core"
	"fsmpredict/internal/memo"
	"fsmpredict/internal/trace"
)

// cacheKey is the content address of a design request: the SHA-256 of
// the canonical trace bytes plus a canonical rendering of the options
// that influence the result. Two requests share a key iff the design
// flow is guaranteed to produce the identical artifact for both.
type cacheKey [sha256.Size]byte

// String returns the key in hex, the form exposed on the wire.
func (k cacheKey) String() string { return fmt.Sprintf("%x", k[:]) }

// requestKey hashes a (trace, options) pair. Options are canonicalized
// first so that an explicit bias threshold of 0.5 and the zero-value
// default address the same entry; StageObserver is observational only
// and is deliberately excluded.
func requestKey(bits *bitseq.Bits, opt core.Options) cacheKey {
	opt = opt.Canonical()
	h := sha256.New()
	h.Write(trace.CanonicalBits(bits))
	// Artifacts is in the key because the response carries the pipeline's
	// intermediate sizes: a direct-construction result, though its machine
	// is identical, must not satisfy a request that asked for them.
	fmt.Fprintf(h, "order=%d bias=%v dc=%v keepUnseen=%t keepStartup=%t artifacts=%t name=%q\n",
		opt.Order, opt.BiasThreshold, opt.DontCareBudget,
		opt.KeepUnseen, opt.KeepStartup, opt.Artifacts, opt.Name)
	var k cacheKey
	h.Sum(k[:0])
	return k
}

// designCache is a bounded LRU of finished design results, keyed by
// content address — a thin wrapper over the shared memo.Cache (the same
// machinery backing the fsm block-table cache) that preserves the
// service's nil-receiver semantics for the caching-disabled mode.
// Results are immutable once inserted, so a cached *Result is shared by
// all readers. Request deduplication stays in the Service's inflight
// map: design execution must flow through the bounded worker pool, not
// memo's caller-side singleflight.
type designCache struct {
	c *memo.Cache[cacheKey, *Result]
}

// resultBytes approximates a cached result's retained size for the
// cache's Bytes stat: the dominant payloads are the canonical machine
// JSON and the VHDL source.
func resultBytes(r *Result) uint64 {
	if r == nil {
		return 0
	}
	return uint64(len(r.Machine) + len(r.VHDL) + len(r.Key))
}

func newDesignCache(max int) *designCache {
	return &designCache{c: memo.New[cacheKey, *Result](max, 0, resultBytes)}
}

// get returns the cached result for the key, refreshing its recency.
func (c *designCache) get(k cacheKey) (*Result, bool) {
	if c == nil {
		return nil, false
	}
	return c.c.Get(k)
}

// put inserts a result, evicting the least recently used entry when the
// bound is exceeded.
func (c *designCache) put(k cacheKey, res *Result) {
	if c == nil {
		return
	}
	c.c.Put(k, res)
}

// clear drops every cached design, keeping statistics (the warm-start
// measurement hook behind Service.DropCaches).
func (c *designCache) clear() {
	if c == nil {
		return
	}
	c.c.Clear()
}

// len reports the number of cached designs.
func (c *designCache) len() int {
	if c == nil {
		return 0
	}
	return c.c.Len()
}

// stats reports the cache's hit/miss/size counters.
func (c *designCache) stats() memo.Stats {
	if c == nil {
		return memo.Stats{}
	}
	return c.c.Stats()
}
