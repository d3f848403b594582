package service

import (
	"encoding/json"

	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fsm"
)

// The design cache's disk tier. A Result is already content-addressed
// (Key is the hex SHA-256 of the request) and wire-encoded as JSON, so
// the artifact is simply that encoding under the key's own address; a
// loaded artifact is accepted only if it decodes, names the requested
// key, and carries a machine that validates — the same canonical JSON
// the design pipeline would emit, so a disk hit is byte-identical to a
// recompute for every field the pipeline determines (Stats timings are
// those of the original run, which is the point: they describe the run
// that produced the artifact).

const (
	designKind    = "design"
	designVersion = 1
)

// diskLoadDesign consults the disk tier for a finished design. Any
// decode failure, key mismatch, or invalid machine reads as a miss and
// the pipeline runs.
func (s *Service) diskLoadDesign(key cacheKey) *Result {
	blob, ok := s.disk.Get(designKind, designVersion, key.String())
	if !ok {
		return nil
	}
	defer blob.Close()
	var res Result
	if err := json.Unmarshal(blob.Data, &res); err != nil {
		return nil
	}
	if res.Key != key.String() {
		return nil
	}
	var m fsm.Machine
	if err := json.Unmarshal(res.Machine, &m); err != nil {
		return nil
	}
	if m.Validate() != nil || m.NumStates() != res.States {
		return nil
	}
	return &res
}

// diskStoreDesign publishes a finished design to the disk tier.
func (s *Service) diskStoreDesign(key cacheKey, res *Result) {
	enc, err := json.Marshal(res)
	if err != nil {
		return
	}
	s.disk.Put(designKind, designVersion, key.String(), enc)
}

// DropCaches clears every in-process cache tier the service reads —
// the design-result cache, the trace store, and the process-wide
// block-table cache — while keeping statistics and any disk tier
// attached beneath them. It is the warm-start measurement primitive:
// after DropCaches, the next requests run against a cold memory tier
// with only the disk tier (if configured) warm.
func (s *Service) DropCaches() {
	s.mu.Lock()
	s.cache.clear()
	s.mu.Unlock()
	s.traces.Clear()
	fsm.ResetBlockCache()
}

// Disk returns the disk store configured beneath the service's caches,
// or nil.
func (s *Service) Disk() *disktier.Store { return s.disk }

// registerDiskMetrics exposes the disk store's counters on the
// service's registry.
func registerDiskMetrics(reg *Metrics, d *disktier.Store) {
	reg.Gauge("fsmpredict_diskcache_hits_total", func() uint64 { return d.Stats().Hits })
	reg.Gauge("fsmpredict_diskcache_misses_total", func() uint64 { return d.Stats().Misses })
	reg.Gauge("fsmpredict_diskcache_bytes_total", func() uint64 { return uint64(d.Stats().Bytes) })
	reg.Gauge("fsmpredict_diskcache_evictions_total", func() uint64 { return d.Stats().Evictions })
	reg.Gauge("fsmpredict_diskcache_corrupt_total", func() uint64 { return d.Stats().Corrupt })
	reg.Gauge("fsmpredict_diskcache_entries", func() uint64 { return uint64(d.Len()) })
}

// permille renders part/whole in thousandths, the integer-gauge form of
// a hit ratio (the registry's gauges are uint64-valued).
func permille(part, whole uint64) uint64 {
	if whole == 0 {
		return 0
	}
	return part * 1000 / whole
}
