package fsm

import "fsmpredict/internal/memo"

// The process-wide block-table cache, content-addressed by a 64-bit
// machine hash with full structural verification on every hit (memo's
// validator), so a hash collision or a caller mutating a machine after
// its table was compiled can never serve stale superstep results. The
// bound comfortably covers every machine a full figure regeneration
// touches (counter sweeps, per-threshold confidence FSMs, per-branch
// custom predictors); a designed predictor compiled once — during
// Figure 4 training, say — is found again by Figure 5's replay and by
// /v1/simulate, because the address is the machine's content, not its
// identity.
const blockCacheEntries = 512

var blockCache = memo.New[uint64, *BlockTable](blockCacheEntries, (*BlockTable).Bytes)

// BlockTableFor returns the shared closure table for a machine,
// compiling and caching it on first use. It returns nil — callers then
// fall back to the scalar path — when the machine is unrepresentable
// (invalid, or over 256 states). Safe for concurrent use; steady-state
// lookups allocate nothing.
func BlockTableFor(m *Machine) *BlockTable {
	if m == nil {
		return nil
	}
	if n := m.NumStates(); n == 0 || n > maxBlockStates {
		return nil
	}
	if m.Validate() != nil {
		return nil
	}
	return blockCache.Do(m.blockHash(),
		func(t *BlockTable) bool { return t.compiledFrom(m) },
		func() *BlockTable {
			t, err := CompileBlockTable(m)
			if err != nil {
				// Unreachable: the machine was validated above.
				panic(err)
			}
			return t
		})
}

// BlockStats snapshots the shared block-table cache counters — the
// source of the fsmpredict_blocktable_* gauges and the -v stats lines
// of the bench commands.
func BlockStats() memo.Stats { return blockCache.Stats() }

// blockHash is the cache address of a machine's simulation-relevant
// content (Name excluded): an FNV-1a fold over the state count, start
// state and transition/output rows. Collisions are tolerable — the
// cache verifies structurally on every hit — so 64 bits suffice.
func (m *Machine) blockHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(m.Next)))
	mix(uint64(m.Start))
	for s, row := range m.Next {
		b := uint64(0)
		if m.Output[s] {
			b = 1
		}
		mix(b<<62 | uint64(row[0])<<31 | uint64(row[1]))
	}
	return h
}
