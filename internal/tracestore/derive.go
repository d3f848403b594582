package tracestore

import (
	"fmt"
	"sync"
)

// derived memoizes artifacts computed from one immutable trace — a
// trained design set, a profiled Markov model — so every consumer of the
// trace in a process derives each artifact once. Packed and ConfStreams
// embed it, which gives them their Derive method.
//
// Artifacts live and die with their trace: a Store.Clear or the store's
// eviction drops the trace and with it everything derived from it, and
// nothing here is written to the disk tier. The zero value is ready to use.
type derived struct {
	slots sync.Map // key -> *derivedSlot
}

// derivedSlot is one memoized artifact: the first Derive for a key
// builds it, concurrent and later callers wait on once and share it.
type derivedSlot struct {
	once sync.Once
	val  any
	err  error
}

// Derive returns the artifact stored under key, calling build to make it
// on the first request. Concurrent callers for the same key share one
// build, and an error is memoized like a value, so build runs at most
// once per key and trace.
//
// Keys must be comparable; give each artifact kind its own unexported
// key type so kinds cannot collide. A key should capture every input the
// artifact depends on besides the trace. The stored artifact is shared
// by every caller and must be treated as immutable. If build panics the
// panic reaches the first caller, and later callers get an error.
func (d *derived) Derive(key any, build func() (any, error)) (any, error) {
	v, ok := d.slots.Load(key)
	if !ok {
		v, _ = d.slots.LoadOrStore(key, new(derivedSlot))
	}
	s := v.(*derivedSlot)
	s.once.Do(func() {
		s.err = fmt.Errorf("tracestore: deriving %T: build panicked", key)
		s.val, s.err = build()
	})
	return s.val, s.err
}
