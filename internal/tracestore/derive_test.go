package tracestore

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"fsmpredict/internal/workload"
)

// TestDeriveSingleflight races many goroutines on one key: build must
// run once and every caller must share its artifact. A failed build is
// memoized like a value, and distinct keys build independently.
func TestDeriveSingleflight(t *testing.T) {
	const callers = 16
	type artifact struct{ n int }
	type key struct{ order int }
	p := Pack(randomEvents(3, 2000, 5))

	var builds atomic.Int32
	got := make([]any, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			<-start
			v, err := p.Derive(key{9}, func() (any, error) {
				builds.Add(1)
				return &artifact{n: 9}, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want 1", n)
	}
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, v, got[0])
		}
	}

	// A different key builds its own artifact.
	other, err := p.Derive(key{5}, func() (any, error) { return &artifact{n: 5}, nil })
	if err != nil || other == got[0] || other.(*artifact).n != 5 {
		t.Fatalf("distinct key: got %v, %v", other, err)
	}

	// An error is memoized too: the second build never runs.
	boom := errors.New("boom")
	builds.Store(0)
	for i := 0; i < 2; i++ {
		_, err := p.Derive(key{1}, func() (any, error) {
			builds.Add(1)
			if builds.Load() == 1 {
				return nil, boom
			}
			return &artifact{n: 1}, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want the memoized build error", i, err)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("failed build ran %d times, want 1", n)
	}

	// Lookup sees only finished, successful builds and never builds.
	if v, ok := p.Lookup(key{9}); !ok || v != got[0] {
		t.Fatalf("Lookup of a built key: got %v, %v", v, ok)
	}
	if _, ok := p.Lookup(key{1}); ok {
		t.Fatal("Lookup returned a key whose build failed")
	}
	if _, ok := p.Lookup(key{7}); ok {
		t.Fatal("Lookup returned a key never derived")
	}
	if _, err := p.Derive(key{7}, func() (any, error) {
		if _, ok := p.Lookup(key{7}); ok {
			t.Error("Lookup returned a key whose build is in flight")
		}
		return &artifact{n: 7}, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveDroppedByClear checks derived artifacts share their trace's
// lifetime: once Store.Clear or eviction drops a trace, the store hands
// out a fresh trace, and deriving on it builds anew; ConfStreams
// memoize the same way.
func TestDeriveDroppedByClear(t *testing.T) {
	prog, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *Store
		drop func(*Store)
	}{
		{"clear", NewStore(), (*Store).Clear},
		// A one-byte bound keeps only the newest entry, so one more
		// lookup evicts both traces.
		{"evict", newStore(1), func(s *Store) { s.Branches(prog, workload.Test, 100) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type key struct{}
			var builds int
			build := func() (any, error) { builds++; return builds, nil }

			for round := 1; round <= 2; round++ {
				p := tc.s.Branches(prog, workload.Train, 5000)
				cs := tc.s.ConfStreams(lp, workload.Train, 5000, 8)
				for i := 0; i < 2; i++ {
					if _, err := p.Derive(key{}, build); err != nil {
						t.Fatal(err)
					}
					if _, err := cs.Derive(key{}, build); err != nil {
						t.Fatal(err)
					}
				}
				if builds != 2*round {
					t.Fatalf("round %d: %d builds, want %d", round, builds, 2*round)
				}
				tc.drop(tc.s)
			}
		})
	}
}
