package memo

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetPutLRU(t *testing.T) {
	c := New[int, string](2, 0, func(s string) uint64 { return uint64(len(s)) })
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "a")
	c.Put(2, "bb")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	// 2 is now least recently used; inserting 3 must evict it.
	c.Put(3, "ccc")
	if _, ok := c.Get(2); ok {
		t.Fatal("expected 2 evicted")
	}
	if v, ok := c.Get(3); !ok || v != "ccc" {
		t.Fatalf("Get(3) = %q, %v", v, ok)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	st := c.Stats()
	if st.Bytes != uint64(len("a")+len("ccc")) {
		t.Fatalf("Bytes = %d, want %d", st.Bytes, len("a")+len("ccc"))
	}
	if st.Entries != 2 {
		t.Fatalf("Entries = %d, want 2", st.Entries)
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New[int, string](4, 0, func(s string) uint64 { return uint64(len(s)) })
	c.Put(1, "aaaa")
	c.Put(1, "b")
	if st := c.Stats(); st.Bytes != 1 || st.Entries != 1 {
		t.Fatalf("after replace: %+v", st)
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[string, int](8, 0, nil)
	calls := 0
	compute := func() int { calls++; return 42 }
	if v := c.Do("k", nil, compute); v != 42 {
		t.Fatalf("Do = %d", v)
	}
	if v := c.Do("k", nil, compute); v != 42 {
		t.Fatalf("Do = %d", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", st)
	}
}

func TestDoValidationDropsStaleEntry(t *testing.T) {
	c := New[int, int](8, 0, nil)
	c.Put(7, 100)
	got := c.Do(7, func(v int) bool { return v == 200 }, func() int { return 200 })
	if got != 200 {
		t.Fatalf("Do = %d, want recomputed 200", got)
	}
	// The recomputed value now validates and is served from cache.
	calls := 0
	got = c.Do(7, func(v int) bool { return v == 200 }, func() int { calls++; return 200 })
	if got != 200 || calls != 0 {
		t.Fatalf("Do = %d (calls %d), want cached 200", got, calls)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New[int, int](8, 0, nil)
	const goroutines = 32
	var (
		calls   atomic.Int32
		release = make(chan struct{})
		wg      sync.WaitGroup
	)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			v := c.Do(1, nil, func() int {
				calls.Add(1)
				<-release
				return 9
			})
			if v != 9 {
				t.Errorf("Do = %d, want 9", v)
			}
		}()
	}
	// Let the flight start, then release it; every waiter shares it.
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines {
		t.Fatalf("hits %d + misses %d != %d goroutines", st.Hits, st.Misses, goroutines)
	}
}

func TestBoundNeverExceeded(t *testing.T) {
	c := New[int, int](3, 0, nil)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
		if c.Len() > 3 {
			t.Fatalf("Len = %d after %d inserts, bound 3", c.Len(), i+1)
		}
	}
}

// TestByteBoundKeepsNewest: the byte bound evicts from the cold end,
// but the entry just inserted always stays, even when it alone exceeds
// the bound.
func TestByteBoundKeepsNewest(t *testing.T) {
	c := New[int, string](100, 10, func(s string) uint64 { return uint64(len(s)) })
	c.Put(1, "aaaa")
	c.Put(2, "bbbb")
	c.Put(3, "cccc") // 12 bytes > 10: key 1 goes
	if _, ok := c.Get(1); ok {
		t.Fatal("expected 1 evicted by the byte bound")
	}
	if st := c.Stats(); st.Bytes != 8 || st.Entries != 2 {
		t.Fatalf("after byte eviction: %+v, want 8 bytes in 2 entries", st)
	}
	big := string(make([]byte, 25))
	c.Put(4, big)
	if v, ok := c.Get(4); !ok || v != big {
		t.Fatal("oversized newest entry not kept")
	}
	if st := c.Stats(); st.Bytes != 25 || st.Entries != 1 {
		t.Fatalf("after oversized insert: %+v, want it alone", st)
	}
	c.Do(5, nil, func() string { return "e" })
	if _, ok := c.Get(4); ok {
		t.Fatal("oversized entry survived a newer insert")
	}
	if st := c.Stats(); st.Bytes != 1 || st.Entries != 1 {
		t.Fatalf("after Do: %+v, want 1 byte in 1 entry", st)
	}
}

// TestDoPanicWaitersRecompute: when compute panics, callers waiting on
// that computation must not be handed the zero value; they retry and
// compute for themselves, even without a validator.
func TestDoPanicWaitersRecompute(t *testing.T) {
	c := New[int, *int](4, 0, nil)
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.Do(1, nil, func() *int {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started
	got := make(chan *int)
	go func() {
		got <- c.Do(1, nil, func() *int { v := 7; return &v })
	}()
	// Release the panicking compute only once the second caller is
	// parked on its flight.
	for !waitingInDo() {
		runtime.Gosched()
	}
	close(release)
	if v := <-got; v == nil || *v != 7 {
		t.Fatalf("waiter got %v, want its own recomputed 7", v)
	}
	if v, ok := c.Get(1); !ok || *v != 7 {
		t.Fatal("recomputed value not cached")
	}
}

// waitingInDo reports whether some goroutine is blocked on a channel
// receive directly inside Cache.Do, i.e. waiting on another caller's
// flight.
func waitingInDo() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		lines := bytes.SplitN(g, []byte("\n"), 3)
		if len(lines) >= 2 && bytes.Contains(lines[0], []byte("[chan receive")) &&
			bytes.Contains(lines[1], []byte("memo.(*Cache[")) && bytes.Contains(lines[1], []byte(").Do(")) {
			return true
		}
	}
	return false
}

func TestTier2HitDistinguishedFromRecompute(t *testing.T) {
	disk := map[int]int{7: 70}
	var loads, stores, computes int
	c := New[int, int](4, 0, nil)
	c.SetTier2(
		func(k int) (int, bool) { loads++; v, ok := disk[k]; return v, ok },
		func(k, v int) { stores++; disk[k] = v },
	)

	// Key 7 is on "disk": served by tier 2, not recomputed.
	if v := c.Do(7, nil, func() int { computes++; return -1 }); v != 70 {
		t.Fatalf("Do(7) = %d, want 70 from tier 2", v)
	}
	// Key 8 is nowhere: recomputed and published to tier 2.
	if v := c.Do(8, nil, func() int { computes++; return 80 }); v != 80 {
		t.Fatalf("Do(8) = %d, want 80", v)
	}
	// Both now hit tier 1.
	c.Do(7, nil, func() int { computes++; return -1 })
	c.Do(8, nil, func() int { computes++; return -1 })

	st := c.Stats()
	if st.Hits != 2 || st.TierHits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want hits=2 tierHits=1 misses=1", st)
	}
	if computes != 1 || loads != 2 || stores != 1 {
		t.Fatalf("computes=%d loads=%d stores=%d, want 1/2/1", computes, loads, stores)
	}
	if disk[8] != 80 {
		t.Fatalf("tier 2 not filled after compute: %v", disk)
	}
}

func TestTier2ValueValidated(t *testing.T) {
	c := New[int, int](4, 0, nil)
	c.SetTier2(
		func(k int) (int, bool) { return 666, true }, // corrupt/stale tier-2 value
		nil,
	)
	v := c.Do(1, func(v int) bool { return v == 42 }, func() int { return 42 })
	if v != 42 {
		t.Fatalf("Do = %d; invalid tier-2 value must fall through to compute", v)
	}
	st := c.Stats()
	if st.TierHits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the rejected tier-2 load counted as a recompute", st)
	}
}

func TestClearDropsEntriesKeepsStats(t *testing.T) {
	c := New[int, int](4, 0, func(int) uint64 { return 1 })
	c.Do(1, nil, func() int { return 10 })
	c.Do(1, nil, func() int { return -1 })
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 0 {
		t.Fatalf("stats after Clear = %+v", st)
	}
	// Cleared key recomputes.
	var again bool
	c.Do(1, nil, func() int { again = true; return 10 })
	if !again {
		t.Fatal("cleared entry still served")
	}
}

// TestTier2GetPut pins the tier-aware Get and Put: an in-process miss
// that the second tier serves installs the value and counts a
// TierHit, one neither tier serves counts a Miss, and Put publishes
// to the tier exactly once.
func TestTier2GetPut(t *testing.T) {
	disk := map[int]int{7: 70}
	var loads, stores int
	c := New[int, int](4, 0, nil)
	c.SetTier2(
		func(k int) (int, bool) { loads++; v, ok := disk[k]; return v, ok },
		func(k, v int) { stores++; disk[k] = v },
	)

	if v, ok := c.Get(7); !ok || v != 70 {
		t.Fatalf("Get(7) = %d, %v; want 70 from tier 2", v, ok)
	}
	if _, ok := c.Get(8); ok {
		t.Fatal("Get(8) hit; neither tier holds it")
	}
	if st := c.Stats(); st.Hits != 0 || st.TierHits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want tierHits=1 misses=1 entries=1", st)
	}
	// The tier-2 value is now resident: no second load.
	if v, ok := c.Get(7); !ok || v != 70 || loads != 2 {
		t.Fatalf("Get(7) = %d, %v after %d loads; want a tier-1 hit", v, ok, loads)
	}
	if stores != 0 {
		t.Fatalf("Get published %d values to tier 2", stores)
	}

	c.Put(8, 80)
	if stores != 1 || disk[8] != 80 {
		t.Fatalf("Put: %d stores, tier 2 = %v; want 8 published once", stores, disk)
	}
	c.Clear()
	if v, ok := c.Get(8); !ok || v != 80 {
		t.Fatalf("Get(8) after Clear = %d, %v; want 80 from tier 2", v, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.TierHits != 2 || st.Misses != 1 || stores != 1 {
		t.Fatalf("stats = %+v after %d stores, want hits=1 tierHits=2 misses=1 and no republish", st, stores)
	}
}
