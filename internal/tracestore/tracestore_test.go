package tracestore

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/disktier"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/vpred"
	"fsmpredict/internal/workload"
)

// randomEvents builds a deterministic pseudo-random trace over a small
// set of static branches.
func randomEvents(seed int64, n, statics int) []trace.BranchEvent {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.BranchEvent, n)
	for i := range events {
		events[i] = trace.BranchEvent{
			PC:    0x4000 + uint64(rng.Intn(statics))*4,
			Taken: rng.Intn(2) == 1,
		}
	}
	return events
}

func TestPackRoundTrip(t *testing.T) {
	events := randomEvents(1, 5000, 7)
	p := Pack(events)
	if p.Len() != len(events) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(events))
	}
	back := p.Events()
	for i, e := range events {
		if back[i] != e {
			t.Fatalf("event %d: got %+v, want %+v", i, back[i], e)
		}
		if p.PCOf(p.IDAt(i)) != e.PC || p.Taken(i) != e.Taken {
			t.Fatalf("accessor mismatch at %d", i)
		}
	}
}

func TestPackInterningDeterministic(t *testing.T) {
	events := randomEvents(2, 2000, 5)
	a, b := Pack(events), Pack(events)
	if a.NumStatics() != b.NumStatics() {
		t.Fatalf("statics differ: %d vs %d", a.NumStatics(), b.NumStatics())
	}
	for id := int32(0); id < int32(a.NumStatics()); id++ {
		if a.PCOf(id) != b.PCOf(id) {
			t.Fatalf("ID %d interned differently: %#x vs %#x", id, a.PCOf(id), b.PCOf(id))
		}
	}
	// IDs are assigned in first-appearance order.
	seen := map[uint64]bool{}
	var next int32
	for _, e := range events {
		if !seen[e.PC] {
			seen[e.PC] = true
			if id, _ := a.IDOf(e.PC); id != next {
				t.Fatalf("PC %#x interned as %d, want %d", e.PC, id, next)
			}
			next++
		}
	}
}

// TestSubstreamsMatchScan checks each branch's substream view against a
// direct scan of the event slice.
func TestSubstreamsMatchScan(t *testing.T) {
	events := randomEvents(3, 5000, 9)
	p := Pack(events)
	for id := int32(0); id < int32(p.NumStatics()); id++ {
		pc := p.PCOf(id)
		sub := p.SubOf(id)
		k := 0
		for i, e := range events {
			if e.PC != pc {
				continue
			}
			if k >= len(sub.Pos) || sub.Pos[k] != int32(i) {
				t.Fatalf("branch %#x occurrence %d: wrong position", pc, k)
			}
			if sub.Outcomes.At(k) != e.Taken {
				t.Fatalf("branch %#x occurrence %d: wrong outcome", pc, k)
			}
			k++
		}
		if k != len(sub.Pos) || k != sub.Outcomes.Len() {
			t.Fatalf("branch %#x: substream length %d/%d, want %d", pc, len(sub.Pos), sub.Outcomes.Len(), k)
		}
	}
}

// TestGlobalHistoryMatchesHistoryRegister checks the packed window
// extraction against the bitseq.History push semantics it must mirror.
func TestGlobalHistoryMatchesHistoryRegister(t *testing.T) {
	events := randomEvents(4, 3000, 4)
	p := Pack(events)
	for _, order := range []int{1, 2, 5, 9, 13, 31, 32} {
		h := bitseq.NewHistory(order)
		for i, e := range events {
			if h.Warm() {
				if got, want := p.GlobalHistory(i, order), h.Value(); got != want {
					t.Fatalf("order %d pos %d: history %#x, want %#x", order, i, got, want)
				}
			}
			h.Push(e.Taken)
		}
	}
}

// TestGlobalModelsMatchGlobalMarkov is the differential test for the
// packed training substrate: models built from substream views must be
// identical to trace.GlobalMarkov over the event slice.
func TestGlobalModelsMatchGlobalMarkov(t *testing.T) {
	events := randomEvents(5, 8000, 6)
	p := Pack(events)
	for _, order := range []int{1, 4, 9, 12} {
		ids := make([]int32, p.NumStatics())
		targets := map[uint64]bool{}
		for id := range ids {
			ids[id] = int32(id)
			targets[p.PCOf(int32(id))] = true
		}
		want := trace.GlobalMarkov(events, targets, order)
		got := p.GlobalModels(ids, order)
		for i, id := range ids {
			assertModelsEqual(t, got[i], want[p.PCOf(id)])
		}
	}
}

func assertModelsEqual(t *testing.T, got, want *markov.Model) {
	t.Helper()
	if got.Order() != want.Order() || got.Total() != want.Total() || got.Distinct() != want.Distinct() {
		t.Fatalf("model shape differs: order %d/%d total %d/%d distinct %d/%d",
			got.Order(), want.Order(), got.Total(), want.Total(), got.Distinct(), want.Distinct())
	}
	want.Each(func(h uint32, c markov.Count) {
		if got.Count(h) != c {
			t.Fatalf("history %#x: count %+v, want %+v", h, got.Count(h), c)
		}
	})
}

// TestStoreBranchesMatchesGenerate is the oracle of the store's build
// path: for every program and variant, at lengths around word and pass
// boundaries, the trace packed straight from the emission loop equals
// Pack over the materialized events — IDs, PC table and index, the
// outcome stream and every substream.
func TestStoreBranchesMatchesGenerate(t *testing.T) {
	for _, prog := range workload.BranchSuite() {
		for _, v := range []workload.Variant{workload.Train, workload.Test} {
			for _, n := range []int{1, 63, 64, 65, 4097, 250_000} {
				got := NewStore().Branches(prog, v, n)
				if want := Pack(prog.Generate(v, n)); !packedEqual(got, want) {
					t.Fatalf("%s/%s n=%d: stored trace differs from Pack(Generate)", prog.Name, v, n)
				}
			}
		}
	}
}

// TestStoreConfStreamsMatchesBuild is the same oracle for confidence
// streams: simulated straight from the emission loop, they equal
// BuildConfStreams over the materialized loads, segment spans included.
// The small tables make entries change owner constantly.
func TestStoreConfStreamsMatchesBuild(t *testing.T) {
	for _, prog := range workload.LoadSuite() {
		for _, v := range []workload.Variant{workload.Train, workload.Test} {
			for _, log2 := range []int{2, 4, vpred.TableLog2Default} {
				for _, n := range []int{1, 65, 4097} {
					got := NewStore().ConfStreams(prog, v, n, log2)
					want := BuildConfStreams(prog.Generate(v, n), log2)
					if !confEqual(got, want) {
						t.Fatalf("%s/%s log2=%d n=%d: stored streams differ from BuildConfStreams", prog.Name, v, log2, n)
					}
					for i, seg := range got.Segments {
						if !reflect.DeepEqual(seg.Spans, want.Segments[i].Spans) {
							t.Fatalf("%s/%s log2=%d n=%d: segment %d spans differ", prog.Name, v, log2, n, i)
						}
					}
				}
			}
		}
	}
}

// TestStoreBuildAllocationBound bounds what building a trace allocates
// beyond the trace itself: a packed branch trace at most a quarter of
// its retained size, confidence streams at most 2 bytes per load. At a
// 4-entry table, where the loads cut into the most segments, it bounds
// the allocations instead: a segment's one stream takes its word array
// and its header, so about 2 per segment. The race detector's own
// allocations would count, so it is skipped there.
func TestStoreBuildAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under the race detector")
	}
	prog, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1_000_000
	s := NewStore()
	var p *Packed
	if alloc := allocated(func() { p = s.Branches(prog, workload.Train, n) }); alloc > p.Bytes()*5/4 {
		t.Errorf("branch trace: %d bytes allocated for %d retained, bound 1.25x", alloc, p.Bytes())
	}
	var cs *ConfStreams
	if alloc := allocated(func() { cs = s.ConfStreams(lp, workload.Train, n, vpred.TableLog2Default) }); alloc > uint64(2*cs.Loads()) {
		t.Errorf("confidence streams: %d bytes allocated for %d loads, bound 2 B/load", alloc, cs.Loads())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs = s.ConfStreams(lp, workload.Train, 120_000, 2)
	runtime.ReadMemStats(&after)
	perSeg := float64(after.Mallocs-before.Mallocs) / float64(len(cs.Segments))
	t.Logf("log2=2: %d segments, %.4f allocations per segment, %.1f B/load",
		len(cs.Segments), perSeg, float64(after.TotalAlloc-before.TotalAlloc)/float64(cs.Loads()))
	// The build's own tables and growing slices add a few dozen
	// allocations in all, far below 0.01 per segment.
	if perSeg > 2.01 {
		t.Errorf("confidence streams at log2=2: %.4f allocations per segment, bound 2", perSeg)
	}
}

// allocated reports the bytes the heap allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestStoreDedupAndStats(t *testing.T) {
	s := NewStore()
	prog, _ := workload.ByName("gs")
	lp, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Branches(prog, workload.Train, 2000)
	b := s.Branches(prog, workload.Train, 2000)
	if a != b {
		t.Fatal("same key returned distinct packed traces")
	}
	if c := s.Branches(prog, workload.Test, 2000); c == a {
		t.Fatal("different variant shared a trace")
	}
	c1 := s.ConfStreams(lp, workload.Train, 1000, 4)
	c2 := s.ConfStreams(lp, workload.Train, 1000, 4)
	if c1 != c2 {
		t.Fatal("same load key returned distinct confidence streams")
	}
	st := s.Stats()
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3", st.Misses)
	}
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.Hits)
	}
	if st.Bytes == 0 {
		t.Fatal("bytes not accounted")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

// TestStoreSingleflightStress hammers one store from many goroutines and
// checks every requester of a key observes the same trace, with exactly
// one generation per distinct key. Run under -race in CI.
func TestStoreSingleflightStress(t *testing.T) {
	s := NewStore()
	suite := workload.BranchSuite()
	const goroutines = 16
	const rounds = 8

	var wg sync.WaitGroup
	results := make([][]*Packed, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, prog := range suite {
					results[g] = append(results[g], s.Branches(prog, workload.Train, 1500))
				}
			}
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d result %d is a distinct generation", g, i)
			}
		}
	}
	st := s.Stats()
	if st.Misses != uint64(len(suite)) {
		t.Fatalf("misses = %d, want %d (one generation per program)", st.Misses, len(suite))
	}
	if want := uint64(goroutines*rounds*len(suite)) - st.Misses; st.Hits != want {
		t.Fatalf("hits = %d, want %d", st.Hits, want)
	}
}

// TestSharedStoreConcurrentMixedKinds exercises hit/miss accounting with
// branch-trace and confidence-stream lookups racing on a fresh store.
func TestSharedStoreConcurrentMixedKinds(t *testing.T) {
	s := NewStore()
	lp, err := workload.LoadByName("perl")
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := workload.ByName("vortex")
	var total atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s.Branches(prog, workload.Test, 1000)
				s.ConfStreams(lp, workload.Test, 1000, 4)
				total.Add(2)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != total.Load() {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, total.Load())
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

// TestStoreEvictionBound drives a store with a bound of about two
// traces through distinct keys: resident bytes never exceed the bound
// plus the newest entry, an evicted trace regenerates byte-identically,
// and with a disk tier attached it comes back from the tier instead.
func TestStoreEvictionBound(t *testing.T) {
	prog, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	const events = 4000
	entry := Pack(prog.Generate(workload.Train, events)).Bytes()
	bound := 2*entry + entry/2
	disk, err := disktier.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, withDisk := range []bool{false, true} {
		s := newStore(bound)
		if withDisk {
			s.SetDisk(disk)
		}
		first := s.Branches(prog, workload.Train, events)
		for i := 1; i <= 6; i++ {
			p := s.Branches(prog, workload.Train, events+64*i)
			if st := s.Stats(); st.Bytes > bound+p.Bytes() {
				t.Fatalf("disk %v: %d resident bytes after %d traces, bound %d + entry %d",
					withDisk, st.Bytes, i+1, bound, p.Bytes())
			}
		}
		if n := s.Len(); n > 3 {
			t.Fatalf("disk %v: %d traces resident under a two-and-a-half-trace bound", withDisk, n)
		}
		before := s.Stats()
		again := s.Branches(prog, workload.Train, events)
		if again == first {
			t.Fatalf("disk %v: the oldest trace was never evicted", withDisk)
		}
		if !packedEqual(again, first) {
			t.Fatalf("disk %v: evicted trace came back different", withDisk)
		}
		after := s.Stats()
		if withDisk {
			if after.TierHits != before.TierHits+1 || after.Misses != before.Misses {
				t.Fatalf("evicted trace not served by the disk tier: %+v -> %+v", before, after)
			}
		} else if after.Misses != before.Misses+1 {
			t.Fatalf("evicted trace not regenerated: %+v -> %+v", before, after)
		}
	}
}

// TestStoreEvictionStress races lookups on a store whose bound holds
// about two traces, so entries are evicted while other goroutines wait
// on in-flight generations. Every requester must get a trace identical
// to a fresh generation. Run under -race in CI.
func TestStoreEvictionStress(t *testing.T) {
	suite := workload.BranchSuite()
	want := make([]*Packed, len(suite))
	var largest uint64
	for i, prog := range suite {
		want[i] = Pack(prog.Generate(workload.Train, 1500))
		largest = max(largest, want[i].Bytes())
	}
	s := newStore(2 * largest)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				for j := range suite {
					i := (j + g) % len(suite)
					if got := s.Branches(suite[i], workload.Train, 1500); !packedEqual(got, want[i]) {
						t.Errorf("goroutine %d: %s trace differs from a fresh generation", g, suite[i].Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Bytes > 3*largest {
		t.Fatalf("%d resident bytes, bound %d + entry %d", st.Bytes, 2*largest, largest)
	}
	if st.Misses <= uint64(len(suite)) {
		t.Fatalf("misses = %d: nothing was evicted and regenerated", st.Misses)
	}
	if total := uint64(goroutines * 6 * len(suite)); st.Hits+st.Misses != total {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, total)
	}
}

func TestGlobalHistoryPanics(t *testing.T) {
	p := Pack(randomEvents(6, 100, 2))
	for _, tc := range []struct{ pos, order int }{{0, 1}, {3, 9}, {10, 0}, {50, 33}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GlobalHistory(%d, %d) did not panic", tc.pos, tc.order)
				}
			}()
			p.GlobalHistory(tc.pos, tc.order)
		}()
	}
}

// TestConfStreamsBytesMatchesRetainedHeap pins Bytes to the heap a
// built ConfStreams keeps alive: within 10% at the paper's 2K-entry
// table, where a few long segments hold the bits, and at a 4-entry
// table, where every load opens a segment of its own. The race
// detector's own bookkeeping inflates the heap, so it is skipped there.
func TestConfStreamsBytesMatchesRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("retained heap is inflated under the race detector")
	}
	lp, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ log2, loads int }{{2, 100_000}, {vpred.TableLog2Default, 1_000_000}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cs := buildConf(lp, workload.Train, c.loads, c.log2)
		runtime.GC()
		runtime.ReadMemStats(&after)
		heap := after.HeapAlloc - before.HeapAlloc
		got := cs.Bytes()
		t.Logf("log2=%d: %d segments, Bytes %d, retained heap %d", c.log2, len(cs.Segments), got, heap)
		if d := float64(got) - float64(heap); d > 0.1*float64(heap) || -d > 0.1*float64(heap) {
			t.Errorf("log2=%d: Bytes %d, retained heap %d: off by more than 10%%", c.log2, got, heap)
		}
		runtime.KeepAlive(cs)
	}
}
