package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fsm"
)

func TestDesignBatchMatchesDesign(t *testing.T) {
	s := New(Config{Workers: 2, BatchMaxWait: time.Millisecond})
	defer s.Close()
	bits, err := bitseq.FromString(paperTrace)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Design(context.Background(), bits, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	got, hit, err := s.DesignBatch(context.Background(), bits, figure1Options(), "")
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Error("batched repeat of a cached design missed the cache")
	}
	if !bytes.Equal(want.Machine, got.Machine) || want.Key != got.Key {
		t.Errorf("batched result differs from unary result")
	}
}

func TestDesignBatchValidatesBeforeQueueing(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, _, err := s.DesignBatch(context.Background(), &bitseq.Bits{}, figure1Options(), ""); !errors.Is(err, ErrInvalid) {
		t.Errorf("empty trace: err = %v, want ErrInvalid", err)
	}
	st, _ := s.BatchStats()
	if st.Submitted != 0 {
		t.Errorf("invalid request was queued: %+v", st)
	}
}

// TestDesignBatchCoalesces fills one group with duplicates of a few
// distinct requests and checks a single flush dedupes them: one
// pipeline submission per distinct content address, every duplicate
// served from its twin's run.
func TestDesignBatchCoalesces(t *testing.T) {
	const (
		distinct = 3
		copies   = 8
		total    = distinct * copies
	)
	// The group can only flush by size, so exactly one flush sees all
	// total items together.
	s := New(Config{Workers: 4, BatchMaxSize: total, BatchMaxWait: time.Hour, CacheEntries: -1})
	defer s.Close()
	g := &gateDesign{}
	s.designFn = g.fn

	traces := make([]*bitseq.Bits, distinct)
	for i := range traces {
		var err error
		if traces[i], err = bitseq.FromString(fmt.Sprintf("%012b", 0b100010110+i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.DesignBatch(context.Background(), traces[i%distinct], figure1Options(), "shared-trace")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if got := g.count(); got != distinct {
		t.Errorf("pipeline ran %d times, want %d (dedup inside the flush)", got, distinct)
	}
	if c := s.registry.Counter("fsmpredict_batch_design_coalesced_total").Value(); c != total-distinct {
		t.Errorf("coalesced = %d, want %d", c, total-distinct)
	}
	if p := s.registry.Counter("fsmpredict_batch_design_passes_total").Value(); p != distinct {
		t.Errorf("passes = %d, want %d", p, distinct)
	}
	st, _ := s.BatchStats()
	if st.Flushes != 1 || st.Flushed != total {
		t.Errorf("batch stats = %+v, want one flush of %d", st, total)
	}
}

// counterMachine builds an n-state saturating up/down counter — a
// small valid machine to batch-simulate.
func counterMachine(n int) *fsm.Machine {
	m := &fsm.Machine{Output: make([]bool, n), Next: make([][2]int, n)}
	for s := 0; s < n; s++ {
		m.Output[s] = s >= n/2
		m.Next[s] = [2]int{max(s-1, 0), min(s+1, n-1)}
	}
	return m
}

func TestSimulateBatchMatchesSimulate(t *testing.T) {
	s := New(Config{Workers: 2, BatchMaxWait: time.Millisecond})
	defer s.Close()
	bits, err := bitseq.FromString(paperTrace)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := s.Design(context.Background(), bits, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	var m fsm.Machine
	if err := m.UnmarshalJSON(res.Machine); err != nil {
		t.Fatal(err)
	}
	for _, skip := range []int{0, 2, 7} {
		want, err := s.Simulate(&m, bits, skip)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SimulateBatch(context.Background(), &m, bits, skip, "")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("skip %d: batch %+v, unary %+v", skip, got, want)
		}
	}
}

// TestSimulateBatchGroupedPass aims a full group of machines at one
// trace and checks they were all served by a single kernel pass.
func TestSimulateBatchGroupedPass(t *testing.T) {
	const machines = 6
	s := New(Config{Workers: 2, BatchMaxSize: machines, BatchMaxWait: time.Hour})
	defer s.Close()
	bits, err := bitseq.FromString(paperTrace + " " + paperTrace)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct machines: saturating counters of different depths.
	ms := make([]*fsm.Machine, machines)
	for i := range ms {
		ms[i] = counterMachine(2 + i)
	}
	var wg sync.WaitGroup
	got := make([]fsm.SimResult, machines)
	errs := make([]error, machines)
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.SimulateBatch(context.Background(), ms[i], bits, 0, "same-group")
		}(i)
	}
	wg.Wait()
	for i := range ms {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		want := ms[i].SimulateBits(bits, 0)
		if got[i] != want {
			t.Errorf("machine %d: batch %+v, direct %+v", i, got[i], want)
		}
	}
	if p := s.registry.Counter("fsmpredict_batch_simulate_passes_total").Value(); p != 1 {
		t.Errorf("kernel passes = %d, want 1 for the whole group", p)
	}
}

// TestSimulateBatchMixedStateBound aims a group mixing table machines
// with machines over the block-table bound (257 states) at one trace:
// every request must get the unary Simulate result, and the whole group
// must run as one fleet pass.
func TestSimulateBatchMixedStateBound(t *testing.T) {
	padded := counterMachine(4)
	for s := padded.NumStates(); s < 257; s++ {
		padded.Output = append(padded.Output, s%2 == 0)
		padded.Next = append(padded.Next, [2]int{s, 0})
	}
	ms := []*fsm.Machine{counterMachine(2), padded, counterMachine(3), counterMachine(257)}
	s := New(Config{Workers: 2, BatchMaxSize: len(ms), BatchMaxWait: time.Hour})
	defer s.Close()
	bits, err := bitseq.FromString(paperTrace + " " + paperTrace + " " + paperTrace)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]fsm.SimResult, len(ms))
	errs := make([]error, len(ms))
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.SimulateBatch(context.Background(), ms[i], bits, 3, "mixed-group")
		}(i)
	}
	wg.Wait()
	for i, m := range ms {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		want, err := s.Simulate(m, bits, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("machine %d (%d states): batch %+v, unary %+v", i, m.NumStates(), got[i], want)
		}
	}
	metric := func(name string) uint64 { return s.registry.Counter(name).Value() }
	if p := metric("fsmpredict_fleet_passes_total"); p != 1 {
		t.Errorf("fleet passes = %d, want 1", p)
	}
	if p := metric("fsmpredict_batch_simulate_passes_total"); p != 1 {
		t.Errorf("simulate passes = %d, want 1", p)
	}
	if n := metric("fsmpredict_fleet_machines_total"); n != uint64(len(ms)) {
		t.Errorf("fleet machines = %d, want %d", n, len(ms))
	}
}

// TestSimulateBatchFleetDedup aims a group holding structural duplicates
// at one trace: every request still gets its own (correct) result, but
// the fleet walks each distinct machine once and the /metrics counters
// report the pass, its size, and how many machines rode a twin's walk.
func TestSimulateBatchFleetDedup(t *testing.T) {
	const machines = 6 // 3 distinct structures, each submitted twice
	s := New(Config{Workers: 2, BatchMaxSize: machines, BatchMaxWait: time.Hour})
	defer s.Close()
	bits, err := bitseq.FromString(paperTrace + " " + paperTrace)
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*fsm.Machine, machines)
	for i := range ms {
		ms[i] = counterMachine(2 + i%3)
	}
	var wg sync.WaitGroup
	got := make([]fsm.SimResult, machines)
	errs := make([]error, machines)
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.SimulateBatch(context.Background(), ms[i], bits, 0, "dedup-group")
		}(i)
	}
	wg.Wait()
	for i := range ms {
		if errs[i] != nil {
			t.Fatalf("machine %d: %v", i, errs[i])
		}
		if want := ms[i].SimulateBits(bits, 0); got[i] != want {
			t.Errorf("machine %d: batch %+v, direct %+v", i, got[i], want)
		}
	}
	metric := func(name string) uint64 { return s.registry.Counter(name).Value() }
	if p := metric("fsmpredict_fleet_passes_total"); p != 1 {
		t.Errorf("fleet passes = %d, want 1", p)
	}
	if n := metric("fsmpredict_fleet_machines_total"); n != machines {
		t.Errorf("fleet machines = %d, want %d", n, machines)
	}
	if d := metric("fsmpredict_fleet_deduped_total"); d != machines-3 {
		t.Errorf("fleet deduped = %d, want %d", d, machines-3)
	}
	wantBytes := uint64(machines) * uint64((bits.Len()+7)/8)
	if b := metric("fsmpredict_fleet_simulated_bytes_total"); b != wantBytes {
		t.Errorf("fleet simulated bytes = %d, want %d", b, wantBytes)
	}
}

// TestCloseDrainsBatchedRequests is the shutdown guarantee: requests
// accepted by the batch plane before Close must flush and complete,
// not be dropped, even when neither flush trigger could fire on its
// own.
func TestCloseDrainsBatchedRequests(t *testing.T) {
	const n = 9
	s := New(Config{Workers: 2, BatchMaxSize: 1000, BatchMaxWait: time.Hour})
	bits, err := bitseq.FromString(paperTrace)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	states := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var res *Result
			res, _, errs[i] = s.DesignBatch(context.Background(), bits, figure1Options(), fmt.Sprintf("g%d", i%3))
			if res != nil {
				states[i] = res.States
			}
		}(i)
	}
	// Wait until all n items are queued on the plane, then close.
	for deadline := time.Now().Add(10 * time.Second); ; {
		st, _ := s.BatchStats()
		if st.Pending == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batched items never queued: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Errorf("item %d dropped on Close: %v", i, errs[i])
		} else if states[i] != 3 {
			t.Errorf("item %d states = %d, want 3", i, states[i])
		}
	}
	// After the drain the plane is closed for new work.
	if _, _, err := s.DesignBatch(context.Background(), bits, figure1Options(), ""); !errors.Is(err, ErrClosed) {
		t.Errorf("DesignBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := s.SimulateBatch(context.Background(), counterMachine(2), bits, 0, ""); !errors.Is(err, ErrClosed) {
		t.Errorf("SimulateBatch after Close = %v, want ErrClosed", err)
	}
}
