package fidelity

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/counters"
	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/trace"
)

func twoBit() *fsm.Machine { return counters.NewTwoBit().Config().Machine() }

// lastOutcome is the 1-bit last-outcome predictor.
func lastOutcome() *fsm.Machine {
	return &fsm.Machine{
		Output: []bool{false, true},
		Next:   [][2]int{{0, 1}, {0, 1}},
	}
}

func randomMachine(rng *rand.Rand, n int) *fsm.Machine {
	m := &fsm.Machine{Output: make([]bool, n), Next: make([][2]int, n)}
	for s := 0; s < n; s++ {
		m.Output[s] = rng.Intn(2) == 1
		m.Next[s][0] = rng.Intn(n)
		m.Next[s][1] = rng.Intn(n)
	}
	return m
}

// driftingTrace builds a phase-shifted outcome stream: alternating
// strongly-taken and strongly-not-taken biased segments, the regime
// simpoint windowing exists for (a plain prefix sees only the first
// phase and misestimates badly).
func driftingTrace(t *testing.T, segs int, segLen int) []bool {
	t.Helper()
	out := make([]bool, 0, segs*segLen)
	for s := 0; s < segs; s++ {
		bias, runlen := 0.92, 12.0
		if s%2 == 1 {
			bias, runlen = 0.15, 3.0
		}
		evs, err := trace.GenBiased(segLen, bias, runlen, int64(101+s))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			out = append(out, e.Taken)
		}
	}
	return out
}

func packed(tr []bool) ([]uint64, int) {
	b := bitseq.FromBools(tr)
	return b.Words(), b.Len()
}

func TestTraceDigestMasksTail(t *testing.T) {
	a := []uint64{0x0123456789abcdef, 0x00000000000000ff}
	b := []uint64{0x0123456789abcdef, 0xdeadbeef000000ff}
	if TraceDigest(a, 72) != TraceDigest(b, 72) {
		t.Fatal("digest depends on bits past n")
	}
	if TraceDigest(a, 72) == TraceDigest(a, 71) {
		t.Fatal("digest ignores n")
	}
	if TraceDigest(a, 64) != TraceDigest(a[:1], 64) {
		t.Fatal("digest depends on unused trailing words")
	}
}

func TestFitnessKeyStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomMachine(rng, 8)
	tr := TraceDigest([]uint64{42}, 64)

	renamed := m.Clone()
	renamed.Name = "other-name"
	if FitnessKey(m, tr, 16) != FitnessKey(renamed, tr, 16) {
		t.Fatal("renamed copy got a different fitness key")
	}
	mut := m.Clone()
	mut.Output[3] = !mut.Output[3]
	if FitnessKey(m, tr, 16) == FitnessKey(mut, tr, 16) {
		t.Fatal("structurally different machines share a fitness key")
	}
	if FitnessKey(m, tr, 16) == FitnessKey(m, tr, 17) {
		t.Fatal("warmup not part of the fitness key")
	}
}

func TestMemoDiskTierAndCorruption(t *testing.T) {
	dir := t.TempDir()
	store, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)
	ResetMemo()

	k := DigestKey("test-fitness", []byte("a"))
	MemoPut(k, 0.3125)
	if v, ok := MemoGet(k); !ok || v != 0.3125 {
		t.Fatalf("RAM-tier get = %v,%v", v, ok)
	}

	// Drop the RAM tier: the next lookup must be served from disk.
	before := Snapshot()
	ResetMemo()
	if v, ok := MemoGet(k); !ok || v != 0.3125 {
		t.Fatalf("disk-tier get = %v,%v", v, ok)
	}
	after := Snapshot()
	if after.DiskHits != before.DiskHits+1 {
		t.Fatalf("disk hits %d -> %d, want +1", before.DiskHits, after.DiskHits)
	}

	// Bit-flip the artifact: the CRC (or payload validation) must turn
	// the next cold lookup into a plain miss, never a wrong value.
	ents, err := os.ReadDir(filepath.Join(dir, fitnessKind))
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one fitness artifact: %v %d", err, len(ents))
	}
	p := filepath.Join(dir, fitnessKind, ents[0].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x10
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetMemo()
	if _, ok := MemoGet(k); ok {
		t.Fatal("corrupted artifact served as a hit")
	}

	// Truncation must likewise read as a miss.
	MemoPut(k, 0.25)
	ResetMemo()
	ents, _ = os.ReadDir(filepath.Join(dir, fitnessKind))
	if len(ents) != 1 {
		t.Fatalf("expected one rewritten artifact, got %d", len(ents))
	}
	p = filepath.Join(dir, fitnessKind, ents[0].Name())
	raw, _ = os.ReadFile(p)
	if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := MemoGet(k); ok {
		t.Fatal("truncated artifact served as a hit")
	}
}

func TestDecodeValidation(t *testing.T) {
	if _, ok := decodeFitness(encodeFitness(math.NaN())); ok {
		t.Fatal("NaN decoded as a valid miss rate")
	}
	if _, ok := decodeFitness(encodeFitness(1.5)); ok {
		t.Fatal("out-of-range miss rate decoded as valid")
	}
	if _, ok := decodeFitness(append(encodeFitness(0.5), 0)); ok {
		t.Fatal("trailing bytes accepted")
	}
	v := []fsm.SimResult{{Total: 100, Correct: 93}, {Total: 7, Correct: 0}}
	got, ok := decodeSweep(encodeSweep(v))
	if !ok || len(got) != 2 || got[0] != v[0] || got[1] != v[1] {
		t.Fatalf("sweep round-trip = %v,%v", got, ok)
	}
	bad := encodeSweep([]fsm.SimResult{{Total: 5, Correct: 9}})
	if _, ok := decodeSweep(bad); ok {
		t.Fatal("correct > total accepted")
	}
	if _, ok := decodeSweep(encodeSweep(v)[:10]); ok {
		t.Fatal("truncated sweep accepted")
	}
}

func TestSweepRoundTripDiskTier(t *testing.T) {
	dir := t.TempDir()
	store, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)
	ResetMemo()

	k := DigestKey("test-sweep", []byte("trace"), []byte("entries"))
	v := []fsm.SimResult{{Total: 1000, Correct: 900}, {Total: 1000, Correct: 950}}
	SweepPut(k, v)
	ResetMemo()
	got, ok := SweepGet(k)
	if !ok || len(got) != 2 || got[0] != v[0] || got[1] != v[1] {
		t.Fatalf("disk-tier sweep get = %v,%v", got, ok)
	}
}

// TestMemoConcurrency hammers the memo from many goroutines (run under
// -race in CI): concurrent Put/Get/Snapshot/Reset on overlapping keys
// must stay data-race free and every hit must return a value some Put
// stored.
func TestMemoConcurrency(t *testing.T) {
	dir := t.TempDir()
	store, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)
	ResetMemo()

	keys := make([]Key, 32)
	vals := make([]float64, len(keys))
	for i := range keys {
		keys[i] = DigestKey("race", []byte{byte(i)})
		vals[i] = float64(i) / float64(len(keys))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < 400; it++ {
				i := rng.Intn(len(keys))
				switch rng.Intn(10) {
				case 0:
					ResetMemo()
				case 1:
					Snapshot()
				case 2, 3, 4:
					MemoPut(keys[i], vals[i])
				default:
					if v, ok := MemoGet(keys[i]); ok && v != vals[i] {
						t.Errorf("key %d read %v, want %v", i, v, vals[i])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func compile(t *testing.T, ms []*fsm.Machine) []*fsm.BlockTable {
	t.Helper()
	tabs := make([]*fsm.BlockTable, len(ms))
	for i, m := range ms {
		tab, err := fsm.CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	return tabs
}

// TestLadderRaceExactness is the ladder's core contract: racing for as
// many slots as there are candidates prunes nothing, so every candidate
// escalates to the final rung and the verdicts are bit-identical to a
// direct full pass AND to the scalar simulator.
func TestLadderRaceExactness(t *testing.T) {
	tr := driftingTrace(t, 8, 1<<14)
	words, n := packed(tr)
	runs := bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)
	const warmup = 100
	l := NewLadder(words, n, runs, LadderConfig{Warmup: warmup, Seed: 7})
	if l == nil {
		t.Fatal("ladder declined a 128k-event trace")
	}

	rng := rand.New(rand.NewSource(9))
	ms := make([]*fsm.Machine, 12)
	for i := range ms {
		ms[i] = randomMachine(rng, 2+rng.Intn(14))
	}
	tabs := compile(t, ms)

	vs := l.RaceTop(tabs, len(tabs), nil)
	exact := l.ScoreExact(tabs)
	for i, v := range vs {
		if !v.Exact {
			t.Fatalf("candidate %d not exact when racing for every slot", i)
		}
		if v.Miss != exact[i] {
			t.Fatalf("candidate %d: race %v != full pass %v", i, v.Miss, exact[i])
		}
		want := ms[i].Simulate(tr, warmup).MissRate()
		if v.Miss != want {
			t.Fatalf("candidate %d: race %v != scalar %v", i, v.Miss, want)
		}
	}
}

// TestLadderPruning checks the racing behaviour on a cohort with a
// clear quality spread, racing for one slot against the incumbent's
// exact miss as an anchor: hopeless candidates are pruned early,
// anything at or under the incumbent survives to an exact verdict, and
// pruned estimates never masquerade as exact.
func TestLadderPruning(t *testing.T) {
	tr := driftingTrace(t, 8, 1<<14)
	words, n := packed(tr)
	runs := bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)
	const warmup = 100
	l := NewLadder(words, n, runs, LadderConfig{Warmup: warmup, Seed: 7})
	if l == nil {
		t.Fatal("ladder declined the trace")
	}

	good := twoBit()
	// An anti-predictor: predict the opposite of a 2-bit counter —
	// reliably terrible on a run-heavy trace.
	bad := twoBit()
	for s := range bad.Output {
		bad.Output[s] = !bad.Output[s]
	}
	rng := rand.New(rand.NewSource(4))
	ms := []*fsm.Machine{good, bad}
	for i := 0; i < 10; i++ {
		ms = append(ms, randomMachine(rng, 4))
	}
	tabs := compile(t, ms)
	incumbent := good.Simulate(tr, warmup).MissRate()

	vs := l.RaceTop(tabs, 1, []float64{incumbent})
	if l.Stats().Pruned == 0 {
		t.Fatal("no candidate pruned on a cohort full of anti-predictors")
	}
	for i, v := range vs {
		ex := ms[i].Simulate(tr, warmup).MissRate()
		if v.Exact && v.Miss != ex {
			t.Fatalf("candidate %d: exact verdict %v != scalar %v", i, v.Miss, ex)
		}
		if !v.Exact && ex <= incumbent {
			t.Fatalf("candidate %d (miss %v <= incumbent %v) was pruned", i, ex, incumbent)
		}
	}
	if !vs[0].Exact {
		t.Fatal("the incumbent-quality candidate did not reach the exact rung")
	}
}

// TestWindowEstimatesWithinRadius pins the ladder's statistical
// assumption on a drifting, phase-shifted trace: the simpoint-weighted
// window estimate of every candidate stays within the slack-inflated
// radius of the true full-trace miss rate — the bound rung-0 pruning
// relies on. A plain prefix of the same total coverage fails this badly
// on such traces, which is why the ladder clusters first.
func TestWindowEstimatesWithinRadius(t *testing.T) {
	tr := driftingTrace(t, 10, 1<<13)
	words, n := packed(tr)
	runs := bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)
	l := NewLadder(words, n, runs, LadderConfig{Seed: 11})
	if l == nil {
		t.Fatal("ladder declined the trace")
	}

	rng := rand.New(rand.NewSource(21))
	ms := []*fsm.Machine{twoBit(), lastOutcome()}
	for i := 0; i < 8; i++ {
		ms = append(ms, randomMachine(rng, 2+rng.Intn(6)))
	}
	tabs := compile(t, ms)
	rung0 := l.tiers[0]
	est := l.tierEstimates(rung0, tabs)
	exact := l.ScoreExact(tabs)
	for i := range ms {
		r := radius(est[i], rung0.scored)
		if d := math.Abs(est[i] - exact[i]); d > r {
			t.Errorf("machine %d: window estimate %.4f vs exact %.4f, |err| %.4f > radius %.4f",
				i, est[i], exact[i], d, r)
		}
	}
}

// TestLadderDeclinesShortTraces: below the staging threshold NewLadder
// must return nil so callers fall back to plain exact scoring.
func TestLadderDeclinesShortTraces(t *testing.T) {
	tr := driftingTrace(t, 1, 2000)
	words, n := packed(tr)
	if l := NewLadder(words, n, nil, LadderConfig{}); l != nil {
		t.Fatalf("ladder accepted a %d-event trace", n)
	}
}
