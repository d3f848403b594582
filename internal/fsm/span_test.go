package fsm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fsmpredict/internal/bitseq"
)

// runnyBits generates a biased stream with geometric run structure — the
// workload the span kernel exists for. Alternating taken/not-taken runs
// with means 2·meanRun·bias and 2·meanRun·(1−bias) give overall bias
// `bias` and mean run length meanRun.
func runnyBits(rng *rand.Rand, n int, bias, meanRun float64) *bitseq.Bits {
	b := &bitseq.Bits{}
	one := rng.Float64() < bias
	for b.Len() < n {
		mean := 2 * meanRun * (1 - bias)
		if one {
			mean = 2 * meanRun * bias
		}
		k := 1
		if mean > 1 {
			for rng.Float64() < 1-1/mean {
				k++
			}
		}
		for j := 0; j < k && b.Len() < n; j++ {
			b.Append(one)
		}
		one = !one
	}
	return b
}

// spanIndexOf is the tests' run-index shorthand.
func spanIndexOf(bits *bitseq.Bits) []bitseq.Run {
	return bitseq.Runs(bits.Words(), bits.Len(), bitseq.DefaultMinRunBytes)
}

// TestSpanWalkMatchesScalar checks every power-table walk against 8k
// scalar steps, for both byte values and run lengths crossing several
// level boundaries.
func TestSpanWalkMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		m := randomMachine(rng, 1+rng.Intn(maxBlockStates))
		tab, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		st := tab.spans[0]
		for _, k := range []int{1, 2, 3, 5, 8, 13, 31, 64, 100} {
			for b := 0; b < 2; b++ {
				s0 := rng.Intn(len(m.Output))
				wantS, wantMiss := s0, 0
				for e := 0; e < 8*k; e++ {
					if m.Output[wantS] != (b == 1) {
						wantMiss++
					}
					wantS = m.Step(wantS, b == 1)
				}
				gotS, gotMiss := st.walk(uint8(s0), k, b)
				if int(gotS) != wantS || gotMiss != wantMiss {
					t.Fatalf("trial %d k=%d b=%d: walk (%d,%d), scalar (%d,%d)",
						trial, k, b, gotS, gotMiss, wantS, wantMiss)
				}
			}
		}
	}
}

// TestGatedStreamsMismatchError pins the satellite fix: mismatched
// gated streams are an explicit error, not a silent truncation — on the
// single-machine table and the fleet, with and without a run index.
func TestGatedStreamsMismatchError(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	m := randomMachine(rng, 8)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFleet([]*Machine{m, randomMachine(rng, 5)})
	if err != nil {
		t.Fatal(err)
	}
	short, long := make([]uint64, 2), make([]uint64, 3)
	runs := []bitseq.Run{{Start: 0, Bytes: 8}}

	for _, r := range [][]bitseq.Run{nil, runs} {
		if _, _, err := tab.ReplayGated(short, long, 100, r); err == nil {
			t.Fatal("BlockTable.ReplayGated accepted mismatched streams")
		}
		if _, _, err := fl.ReplayGated(long, short, 100, r); err == nil {
			t.Fatal("Fleet.ReplayGated accepted mismatched streams")
		}
		if _, _, err := tab.ReplayGated(short, short, 129, r); err == nil {
			t.Fatal("ReplayGated accepted n beyond the streams' capacity")
		}
		if _, _, err := tab.ReplayGated(short, short, 128, r); err != nil {
			t.Fatalf("ReplayGated rejected an exactly-full stream: %v", err)
		}
		if f, fc, err := tab.ReplayGated(short, short, -5, r); err != nil || f != 0 || fc != 0 {
			t.Fatalf("ReplayGated on negative n: (%d,%d,%v), want zeros", f, fc, err)
		}
	}
}

// TestSpanStatsAdvance checks the metrics counters actually move when
// runs are skipped.
func TestSpanStatsAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	m := randomMachine(rng, 10)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := runnyBits(rng, 8000, 0.97, 200)
	runs := spanIndexOf(bits)
	if len(runs) == 0 {
		t.Fatal("runny stream produced no runs")
	}
	before := SpanStats()
	tab.RunFrom(tab.StartState(), bits.Words(), bits.Len(), 0, runs)
	after := SpanStats()
	if after.Runs <= before.Runs || after.SkippedEvents <= before.SkippedEvents {
		t.Fatalf("span counters did not advance: before %+v, after %+v", before, after)
	}
	if after.TableBytes == 0 {
		t.Fatal("power-table bytes unaccounted")
	}
}

// TestSpanTableConcurrent hammers one shared span table from many
// goroutines demanding ascending levels concurrently — the -race stress
// for the lazy level growth.
func TestSpanTableConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := randomMachine(rng, 30)
	tab, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	bits := runnyBits(rng, 20000, 0.96, 150)
	words, n := bits.Words(), bits.Len()
	runs := spanIndexOf(bits)
	want, _ := tab.RunFrom(tab.StartState(), words, n, 5, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				if got, _ := tab.RunFrom(tab.StartState(), words, n, 5, runs); got != want {
					t.Errorf("goroutine %d iter %d: %+v, want %+v", g, it, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSpanKernel measures the span kernel against the block kernel
// on 95%-bias streams across run-length regimes — short blips (runlen
// 64: runs barely clear the index threshold) up to loop-dominated
// structure (runlen 512+: a back-edge resolving the same way for
// hundreds of iterations, the behaviour the paper's gcc/go traces
// show). The span/512 case carries the ≥3× acceptance bar.
func BenchmarkSpanKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := randomMachine(rng, 16)
	tab, err := CompileBlockTable(m)
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 22
	bytes := int64(n) / 8

	for _, runlen := range []int{64, 512, 4096} {
		bits := runnyBits(rng, n, 0.95, float64(runlen))
		words := bits.Words()
		runs := spanIndexOf(bits)
		b.Run(fmt.Sprintf("block/runlen=%d", runlen), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("span/runlen=%d", runlen), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, runs)
			}
		})
		b.Run(fmt.Sprintf("index/runlen=%d", runlen), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				bitseq.Runs(words, n, bitseq.DefaultMinRunBytes)
			}
		})
	}
}

// BenchmarkSpanBias sweeps the stream bias at fixed run structure
// (mean run 256 events) — the source of the EXPERIMENTS.md bias-scaling
// table. At bias 0.5 runs split evenly between the two values; toward
// 0.99 the stream approaches one solid run per index entry.
func BenchmarkSpanBias(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := randomMachine(rng, 16)
	tab, err := CompileBlockTable(m)
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 22
	bytes := int64(n) / 8
	for _, bias := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		bits := runnyBits(rng, n, bias, 256)
		words := bits.Words()
		runs := spanIndexOf(bits)
		b.Run(fmt.Sprintf("off/bias=%g", bias), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, nil)
			}
		})
		b.Run(fmt.Sprintf("on/bias=%g", bias), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, runs)
			}
		})
	}
}
