package fsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fsmpredict/internal/bitseq"
)

// This file is the engine's differential suite: one matrix, one checker
// per mode, one fuzz body. Every walk is compared against a scalar
// reference — Machine.SimulateScalar and Machine.RunSampledScalar, and
// for the gated mode Machine.gatedScalar — never against
// another kernel. The matrix axes are mode (full, sampled, gated) ×
// surface (BlockTable methods, Fleet methods) × run index (none, real,
// min-run-shifted) × fleet width (diffWidths) × ragged n (diffLens) ×
// skip (diffSkips). Each top-level test below runs one (mode, surface,
// index) cell, and the fuzz targets share one body.

// diffWidths are the fleet widths: the one-slot fleet, widths around
// one spanOct lane group, and a 17-wide fleet with duplicates (dedup
// fan-out, two lane groups and a one-lane tail).
var diffWidths = []int{1, 2, 3, 7, 8, 9, 17}

// diffLens are the stream lengths: sub-byte, byte and word edges, and
// one crossing a fleetSegEvents tile.
var diffLens = []int{0, 1, 7, 9, 64, 65, 203, 1029, fleetSegEvents + 13}

// diffSkips are the full mode's warm-up lengths for a stream of n
// events: none, ragged, mid-stream, all of it and past it.
func diffSkips(n int) []int { return []int{0, 3, n/2 | 1, n, n + 5} }

// runKind selects the run index a walk is given.
type runKind int

const (
	noRuns      runKind = iota // nil index: the byte walk alone
	realRuns                   // bitseq.Runs at the default minimum
	shiftedRuns                // one-byte minimum, scanned to capacity
)

var spanKinds = []runKind{realRuns, shiftedRuns}

// index builds the run index of a kind over the case's stream. The
// shifted index uses a one-byte minimum run and scans the words' whole
// capacity, so its runs cut the stream at other places than the real
// index and its last zeros run may reach past n; results must not move.
func (c *diffCase) index(kind runKind) []bitseq.Run {
	w := c.bits.Words()
	switch kind {
	case realRuns:
		return bitseq.Runs(w, c.n, bitseq.DefaultMinRunBytes)
	case shiftedRuns:
		return bitseq.Runs(w, len(w)<<6, 1)
	}
	return nil
}

// diffCase is one input of the matrix: a fleet's machines, the outcome
// (or, gated, correctness) stream with its valid mask, per-machine
// sampled positions and entry states.
type diffCase struct {
	machines    []*Machine
	bits, valid *bitseq.Bits
	n           int
	pos         [][]int32
	states      []int
	tabs        []*BlockTable // compiled on first use, outside the cache
}

// newDiffCase derives a case from rng: width machines (duplicates when
// width > 16), a biased run-structured stream of n events and a valid
// mask that saturates in long stretches, like a warm predictor table.
func newDiffCase(rng *rand.Rand, width, n int) *diffCase {
	c := &diffCase{n: n}
	for j := 0; j < width; j++ {
		if width > 16 && j > 0 && rng.Intn(3) == 0 {
			c.machines = append(c.machines, c.machines[rng.Intn(j)])
			continue
		}
		states := 1 + rng.Intn(40)
		if rng.Intn(16) == 0 {
			states = maxBlockStates
		}
		c.machines = append(c.machines, randomMachine(rng, states))
	}
	c.bits = runnyBits(rng, n, 0.5+rng.Float64()*0.49, float64(1+rng.Intn(200)))
	c.valid = runnyBits(rng, n, 0.95, 200)
	for _, m := range c.machines {
		var pos []int32
		for i := 0; i < n; i++ {
			if rng.Intn(16) == 0 {
				pos = append(pos, int32(i))
			}
		}
		c.pos = append(c.pos, pos)
		c.states = append(c.states, rng.Intn(m.NumStates()))
	}
	return c
}

// walkMode names the three walkers.
type walkMode int

const (
	fullMode walkMode = iota
	sampledMode
	gatedMode
)

// walkMatrix runs one cell of the matrix: every width × length from a
// fixed seed, checked in mode on the fleet or per-machine table surface
// under each run-index kind. fromState walks the table surface from
// random entry states instead of the start state.
func walkMatrix(t *testing.T, mode walkMode, fleet, fromState bool, kinds ...runKind) {
	rng := rand.New(rand.NewSource(int64(mode)<<8 | 1))
	for _, width := range diffWidths {
		for _, n := range diffLens {
			c := newDiffCase(rng, width, n)
			for _, kind := range kinds {
				c.check(t, mode, fleet, fromState, kind, diffSkips(n))
			}
		}
	}
}

// check runs one walk of the case (the full mode once per skip) and
// compares it with the scalar references.
func (c *diffCase) check(t *testing.T, mode walkMode, fleet, fromState bool, kind runKind, skips []int) {
	t.Helper()
	words, n, runs := c.bits.Words(), c.n, c.index(kind)
	bools := c.bits.Bools()[:n]
	where := func(j int) string {
		return fmt.Sprintf("width %d n %d runs %d machine %d", len(c.machines), n, kind, j)
	}
	if c.tabs == nil {
		for _, m := range c.machines {
			tab, err := CompileBlockTable(m)
			if err != nil {
				t.Fatal(err)
			}
			c.tabs = append(c.tabs, tab)
		}
	}
	f := FleetOfTables(c.tabs)
	entry := func(j int) int {
		if fromState && !fleet {
			return c.states[j]
		}
		return c.machines[j].Start
	}
	switch mode {
	case fullMode:
		for _, skip := range skips {
			var got []SimResult
			if fleet {
				got = f.RunParallelSpans(1+skip%3, words, n, skip, runs)
			}
			for j, m := range c.machines {
				ref := m.Clone()
				ref.Start = entry(j)
				want := ref.SimulateScalar(bools, skip)
				if fleet {
					if got[j] != want {
						t.Fatalf("%s skip %d: fleet %+v, scalar %+v", where(j), skip, got[j], want)
					}
					continue
				}
				res, end := c.tabs[j].RunFrom(ref.Start, words, n, skip, runs)
				_, wantEnd := ref.RunSampledScalar(ref.Start, words, n, nil)
				if res != want || end != wantEnd {
					t.Fatalf("%s skip %d: RunFrom (%+v, %d), scalar (%+v, %d)", where(j), skip, res, end, want, wantEnd)
				}
			}
		}
	case sampledMode:
		var got []int
		if fleet {
			got = f.RunSampled(words, n, c.pos)
		}
		for j, m := range c.machines {
			want, wantEnd := m.RunSampledScalar(entry(j), words, n, c.pos[j])
			if fleet {
				if got[j] != want {
					t.Fatalf("%s: fleet %d misses, scalar %d", where(j), got[j], want)
				}
				continue
			}
			miss, end := c.tabs[j].RunSampled(entry(j), words, n, c.pos[j], runs)
			if miss != want || end != wantEnd {
				t.Fatalf("%s: RunSampled (%d, %d), scalar (%d, %d)", where(j), miss, end, want, wantEnd)
			}
		}
	case gatedMode:
		got, gotCorrect := make([]int, len(c.machines)), make([]int, len(c.machines))
		var err error
		if fleet {
			got, gotCorrect, err = f.ReplayGated(words, c.valid.Words(), n, runs)
		}
		for j, m := range c.machines {
			if !fleet {
				got[j], gotCorrect[j], err = c.tabs[j].ReplayGated(words, c.valid.Words(), n, runs)
			}
			if err != nil {
				t.Fatal(err)
			}
			want, wantCorrect := m.gatedScalar(c.bits.Words(), c.valid.Words(), n)
			if got[j] != want || gotCorrect[j] != wantCorrect {
				t.Fatalf("%s: gated (%d, %d), scalar (%d, %d)", where(j), got[j], gotCorrect[j], want, wantCorrect)
			}
		}
	}
}

// Full mode: BlockTable.RunFrom from the start state and from random
// entry states, and Fleet.RunParallelSpans at every width.
func TestSimulatePackedMatchesScalar(t *testing.T) {
	walkMatrix(t, fullMode, false, false, noRuns)
}

func TestSimulatePackedSpansMatchesScalar(t *testing.T) {
	walkMatrix(t, fullMode, false, false, spanKinds...)
}

func TestRunFromMatchesScalarFromState(t *testing.T) {
	walkMatrix(t, fullMode, false, true, noRuns)
}

func TestRunFromSpansMatchesRunFrom(t *testing.T) {
	walkMatrix(t, fullMode, false, true, spanKinds...)
}

func TestFleetMatchesSimulatePacked(t *testing.T) {
	walkMatrix(t, fullMode, true, false, noRuns)
}

func TestFleetRunSpansMatchesRun(t *testing.T) {
	walkMatrix(t, fullMode, true, false, spanKinds...)
}

// Sampled mode: BlockTable.RunSampled from random entry states, and
// Fleet.RunSampled (which takes no run index) at every width.
func TestRunSampledMatchesScalar(t *testing.T) {
	walkMatrix(t, sampledMode, false, true, noRuns)
}

func TestRunSampledSpansMatchesRunSampled(t *testing.T) {
	walkMatrix(t, sampledMode, false, true, spanKinds...)
}

func TestFleetRunSampledMatchesBlockTable(t *testing.T) {
	walkMatrix(t, sampledMode, true, false, noRuns)
}

// Gated mode: BlockTable.ReplayGated and Fleet.ReplayGated.
func TestReplayGatedMatchesScalar(t *testing.T) {
	walkMatrix(t, gatedMode, false, false, noRuns)
}

func TestReplayGatedSpansMatchesReplayGated(t *testing.T) {
	walkMatrix(t, gatedMode, false, false, spanKinds...)
}

func TestFleetReplayGatedMatchesBlockTable(t *testing.T) {
	walkMatrix(t, gatedMode, true, false, noRuns)
}

func TestFleetReplayGatedSpansMatchesBlockTable(t *testing.T) {
	walkMatrix(t, gatedMode, true, false, spanKinds...)
}

// fuzzWalks is the one fuzz body: genes pick a fleet of 1–17 small
// machines (duplicates included), stream is the outcome stream and, bit
// reversed, the valid mask, a gene trims a ragged tail, and skip8 is the
// warm-up. Every mode × surface × run-index kind must match the scalar
// references.
func fuzzWalks(t *testing.T, genes, stream []byte, skip8 uint8) {
	if len(genes) == 0 || len(stream) > 1<<12 {
		return
	}
	at := func(i int) int { return int(genes[i%len(genes)]) }
	c := &diffCase{bits: &bitseq.Bits{}, valid: &bitseq.Bits{}}
	width := 1 + at(0)%17
	g := 1
	for j := 0; j < width; j++ {
		if at(g)%4 == 0 && j > 0 {
			c.machines = append(c.machines, c.machines[at(g+1)%j])
			g += 2
			continue
		}
		states := 1 + at(g)%12
		m := &Machine{Output: make([]bool, states), Next: make([][2]int, states), Start: at(g+1) % states}
		g += 2
		for s := 0; s < states; s++ {
			m.Output[s] = at(g)%2 == 1
			m.Next[s] = [2]int{at(g+1) % states, at(g+2) % states}
			g += 3
		}
		c.machines = append(c.machines, m)
	}
	for _, b := range stream {
		for k := 0; k < 8; k++ {
			c.bits.AppendBit(int(b >> uint(k) & 1))
			c.valid.AppendBit(int(b >> uint(7-k) & 1))
		}
	}
	c.n = c.bits.Len() - at(1)%8%(c.bits.Len()+1)
	for j, m := range c.machines {
		var pos []int32
		for i := 0; i < c.n; i++ {
			if (at(i)+j)%3 == 0 {
				pos = append(pos, int32(i))
			}
		}
		c.pos = append(c.pos, pos)
		c.states = append(c.states, at(j)%m.NumStates())
	}
	for _, mode := range []walkMode{fullMode, sampledMode, gatedMode} {
		for _, fleet := range []bool{false, true} {
			for _, kind := range []runKind{noRuns, realRuns, shiftedRuns} {
				c.check(t, mode, fleet, true, kind, []int{int(skip8)})
			}
		}
	}
}

// The fuzz targets share fuzzWalks; each keeps its own seed corpus.
func FuzzBlockTable(f *testing.F) {
	f.Add([]byte{0, 3, 0, 2}, []byte{0xa5, 0x5a, 0xff, 0x00, 0x13}, uint8(2))
	f.Add([]byte{0}, []byte{}, uint8(0))
	f.Add([]byte{0, 40, 39, 7}, bytes.Repeat([]byte{0xcc}, 33), uint8(200))
	f.Add([]byte{0, 255, 7, 9}, bytes.Repeat([]byte{0x0f, 0xf0}, 17), uint8(9))
	f.Fuzz(fuzzWalks)
}

func FuzzFleet(f *testing.F) {
	f.Add([]byte{3, 1, 0, 2, 9}, []byte{0xAA, 0x0F}, uint8(0))
	f.Add([]byte{16, 2, 3, 4, 5, 6, 7, 8}, []byte{0x01, 0xFF, 0x3C}, uint8(5))
	f.Fuzz(fuzzWalks)
}

func FuzzSpanKernel(f *testing.F) {
	f.Add([]byte{1, 10, 5}, []byte{0x00, 0x00, 0xFF, 0xFF, 0xA5, 0xFF, 0xFF, 0xFF, 0x00}, uint8(10))
	f.Add([]byte{0, 2}, []byte{0xFF}, uint8(0))
	f.Add([]byte{8, 3, 1, 4}, make([]byte, 64), uint8(100))
	f.Fuzz(fuzzWalks)
}
