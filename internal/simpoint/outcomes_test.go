package simpoint

import (
	"math"
	"testing"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/trace"
)

// phasedStream builds a packed outcome stream with abrupt phase shifts:
// segments alternate between a strongly-taken, long-run regime and a
// weakly-taken, short-run regime (trace.GenBiased drives both).
func phasedStream(t *testing.T, segs, segLen int) ([]uint64, int, []bool) {
	t.Helper()
	var out []bool
	for s := 0; s < segs; s++ {
		bias, runlen := 0.9, 10.0
		if s%2 == 1 {
			bias, runlen = 0.2, 3.0
		}
		evs, err := trace.GenBiased(segLen, bias, runlen, int64(300+s))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			out = append(out, e.Taken)
		}
	}
	b := bitseq.FromBools(out)
	return b.Words(), b.Len(), out
}

func takenRate(out []bool, lo, hi int) float64 {
	ones := 0
	for _, v := range out[lo:hi] {
		if v {
			ones++
		}
	}
	return float64(ones) / float64(hi-lo)
}

// TestAnalyzeOutcomesWeightedEstimate is the outcome-stream analysis'
// (OutcomeVectors, then ClusterOutcomeVectors) representative-window
// weighting contract on a drifting, phase-shifted trace: the
// cluster-weighted taken-rate over the chosen windows must track the
// global taken rate far better than a same-coverage prefix does — the
// property the fidelity ladder's rung-0 screen assumes.
func TestAnalyzeOutcomesWeightedEstimate(t *testing.T) {
	const winLen = 2048
	words, n, out := phasedStream(t, 10, 1<<13)
	vectors, err := OutcomeVectors(words, n, winLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterOutcomeVectors(vectors, Options{IntervalLen: winLen, K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Representatives) == 0 || len(res.Representatives) != len(res.Weights) {
		t.Fatalf("representatives/weights = %d/%d", len(res.Representatives), len(res.Weights))
	}
	var wsum, weighted float64
	for i, rep := range res.Representatives {
		lo := rep * winLen
		weighted += res.Weights[i] * takenRate(out, lo, lo+winLen)
		wsum += res.Weights[i]
		if i > 0 && res.Representatives[i] <= res.Representatives[i-1] {
			t.Fatal("representatives not in strict trace order")
		}
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v, want 1", wsum)
	}
	weighted /= wsum

	global := takenRate(out, 0, (n/winLen)*winLen)
	coverage := len(res.Representatives) * winLen
	prefix := takenRate(out, 0, coverage)

	werr := math.Abs(weighted - global)
	perr := math.Abs(prefix - global)
	// The phases are ~0.9 vs ~0.2 taken, so a prefix of a few windows
	// sits near one regime while the global rate is near their middle:
	// the weighted estimate must beat it and land close to the truth.
	if werr > 0.08 {
		t.Fatalf("weighted estimate %v vs global %v: error %v too large", weighted, global, werr)
	}
	if werr >= perr {
		t.Fatalf("weighted error %v not better than prefix error %v on a phased trace", werr, perr)
	}
}

// TestAnalyzeOutcomesPhaseSeparation: windows from the two regimes must
// land in different clusters — the outcome-statistics feature vector
// separates behaviour a raw taken-count would blur.
func TestAnalyzeOutcomesPhaseSeparation(t *testing.T) {
	const segLen = 1 << 13
	words, n, _ := phasedStream(t, 6, segLen)
	vectors, err := OutcomeVectors(words, n, segLen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterOutcomeVectors(vectors, Options{IntervalLen: segLen, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Window w covers exactly segment w here, so even segments are one
	// regime and odd the other.
	for w, c := range res.Assignments {
		if c != res.Assignments[w%2] {
			t.Fatalf("window %d assigned cluster %d, want regime cluster %d",
				w, c, res.Assignments[w%2])
		}
	}
	if res.Assignments[0] == res.Assignments[1] {
		t.Fatal("both regimes collapsed into one cluster")
	}
}

func TestAnalyzeOutcomesValidation(t *testing.T) {
	words := []uint64{0xfff}
	if _, err := OutcomeVectors(words, 64, 128); err == nil {
		t.Fatal("no error for a stream shorter than one window")
	}
	if _, err := OutcomeVectors(words, 64, 0); err == nil {
		t.Fatal("no error for a zero window length")
	}
	// K larger than the window count must clamp, not fail.
	vectors, err := OutcomeVectors(words, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterOutcomeVectors(vectors, Options{IntervalLen: 64, K: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Representatives) != 1 || res.Representatives[0] != 0 {
		t.Fatalf("representatives = %v, want [0]", res.Representatives)
	}
	if res.Weights[0] != 1 {
		t.Fatalf("weight = %v, want 1", res.Weights[0])
	}
}
