package simpoint

import "fmt"

// This file extends the interval clustering to bare outcome streams —
// packed trace words with no per-event PCs — which is the form every
// candidate-scoring loop holds (the GA search packs its trace once and
// never looks at addresses again). Where Analyze summarizes an interval
// by per-branch execution frequencies, OutcomeVectors summarizes it by
// the statistics a predictor FSM actually experiences: the taken rate,
// the toggle rate, and the distribution of 3-bit local outcome
// patterns. Two windows with the same pattern histogram drive a small
// Moore machine through near-identical behaviour, so cluster
// representatives chosen in this space stand in for the full trace the
// same way basic-block-vector representatives do for instruction
// streams.

// OutcomeVectors cuts the first n events of a packed outcome stream
// (bitseq layout: event i is words[i>>6]>>(i&63)&1) into full
// intervalLen-event windows and summarizes each by its
// outcome-statistics vector. Trailing events that do not fill a window
// are dropped, as in SimPoint. It is the expensive whole-trace pass,
// kept apart from ClusterOutcomeVectors so callers clustering the same
// stream at several granularities (the fidelity ladder's escalating
// window tiers) pay it once. A power-of-two intervalLen (a multiple of
// 64) keeps windows word-aligned, so callers can extract a
// representative window as a zero-copy word subslice.
func OutcomeVectors(words []uint64, n, intervalLen int) ([][]float64, error) {
	if intervalLen < 1 {
		return nil, fmt.Errorf("simpoint: window length %d must be positive", intervalLen)
	}
	if max := len(words) << 6; n > max {
		n = max
	}
	nw := n / intervalLen
	if nw < 1 {
		return nil, fmt.Errorf("simpoint: stream of %d outcomes has no full %d-event window",
			n, intervalLen)
	}
	vectors := make([][]float64, nw)
	for w := range vectors {
		vectors[w] = outcomeVector(words, w*intervalLen, intervalLen)
	}
	return vectors, nil
}

// ClusterOutcomeVectors clusters precomputed window vectors, one per
// consecutive opt.IntervalLen-event window, with the same k-means
// machinery as Analyze. The returned Representatives are window
// indices; window w covers events [w*IntervalLen, (w+1)*IntervalLen).
func ClusterOutcomeVectors(vectors [][]float64, opt Options) (*Result, error) {
	if opt.IntervalLen < 1 {
		return nil, fmt.Errorf("simpoint: window length %d must be positive", opt.IntervalLen)
	}
	if len(vectors) < 1 {
		return nil, fmt.Errorf("simpoint: no outcome windows to cluster")
	}
	return cluster(vectors, opt.withDefaults()), nil
}

// outcomeVector summarizes window events [off, off+length): taken rate,
// toggle rate, and the normalized histogram of overlapping 3-bit
// outcome patterns (the 8-bin local-history distribution).
func outcomeVector(words []uint64, off, length int) []float64 {
	v := make([]float64, 2+8)
	prev, hist := -1, 0
	for i := off; i < off+length; i++ {
		b := int(words[i>>6] >> uint(i&63) & 1)
		v[0] += float64(b)
		if prev >= 0 && b != prev {
			v[1]++
		}
		hist = (hist<<1 | b) & 7
		if i >= off+2 {
			v[2+hist]++
		}
		prev = b
	}
	for j := range v {
		v[j] /= float64(length)
	}
	return v
}
