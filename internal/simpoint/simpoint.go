// Package simpoint implements interval-clustering trace sampling in the
// style of SimPoint (Sherwood et al.), which the paper uses to pick the
// 300M-instruction simulation windows its traces come from (§5). The
// trace is cut into fixed-length intervals, each summarized by a branch
// execution-frequency vector (the conditional-branch analogue of basic
// block vectors); k-means groups similar intervals, and one
// representative per cluster — weighted by cluster size — stands in for
// the whole trace.
//
// For this repository it answers the methodological question the paper
// leaned on SimPoint for: profiles built from a few representative
// windows produce the same Markov models, and therefore the same
// designed predictors, as the full trace. The package tests verify
// exactly that.
package simpoint

import (
	"fmt"
	"math"
	"math/rand"

	"fsmpredict/internal/trace"
)

// Options configures the clustering.
type Options struct {
	// IntervalLen is the number of branch events per interval
	// (default 10000).
	IntervalLen int
	// K is the number of clusters / representatives (default 4).
	K int
	// Seed makes the k-means++ initialization reproducible.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.IntervalLen <= 0 {
		o.IntervalLen = 10000
	}
	if o.K <= 0 {
		o.K = 4
	}
	return o
}

// Result describes the clustering of a trace.
type Result struct {
	// IntervalLen echoes the interval length used.
	IntervalLen int
	// Assignments maps each interval to its cluster.
	Assignments []int
	// Representatives holds, per cluster, the interval index closest to
	// the cluster centroid (the "simulation point").
	Representatives []int
	// Weights holds, per cluster, its fraction of all intervals.
	Weights []float64
}

// NumIntervals returns how many intervals were clustered.
func (r *Result) NumIntervals() int { return len(r.Assignments) }

// Analyze cuts the trace into intervals, builds frequency vectors, and
// clusters them. Trailing events that do not fill an interval are
// dropped, as in SimPoint.
func Analyze(events []trace.BranchEvent, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := len(events) / opt.IntervalLen
	if n < 1 {
		return nil, fmt.Errorf("simpoint: trace of %d events has no full %d-event interval",
			len(events), opt.IntervalLen)
	}
	// Feature space: execution frequency and taken frequency per static
	// branch, giving behaviour (not just code coverage) a say.
	dims := map[uint64]int{}
	for _, e := range events[:n*opt.IntervalLen] {
		if _, ok := dims[e.PC]; !ok {
			dims[e.PC] = len(dims)
		}
	}
	d := len(dims)
	vectors := make([][]float64, n)
	for i := range vectors {
		v := make([]float64, 2*d)
		for _, e := range events[i*opt.IntervalLen : (i+1)*opt.IntervalLen] {
			j := dims[e.PC]
			v[2*j]++
			if e.Taken {
				v[2*j+1]++
			}
		}
		for j := range v {
			v[j] /= float64(opt.IntervalLen)
		}
		vectors[i] = v
	}

	return cluster(vectors, opt), nil
}

// cluster groups the interval vectors with k-means (K clamped to the
// interval count) and picks, per non-empty cluster, the interval
// closest to its centroid, weighted by the cluster's share of
// intervals; representatives come back in trace order.
func cluster(vectors [][]float64, opt Options) *Result {
	n := len(vectors)
	assignments, centroids := kmeans(vectors, min(opt.K, n), opt.Seed)
	res := &Result{IntervalLen: opt.IntervalLen, Assignments: assignments}
	counts := make([]int, len(centroids))
	bestDist := make([]float64, len(centroids))
	best := make([]int, len(centroids))
	for i := range best {
		best[i] = -1
	}
	for i, c := range assignments {
		counts[c]++
		dist := sqDist(vectors[i], centroids[c])
		if best[c] < 0 || dist < bestDist[c] {
			best[c], bestDist[c] = i, dist
		}
	}
	for c := range centroids {
		if best[c] < 0 {
			continue // empty cluster
		}
		res.Representatives = append(res.Representatives, best[c])
		res.Weights = append(res.Weights, float64(counts[c])/float64(n))
	}
	// Deterministic order: by representative interval index (each
	// interval represents at most one cluster).
	for i := 1; i < len(res.Representatives); i++ {
		for j := i; j > 0 && res.Representatives[j] < res.Representatives[j-1]; j-- {
			res.Representatives[j], res.Representatives[j-1] = res.Representatives[j-1], res.Representatives[j]
			res.Weights[j], res.Weights[j-1] = res.Weights[j-1], res.Weights[j]
		}
	}
	return res
}

// Interval returns the events of interval i.
func (r *Result) Interval(events []trace.BranchEvent, i int) []trace.BranchEvent {
	return events[i*r.IntervalLen : (i+1)*r.IntervalLen]
}

// Sample concatenates the representative intervals in trace order — the
// reduced trace a slow downstream analysis would consume.
func (r *Result) Sample(events []trace.BranchEvent) []trace.BranchEvent {
	var out []trace.BranchEvent
	for _, rep := range r.Representatives {
		out = append(out, r.Interval(events, rep)...)
	}
	return out
}

// maxIter bounds the k-means iterations.
const maxIter = 50

// kmeans clusters vectors with k-means++ initialization and Lloyd
// iterations, all deterministic under the seed.
func kmeans(vectors [][]float64, k int, seed int64) (assign []int, centroids [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := len(vectors)

	// k-means++ seeding.
	centroids = append(centroids, clone(vectors[rng.Intn(n)]))
	for len(centroids) < k {
		dists := make([]float64, n)
		var total float64
		for i, v := range vectors {
			d := math.Inf(1)
			for _, c := range centroids {
				if s := sqDist(v, c); s < d {
					d = s
				}
			}
			dists[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with a centroid.
			centroids = append(centroids, clone(vectors[rng.Intn(n)]))
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range dists {
			acc += d
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, clone(vectors[pick]))
	}

	assign = make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range vectors {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(v, cent); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		counts := make([]int, k)
		next := make([][]float64, k)
		for c := range next {
			next[c] = make([]float64, len(vectors[0]))
		}
		for i, v := range vectors {
			c := assign[i]
			counts[c]++
			for j, x := range v {
				next[c][j] += x
			}
		}
		for c := range next {
			if counts[c] == 0 {
				next[c] = centroids[c] // keep empty cluster in place
				continue
			}
			for j := range next[c] {
				next[c][j] /= float64(counts[c])
			}
		}
		centroids = next
	}
	return assign, centroids
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func clone(v []float64) []float64 {
	return append([]float64(nil), v...)
}
