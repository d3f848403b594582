package fidelity

import (
	"math"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/simpoint"
)

// The staged evaluation ladder. Rung 0 scores a whole cohort on a few
// simpoint-selected representative windows of the trace — one fleet
// pass per window, each window a zero-copy word subslice of the packed
// stream — and prunes candidates whose miss-rate lower confidence bound
// cannot reach the slots the caller is racing for. Survivors escalate
// to a denser window tier (4x the windows, re-clustered at the same
// length, so coverage grows geometrically while staying representative
// under phase drift — a contiguous prefix of equal coverage measurably
// violates the bound on drifting traces), and finally to the exact
// full-trace rung. Pruned candidates keep their last estimate as a
// fitness value; only final-rung results are exact, and only those may
// enter the fitness memo.
//
// The confidence bounds are empirical-Bernstein radii inflated by a
// slack factor: trace windows are not i.i.d. samples of the stream
// (branch behaviour drifts in phases), so the textbook bound is treated
// as a heuristic screen, never as a correctness argument. Exactness of
// anything reported is guaranteed structurally instead: see the package
// comment.

// The ladder's screening constants. They were tuned once against the
// search workloads and no caller varies them.
const (
	// windows is the rung-0 representative-window count (simpoint K);
	// the second clustered tier uses 4x, the strided gate 16x.
	windows = 4
	// delta is the per-decision confidence parameter.
	delta = 0.05
	// slack inflates every radius to account for non-i.i.d. sampling.
	slack = 2
)

// LadderConfig configures a ladder.
type LadderConfig struct {
	// Warmup outcomes at the head of the trace are not scored (the
	// search's warm-up convention).
	Warmup int
	// Workers bounds each fleet pass's parallel shards (<= 0 means
	// GOMAXPROCS); results are bit-identical for any setting.
	Workers int
	// Seed drives the deterministic window clustering.
	Seed int64
}

// Verdict is one candidate's racing outcome.
type Verdict struct {
	// Miss is the exact full-trace miss rate when Exact, else the last
	// rung's estimate.
	Miss float64
	// Exact reports whether Miss came from a full-fidelity pass.
	Exact bool
	// Rung is the highest rung the candidate reached (0 = windows).
	Rung int
}

// LadderStats tallies one ladder's activity.
type LadderStats struct {
	// RungEvals counts candidate·rung evaluations run.
	RungEvals int
	// Pruned counts candidates dismissed on a confidence bound.
	Pruned int
	// Escalated counts candidate promotions to a higher rung.
	Escalated int
}

type window struct {
	off    int // event offset, a multiple of 64
	skip   int // unscored warm-up events at the window head
	weight float64
}

// tier is one windowed rung: a set of representative windows and the
// per-candidate scored-event count behind its confidence radius.
type tier struct {
	wins   []window
	scored int
}

// Ladder is a staged evaluator bound to one packed trace. Build one per
// search with NewLadder; methods are not safe for concurrent use on the
// same Ladder (each search owns its own), though the underlying fleet
// passes parallelize internally.
type Ladder struct {
	words  []uint64
	n      int
	runs   []bitseq.Run
	cfg    LadderConfig
	winLen int
	// tiers are the windowed rungs in escalation order; the exact
	// full-trace rung always follows them.
	tiers []tier

	stats LadderStats
}

// NewLadder analyzes the trace and builds the rung structure. It
// returns nil when staging cannot pay for itself — the trace is too
// short for representative windows plus prefix rungs to undercut a
// plain full pass — and callers then score at full fidelity directly.
func NewLadder(words []uint64, n int, runs []bitseq.Run, cfg LadderConfig) *Ladder {
	if max := len(words) << 6; n > max {
		n = max
	}
	scored := n - cfg.Warmup
	// The rung-0 window length is the largest power of two at most a
	// 1/64 share of the scored trace, clamped to [512, 1024]: screening
	// cost stays flat as traces grow, and longer traces just get
	// proportionally cheaper screens. Powers of two keep windows
	// word-aligned.
	winLen := 512
	for winLen*2 <= scored/64 && winLen < 1024 {
		winLen *= 2
	}
	// Below ~16 windows' worth of scored trace the ladder's overhead
	// (two window tiers for survivors) rivals the full pass.
	if scored < 16*winLen {
		return nil
	}

	l := &Ladder{words: words, n: n, runs: runs, cfg: cfg, winLen: winLen}

	// Escalation structure: two clustered tiers (K representatives,
	// then 4K — coverage grows geometrically, every tier clustered so
	// it stays representative under phase drift), then one strided gate
	// tier of 16K evenly-spaced windows. The gate exists for bar
	// stragglers — candidates whose tier-1 interval still straddles the
	// racing bar — and a uniform stride is an unbiased estimator at 4x
	// tier-1 coverage without a K=16K clustering bill. Tiers that would
	// cover most of the trace anyway are skipped (the exact rung
	// follows regardless). The whole-trace window-vector pass is shared
	// across the clustered tiers; only the clustering reruns per K.
	vectors, err := simpoint.OutcomeVectors(words, n, winLen)
	if err != nil {
		return nil
	}
	for _, k := range []int{windows, 4 * windows} {
		if k*winLen > n/2 {
			break
		}
		ti, ok := l.buildTier(vectors, k)
		if !ok {
			break
		}
		l.tiers = append(l.tiers, ti)
	}
	if k := 16 * windows; len(l.tiers) == 2 && k*winLen <= n/2 {
		if ti, ok := l.buildStridedTier(len(vectors), k); ok {
			l.tiers = append(l.tiers, ti)
		}
	}
	if len(l.tiers) == 0 {
		return nil
	}
	return l
}

// buildTier clusters the precomputed window vectors into k
// representative windows.
func (l *Ladder) buildTier(vectors [][]float64, k int) (tier, bool) {
	sp, err := simpoint.ClusterOutcomeVectors(vectors, simpoint.Options{
		IntervalLen: l.winLen,
		K:           k,
		Seed:        l.cfg.Seed,
	})
	if err != nil {
		return tier{}, false
	}
	var ti tier
	for i, rep := range sp.Representatives {
		l.addWindow(&ti, rep*l.winLen, sp.Weights[i])
	}
	return ti, ti.normalize()
}

// buildStridedTier picks k evenly-spaced windows out of nw with uniform
// weights — an unbiased whole-trace estimator that needs no clustering.
func (l *Ladder) buildStridedTier(nw, k int) (tier, bool) {
	k = min(k, nw)
	var ti tier
	for i := 0; i < k; i++ {
		l.addWindow(&ti, (i*nw/k)*l.winLen, 1)
	}
	return ti, ti.normalize()
}

// addWindow appends the window at event offset off to the tier. Its
// unscored head covers an eighth of the window and whatever of the
// global warm-up it overlaps; a window the warm-up swallows is dropped.
func (l *Ladder) addWindow(ti *tier, off int, weight float64) {
	skip := max(l.winLen/8, l.cfg.Warmup-off)
	if skip >= l.winLen {
		return
	}
	ti.wins = append(ti.wins, window{off: off, skip: skip, weight: weight})
	ti.scored += l.winLen - skip
}

// normalize scales the tier's weights to sum to one, reporting false
// for a tier without weight (no windows survived the warm-up).
func (ti *tier) normalize() bool {
	var wsum float64
	for _, w := range ti.wins {
		wsum += w.weight
	}
	if wsum <= 0 {
		return false
	}
	for i := range ti.wins {
		ti.wins[i].weight /= wsum
	}
	return true
}

// Stats returns this ladder's tallies.
func (l *Ladder) Stats() LadderStats { return l.stats }

// tierEstimates scores a cohort on one window tier: one fleet pass per
// representative window, weighted into a miss-rate estimate per
// candidate.
func (l *Ladder) tierEstimates(ti tier, tabs []*fsm.BlockTable) []float64 {
	est := make([]float64, len(tabs))
	if len(tabs) == 0 {
		return est
	}
	fl := fsm.FleetOfTables(tabs)
	for _, w := range ti.wins {
		rs := fl.RunParallelSpans(l.cfg.Workers, l.words[w.off>>6:], l.winLen, w.skip, nil)
		for i, r := range rs {
			est[i] += w.weight * r.MissRate()
		}
	}
	l.stats.RungEvals += len(tabs)
	return est
}

// radius is the slack-inflated empirical-Bernstein radius of an
// estimate p over scored events — the deviation the ladder assumes
// windowed estimates stay within.
func radius(p float64, scored int) float64 {
	return slack * bernsteinRadius(p, scored, delta)
}

// RaceTop races a cohort whose consumers only care about the top `keep`
// candidates (a truncation-selection parent pool). It walks the window
// tiers; after each, the pruning bar is the keep-th smallest upper
// confidence bound across the cohort and the anchors (already-exact
// incumbents competing for the same slots, e.g. carried elites), so
// any candidate that plausibly belongs in the top set escalates to the
// exact full-trace rung while confident losers stop at cheap rungs. If
// the bounds hold, every true top-keep candidate reaches an exact
// verdict; estimates only ever rank losers among themselves. Verdicts
// are positional with tabs.
func (l *Ladder) RaceTop(tabs []*fsm.BlockTable, keep int, anchors []float64) []Verdict {
	keep = max(keep, 1)
	verdicts := make([]Verdict, len(tabs))
	if len(tabs) == 0 {
		return verdicts
	}
	alive := make([]int, len(tabs))
	for i := range tabs {
		alive[i] = i
	}
	for ri, ti := range l.tiers {
		if ri > 0 {
			l.stats.Escalated += len(alive)
		}
		est := l.tierEstimates(ti, subset(tabs, alive))
		ucbs := append([]float64(nil), anchors...)
		for j, i := range alive {
			verdicts[i] = Verdict{Miss: est[j], Rung: ri}
			ucbs = append(ucbs, est[j]+radius(est[j], ti.scored))
		}
		bar := kthSmallest(ucbs, keep)
		next := alive[:0]
		for _, i := range alive {
			if m := verdicts[i].Miss; m-radius(m, ti.scored) <= bar {
				next = append(next, i)
			}
		}
		l.stats.Pruned += len(alive) - len(next)
		if alive = next; len(alive) == 0 {
			return verdicts
		}
	}
	l.stats.Escalated += len(alive)
	for j, m := range l.ScoreExact(subset(tabs, alive)) {
		verdicts[alive[j]] = Verdict{Miss: m, Exact: true, Rung: len(l.tiers)}
	}
	return verdicts
}

// subset returns tabs[i] for each i in idx.
func subset(tabs []*fsm.BlockTable, idx []int) []*fsm.BlockTable {
	sub := make([]*fsm.BlockTable, len(idx))
	for j, i := range idx {
		sub[j] = tabs[i]
	}
	return sub
}

// kthSmallest returns the k-th smallest of xs, or +Inf when xs has
// fewer than k values (insertion into a bounded best-list; cohorts are
// small).
func kthSmallest(xs []float64, k int) float64 {
	if len(xs) < k {
		return math.Inf(1)
	}
	best := make([]float64, 0, k)
	for _, x := range xs {
		if len(best) < k {
			best = append(best, x)
		} else if x < best[k-1] {
			best[k-1] = x
		} else {
			continue
		}
		for j := len(best) - 1; j > 0 && best[j] < best[j-1]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best[k-1]
}

// ScoreExact runs one full-fidelity pass over the cohort — the final
// rung directly, used for elite re-scoring and for cohorts where
// pruning has shown no traction.
func (l *Ladder) ScoreExact(tabs []*fsm.BlockTable) []float64 {
	out := make([]float64, len(tabs))
	if len(tabs) == 0 {
		return out
	}
	fl := fsm.FleetOfTables(tabs)
	rs := fl.RunParallelSpans(l.cfg.Workers, l.words, l.n, l.cfg.Warmup, l.runs)
	for i, r := range rs {
		out[i] = r.MissRate()
	}
	l.stats.RungEvals += len(tabs)
	return out
}

// bernsteinRadius is the empirical-Bernstein deviation bound for a
// [0,1]-valued mean estimate p over m samples at confidence 1-delta:
// sqrt(2 p(1-p) ln(3/δ)/m) + 3 ln(3/δ)/m.
func bernsteinRadius(p float64, m int, delta float64) float64 {
	if m <= 0 {
		return 1
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	ln := math.Log(3 / delta)
	return math.Sqrt(2*p*(1-p)*ln/float64(m)) + 3*ln/float64(m)
}
