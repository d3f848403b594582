package markov

import (
	"fmt"
	"sort"

	"fsmpredict/internal/bitseq"
)

// PartitionOptions controls the pattern-definition step of §4.3: which
// histories go into the "predict 1", "predict 0" and "don't care" sets.
type PartitionOptions struct {
	// BiasThreshold is the minimum empirical P[1|h] for a history to join
	// the predict-1 set. The paper uses 1/2 for branch prediction (minimize
	// mispredictions) and sweeps higher values for confidence estimation to
	// trade coverage for accuracy. Must be in (0,1].
	BiasThreshold float64
	// DontCareBudget is the maximum cumulative fraction of observations
	// whose histories may be moved to the don't-care set, least-frequent
	// first. The paper reports that a 1% budget roughly halves predictor
	// size with negligible accuracy impact. 0 disables frequency-based
	// don't cares.
	DontCareBudget float64
	// KeepUnseen forces never-observed histories into the predict-0 set
	// instead of the (default) don't-care set.
	KeepUnseen bool
}

// DefaultPartitionOptions mirror the paper's branch prediction setup:
// predict 1 on any history biased >= 1/2, with a 1% don't-care budget.
func DefaultPartitionOptions() PartitionOptions {
	return PartitionOptions{BiasThreshold: 0.5, DontCareBudget: 0.01}
}

// Partition is the outcome of the pattern-definition step: three disjoint
// sets of minterm cubes covering all 2^Order histories.
type Partition struct {
	Order       int
	PredictOne  []bitseq.Cube
	PredictZero []bitseq.Cube
	DontCare    []bitseq.Cube
}

// Partition classifies every possible history of the model into the three
// sets. Enumeration is over the full 2^Order space, so Order must be
// moderate (the paper never needs more than 10).
func (m *Model) Partition(opt PartitionOptions) (*Partition, error) {
	if opt.BiasThreshold <= 0 || opt.BiasThreshold > 1 {
		return nil, fmt.Errorf("markov: bias threshold %v out of range (0,1]", opt.BiasThreshold)
	}
	if opt.DontCareBudget < 0 || opt.DontCareBudget >= 1 {
		return nil, fmt.Errorf("markov: don't-care budget %v out of range [0,1)", opt.DontCareBudget)
	}
	if m.order > 22 {
		return nil, fmt.Errorf("markov: order %d too large to enumerate", m.order)
	}

	// Select the least-frequent observed histories for the don't-care set
	// until the budget of total observations is exhausted (§4.3).
	dcSet := make(map[uint32]bool)
	if opt.DontCareBudget > 0 {
		type hc struct {
			h uint32
			n uint64
		}
		seen := make([]hc, 0, m.Distinct())
		m.Each(func(h uint32, c Count) {
			seen = append(seen, hc{h, c.Total()})
		})
		sort.Slice(seen, func(i, j int) bool {
			if seen[i].n != seen[j].n {
				return seen[i].n < seen[j].n
			}
			return seen[i].h < seen[j].h
		})
		budget := uint64(float64(m.Total()) * opt.DontCareBudget)
		var used uint64
		for _, e := range seen {
			if used+e.n > budget {
				break
			}
			used += e.n
			dcSet[e.h] = true
		}
	}

	p := &Partition{Order: m.order}
	total := uint32(1) << uint(m.order)
	for h := uint32(0); h < total; h++ {
		cube := bitseq.Minterm(h, m.order)
		c := m.Count(h)
		seen := c.Total() > 0
		switch {
		case dcSet[h]:
			p.DontCare = append(p.DontCare, cube)
		case !seen && !opt.KeepUnseen:
			p.DontCare = append(p.DontCare, cube)
		case !seen: // KeepUnseen: unseen histories default to predict 0
			p.PredictZero = append(p.PredictZero, cube)
		case c.P1() >= opt.BiasThreshold:
			p.PredictOne = append(p.PredictOne, cube)
		default:
			p.PredictZero = append(p.PredictZero, cube)
		}
	}
	return p, nil
}
