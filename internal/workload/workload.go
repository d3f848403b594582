// Package workload provides the synthetic benchmark suite that stands in
// for the paper's ATOM-profiled SPEC95 and MediaBench traces (§5). Each
// benchmark is a deterministic generator (seeded, reproducible) whose
// branch and load behaviour exhibits the structural properties the paper
// attributes to the corresponding program: strongly biased branches, loop
// branches, branches globally correlated with earlier branches (the §7.6
// pattern examples), run-length branches predictable only from local
// history (the compress case), and loads whose stride-predictability
// follows repeating patterns (the Figure 2 confidence workloads).
//
// Every benchmark supports two input variants — Train and Test — with
// different random seeds and jittered parameters but identical program
// structure, mirroring the paper's custom-same versus custom-diff
// methodology (§7.5): correlation structure survives an input change,
// exact bias values do not.
package workload

import (
	"fmt"
	"math/rand"

	"fsmpredict/internal/trace"
)

// Variant selects a benchmark input data set.
type Variant int

const (
	// Train is the input used to build models and custom predictors.
	Train Variant = iota
	// Test is a different input of the same program, used to measure
	// custom-diff results.
	Test
)

// String names the variant.
func (v Variant) String() string {
	if v == Test {
		return "test"
	}
	return "train"
}

func (v Variant) seed(base int64) int64 {
	if v == Test {
		return base*2654435761 + 99991
	}
	return base
}

// jitter perturbs a probability slightly on the Test input so the exact
// bias differs while the structure is unchanged.
func (v Variant) jitter(p float64, rng *rand.Rand) float64 {
	if v == Train {
		return p
	}
	q := p + (rng.Float64()-0.5)*0.06
	if q < 0.01 {
		q = 0.01
	}
	if q > 0.99 {
		q = 0.99
	}
	return q
}

// Env is the execution environment handed to branch sites: the random
// stream and the recent global outcome history.
type Env struct {
	Rng  *rand.Rand
	ring [64]bool
	n    int
}

// Lag returns the outcome of the k-th most recent emitted branch
// (Lag(1) is the immediately preceding branch). Before any branch has
// been emitted at that depth it returns false.
func (e *Env) Lag(k int) bool {
	if k < 1 || k > len(e.ring) || k > e.n {
		return false
	}
	return e.ring[(e.n-k)%len(e.ring)]
}

func (e *Env) record(outcome bool) {
	e.ring[e.n%len(e.ring)] = outcome
	e.n++
}

// Site is one static branch in a benchmark body. Emit is called once per
// body pass and returns the outcomes the site produces this pass (loop
// sites return several).
type Site interface {
	// PC is the site's static address.
	PC() uint64
	// Emit appends this pass's outcomes. Implementations must be
	// deterministic given the Env's random stream.
	Emit(e *Env, out []bool) []bool
}

// Program is a synthetic branch benchmark: a named body of sites executed
// cyclically.
type Program struct {
	// Name identifies the benchmark (e.g. "ijpeg").
	Name string
	// Seed is the base random seed; the variant derives its own.
	Seed int64
	// Build constructs the body for a variant. Sites may capture the
	// provided rng for parameter jitter but must draw runtime randomness
	// only from the Env.
	Build func(v Variant, rng *rand.Rand) []Site
}

// Emit executes the body of variant v pass after pass until at least n
// branch outcomes have been produced (it completes the final body pass,
// so slightly more may be), calling emit once per outcome in execution
// order with the emitting site's index in the body, its PC and the
// direction. It is the one emission loop of a branch program: Generate
// and the trace store's packed form are both built on it.
func (p *Program) Emit(v Variant, n int, emit func(site int, pc uint64, taken bool)) {
	seed := v.seed(p.Seed)
	setup := rand.New(rand.NewSource(seed ^ 0x5eed))
	body := p.Build(v, setup)
	pcs := make([]uint64, len(body))
	for i, s := range body {
		pcs[i] = s.PC()
	}
	env := &Env{Rng: rand.New(rand.NewSource(seed))}
	var scratch []bool
	for emitted := 0; emitted < n; {
		for i, s := range body {
			scratch = s.Emit(env, scratch[:0])
			for _, taken := range scratch {
				emit(i, pcs[i], taken)
				env.record(taken)
			}
			emitted += len(scratch)
		}
	}
}

// Generate produces at least n branch events (it completes the final body
// pass, so slightly more may be returned): Emit's outcomes as records.
func (p *Program) Generate(v Variant, n int) []trace.BranchEvent {
	events := make([]trace.BranchEvent, 0, n+16)
	p.Emit(v, n, func(_ int, pc uint64, taken bool) {
		events = append(events, trace.BranchEvent{PC: pc, Taken: taken})
	})
	return events
}

// LoadEnv is the execution environment for load sites.
type LoadEnv struct {
	Rng *rand.Rand
}

// LoadSite is one static load in a value benchmark.
type LoadSite interface {
	// PC is the site's static address.
	PC() uint64
	// NextValue returns the value the load observes this pass.
	NextValue(e *LoadEnv) uint64
}

// LoadProgram is a synthetic value-prediction benchmark.
type LoadProgram struct {
	// Name identifies the benchmark (e.g. "gcc").
	Name string
	// Seed is the base random seed.
	Seed int64
	// Build constructs the load sites for a variant.
	Build func(v Variant, rng *rand.Rand) []LoadSite
}

// Emit executes the load sites of variant v pass after pass until at
// least n loads have been produced (it completes the final pass),
// calling emit once per load in execution order with the load's PC and
// the value it observes. It is the one emission loop of a value
// program: Generate and the trace store's confidence streams are both
// built on it.
func (p *LoadProgram) Emit(v Variant, n int, emit func(pc, value uint64)) {
	seed := v.seed(p.Seed)
	setup := rand.New(rand.NewSource(seed ^ 0x10ad))
	body := p.Build(v, setup)
	pcs := make([]uint64, len(body))
	for i, s := range body {
		pcs[i] = s.PC()
	}
	env := &LoadEnv{Rng: rand.New(rand.NewSource(seed))}
	for emitted := 0; emitted < n; emitted += len(body) {
		for i, s := range body {
			emit(pcs[i], s.NextValue(env))
		}
	}
}

// Generate produces at least n load events: Emit's loads as records.
func (p *LoadProgram) Generate(v Variant, n int) []trace.LoadEvent {
	events := make([]trace.LoadEvent, 0, n+16)
	p.Emit(v, n, func(pc, value uint64) {
		events = append(events, trace.LoadEvent{PC: pc, Value: value})
	})
	return events
}

// ByName returns the named branch benchmark from BranchSuite.
func ByName(name string) (*Program, error) {
	for _, p := range BranchSuite() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown branch benchmark %q", name)
}

// LoadByName returns the named value benchmark from LoadSuite.
func LoadByName(name string) (*LoadProgram, error) {
	for _, p := range LoadSuite() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown load benchmark %q", name)
}
