// Package experiments regenerates every figure of the paper's evaluation
// on the synthetic benchmark suite. Each figure has one entry point
// returning structured results; the cmd tools print them, the benchmarks
// time them, and the package tests assert the qualitative shapes the
// paper reports (who wins, by roughly what factor, where the crossovers
// fall). See DESIGN.md for the experiment index.
package experiments

// Config scales the experiments. The zero value is replaced by defaults
// sized like the paper's SimPoint traces; tests shrink them.
type Config struct {
	// BranchEvents is the branch-trace length per benchmark.
	BranchEvents int
	// LoadEvents is the load-trace length per value benchmark.
	LoadEvents int
	// MaxCustom is the number of custom FSM slots swept in Figure 5.
	MaxCustom int
	// Order is the global history length for custom branch predictors
	// (the paper uses 9 throughout, §7.3).
	Order int
	// Histories are the confidence FSM history lengths of Figure 2.
	Histories []int
	// TableLog2 sizes the stride value predictor (11 -> 2K entries).
	TableLog2 int
	// Workers bounds how many tasks a figure runs at once (per-program
	// training, per-branch and per-threshold designs, per-machine
	// synthesis, prefix sweeps, table chunks); 1 runs every figure on
	// the calling goroutine. 0 means GOMAXPROCS; every experiment
	// produces bit-identical results for any worker count.
	Workers int
	// Adaptive routes the figure sweeps' exact result vectors through
	// the fidelity engine's content-addressed sweep memo (fitmemo.go):
	// repeated runs — paperrun grids, warm-started processes with a disk
	// tier — serve the custom-prefix and sampled-miss simulations from
	// cache instead of re-running them. Only exact full-fidelity vectors
	// enter the memo, so outputs are byte-identical with Adaptive on or
	// off; the paperrun golden test pins that.
	Adaptive bool
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		BranchEvents: 250_000,
		LoadEvents:   120_000,
		MaxCustom:    16,
		Order:        9,
		Histories:    []int{2, 4, 6, 8, 10},
		TableLog2:    11,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.BranchEvents <= 0 {
		c.BranchEvents = d.BranchEvents
	}
	if c.LoadEvents <= 0 {
		c.LoadEvents = d.LoadEvents
	}
	if c.MaxCustom <= 0 {
		c.MaxCustom = d.MaxCustom
	}
	if c.Order <= 0 {
		c.Order = d.Order
	}
	if len(c.Histories) == 0 {
		c.Histories = d.Histories
	}
	if c.TableLog2 <= 0 {
		c.TableLog2 = d.TableLog2
	}
	return c
}
