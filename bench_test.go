// Benchmarks regenerating every figure of the paper's evaluation. Each
// benchmark runs the corresponding experiment end to end and reports the
// headline numbers as custom metrics, so `go test -bench=.` both times
// the harness and reproduces the results (shape, not absolute numbers —
// the substrate is a synthetic trace generator, not the authors'
// Alpha/ATOM testbed). See EXPERIMENTS.md for recorded outputs.
package fsmpredict_test

import (
	"context"
	"strconv"
	"sync/atomic"
	"time"

	"testing"

	"fsmpredict"
	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/bpred"
	"fsmpredict/internal/confidence"
	"fsmpredict/internal/counters"
	"fsmpredict/internal/experiments"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/gasearch"
	"fsmpredict/internal/gating"
	"fsmpredict/internal/simpoint"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vhdl"
	"fsmpredict/internal/workload"
)

// benchConfig sits between the test scale and the paper scale: big
// enough for stable shapes, small enough to iterate.
func benchConfig() experiments.Config {
	return experiments.Config{
		BranchEvents: 150_000,
		LoadEvents:   80_000,
		MaxCustom:    12,
		Order:        9,
		Histories:    []int{2, 4, 6, 8, 10},
		TableLog2:    11,
	}
}

// BenchmarkFigure1Pipeline times the full §4 design flow on the paper's
// worked example (Figure 1).
func BenchmarkFigure1Pipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if r.Design.Machine.NumStates() != 3 {
			b.Fatalf("unexpected machine: %s", r.Design.Machine)
		}
	}
}

// BenchmarkFigure2 regenerates the value-prediction confidence panels
// (Figure 2): SUD sweep versus cross-trained FSM curves per program.
func BenchmarkFigure2(b *testing.B) {
	for _, prog := range []string{"gcc", "go", "groff", "li", "perl"} {
		b.Run(prog, func(b *testing.B) {
			var r *experiments.Figure2Result
			var err error
			for i := 0; i < b.N; i++ {
				r, err = experiments.Figure2(prog, benchConfig())
				if err != nil {
					b.Fatal(err)
				}
			}
			bestFSM, bestSUD := -1.0, -1.0
			for _, h := range []int{2, 4, 6, 8, 10} {
				for _, p := range r.CurvePoints(h) {
					if p.X >= 0.8 && p.Y > bestFSM {
						bestFSM = p.Y
					}
				}
			}
			for _, p := range r.SUDFrontier() {
				if p.X >= 0.8 && p.Y > bestSUD {
					bestSUD = p.Y
				}
			}
			b.ReportMetric(bestFSM, "fsm-cov@80%acc")
			b.ReportMetric(bestSUD, "sud-cov@80%acc")
		})
	}
}

// BenchmarkFigure4AreaModel regenerates the synthesized-area-versus-state
// scatter and the linear fit (Figure 4).
func BenchmarkFigure4AreaModel(b *testing.B) {
	var r *experiments.Figure4Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure4(benchConfig(), 1.0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Fit.Slope, "GE/state")
	b.ReportMetric(r.Fit.R2, "R2")
	b.ReportMetric(float64(len(r.Points)), "machines")
}

// BenchmarkFigure5 regenerates the misprediction-versus-area panels
// (Figure 5) for all six branch benchmarks.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	f4, err := experiments.Figure4(cfg, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	area := f4.AreaModel()
	for _, prog := range []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"} {
		b.Run(prog, func(b *testing.B) {
			var r *experiments.Figure5Result
			for i := 0; i < b.N; i++ {
				r, err = experiments.Figure5(prog, cfg, area)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.XScale.Y, "xscale-miss")
			b.ReportMetric(experiments.MinMiss(r.CustomDiff), "custom-miss")
			b.ReportMetric(experiments.MinMiss(r.Gshare), "gshare-best")
			b.ReportMetric(experiments.MinMiss(r.LGC), "lgc-best")
		})
	}
}

// BenchmarkFigure6And7 regenerates the example machines of Figures 6 and
// 7 and verifies the capture-from-any-state property.
func BenchmarkFigure6And7(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		f6, err := experiments.Figure6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, ok := f6.CapturesFromAnyState(); !ok {
			b.Fatal("figure 6 machine does not capture its pattern")
		}
		f7, err := experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, ok := f7.CapturesFromAnyState(); !ok {
			b.Fatal("figure 7 machine does not capture its pattern")
		}
	}
}

// BenchmarkDesignerEndToEnd times one order-9 design-flow run on a
// realistic per-branch model — the §5 "20 seconds to 2 minutes for all
// FSM predictors of a program" measurement, per machine.
func BenchmarkDesignerEndToEnd(b *testing.B) {
	// A correlated-branch style model: outcome = bit at lag 2, plus noise.
	model := fsmpredict.NewModel(9)
	for h := uint32(0); h < 1<<9; h++ {
		taken := h>>1&1 == 1
		model.ObserveN(h, taken, 50)
		model.ObserveN(h, !taken, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fsmpredict.DesignFromModel(model, fsmpredict.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if d.Machine.NumStates() == 0 {
			b.Fatal("empty machine")
		}
	}
}

// BenchmarkAblationDontCares measures the design-size effect of the 1%
// don't-care budget (§4.3), the design choice DESIGN.md calls out.
func BenchmarkAblationDontCares(b *testing.B) {
	mkModel := func() *fsmpredict.MarkovModel {
		m := fsmpredict.NewModel(8)
		// Skewed popularity: popular histories follow a compact function
		// (bit 2), while the rare tail deviates. With the 1% budget the
		// whole tail becomes don't-care and the machine collapses; without
		// it every rare deviation must be honoured exactly.
		for h := uint32(0); h < 1<<8; h++ {
			n := uint64(1)
			outcome := h>>2&1 == 1
			if h%7 == 0 {
				n = 1000
			} else if h%13 == 0 {
				outcome = !outcome // rare deviations
			}
			m.ObserveN(h, outcome, n)
		}
		return m
	}
	for _, cfg := range []struct {
		name   string
		budget float64
	}{{"with-dc", 0.01}, {"no-dc", -1}} {
		b.Run(cfg.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				d, err := fsmpredict.DesignFromModel(mkModel(), fsmpredict.Options{
					DontCareBudget: cfg.budget, KeepUnseen: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				states = d.Machine.NumStates()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkSeriesOutput exercises the CSV emission used by the cmd tools.
func BenchmarkSeriesOutput(b *testing.B) {
	s := []stats.Series{{Name: "x", Points: make([]stats.Point, 1000)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(stats.CSV(s)) == 0 {
			b.Fatal("empty csv")
		}
	}
}

// BenchmarkSearchVsDesigner is the §3.2 ablation: the constructive design
// flow versus an Emer/Gloy-style genetic search, on a lag-3 correlated
// trace. The designer needs one construction; the GA needs thousands of
// trace evaluations to reach the same quality.
func BenchmarkSearchVsDesigner(b *testing.B) {
	trace := make([]bool, 4000)
	state := uint32(0x9e3779b9)
	next := func() uint32 { state = state*1664525 + 1013904223; return state }
	for i := range trace {
		if i < 3 {
			trace[i] = next()&1 == 1
		} else {
			trace[i] = trace[i-3] != (next()%20 == 0)
		}
	}
	b.Run("designer", func(b *testing.B) {
		var miss float64
		for i := 0; i < b.N; i++ {
			d, err := fsmpredict.DesignFromBools(trace, fsmpredict.Options{Order: 3})
			if err != nil {
				b.Fatal(err)
			}
			miss = d.Machine.Simulate(trace, 3).MissRate()
		}
		b.ReportMetric(miss, "miss-rate")
	})
	b.Run("ga", func(b *testing.B) {
		var miss float64
		for i := 0; i < b.N; i++ {
			res, err := gasearch.Search(trace, gasearch.Options{
				States: 8, Population: 60, Generations: 60, Seed: 3, Warmup: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			miss = res.BestMissRate
		}
		b.ReportMetric(miss, "miss-rate")
	})
}

// BenchmarkPPMBaseline runs the Chen et al. PPM predictor (§3.2) over the
// branch suite for comparison with Figure 5's architectures.
func BenchmarkPPMBaseline(b *testing.B) {
	for _, prog := range []string{"gsm", "ijpeg", "vortex"} {
		b.Run(prog, func(b *testing.B) {
			p, err := workload.ByName(prog)
			if err != nil {
				b.Fatal(err)
			}
			events := p.Generate(workload.Test, 100_000)
			var miss float64
			for i := 0; i < b.N; i++ {
				miss = bpred.Run(bpred.NewPPM(10), events).MissRate()
			}
			b.ReportMetric(miss, "ppm-miss")
		})
	}
}

// BenchmarkUpdatePolicyAblation compares the paper's update-all policy
// (§7.3) against updating only on tag matches.
func BenchmarkUpdatePolicyAblation(b *testing.B) {
	p, err := workload.ByName("vortex")
	if err != nil {
		b.Fatal(err)
	}
	train := p.Generate(workload.Train, 100_000)
	test := p.Generate(workload.Test, 100_000)
	entries, err := bpred.TrainCustom(train, bpred.TrainOptions{
		MaxEntries: 6, Order: 9, MinExecutions: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		matched bool
	}{{"update-all", false}, {"matched-only", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var miss float64
			for i := 0; i < b.N; i++ {
				c := bpred.NewCustom(entries)
				c.UpdateMatchedOnly = mode.matched
				miss = bpred.Run(c, test).MissRate()
			}
			b.ReportMetric(miss, "miss-rate")
		})
	}
}

// BenchmarkHistorySetVsFSM quantifies what the FSM compilation buys over
// the Burtscher/Zorn history-table baseline (§3.2): identical decisions
// from a handful of states instead of a 2^N-entry table.
func BenchmarkHistorySetVsFSM(b *testing.B) {
	prog, err := workload.LoadByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	train := prog.Generate(workload.Train, 60_000)
	test := prog.Generate(workload.Test, 60_000)
	model := confidence.PerEntryCorrectnessModel(train, 11, 8)
	set, err := confidence.NewHistorySet(model, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	design, err := fsmpredict.DesignFromModel(model, fsmpredict.Options{
		BiasThreshold: 0.9, DontCareBudget: -1, KeepUnseen: true, KeepStartup: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	machine := design.Machine
	b.Run("history-table", func(b *testing.B) {
		var r confidence.Result
		for i := 0; i < b.N; i++ {
			r = confidence.Evaluate(test, 11, set.Instance)
		}
		b.ReportMetric(float64(set.TableBits()), "table-bits")
		b.ReportMetric(r.Coverage(), "coverage")
	})
	b.Run("compiled-fsm", func(b *testing.B) {
		var r confidence.Result
		for i := 0; i < b.N; i++ {
			r = confidence.Evaluate(test, 11, func() counters.Predictor {
				return machine.NewRunner()
			})
		}
		b.ReportMetric(float64(machine.NumStates()), "states")
		b.ReportMetric(r.Coverage(), "coverage")
	})
}

// BenchmarkPipelineGating measures §2.5 confidence-directed fetch gating:
// a designed FSM estimator versus a resetting counter, reporting how much
// wrong-path fetch each avoids (recall) and how often each stalls in vain.
func BenchmarkPipelineGating(b *testing.B) {
	prog, err := workload.ByName("ijpeg")
	if err != nil {
		b.Fatal(err)
	}
	train := prog.Generate(workload.Train, 100_000)
	test := prog.Generate(workload.Test, 100_000)
	model := gating.CorrectnessModel(bpred.NewXScale(), train, 8)
	design, err := fsmpredict.DesignFromModel(model, fsmpredict.Options{BiasThreshold: 0.7})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fsm", func(b *testing.B) {
		var r gating.Result
		for i := 0; i < b.N; i++ {
			r = gating.Simulate(bpred.NewXScale(), design.Machine.NewRunner(), test)
		}
		b.ReportMetric(r.Recall(), "recall")
		b.ReportMetric(r.Precision(), "precision")
	})
	b.Run("resetting-counter", func(b *testing.B) {
		var r gating.Result
		for i := 0; i < b.N; i++ {
			r = gating.Simulate(bpred.NewXScale(), counters.NewResetting(8, 4), test)
		}
		b.ReportMetric(r.Recall(), "recall")
		b.ReportMetric(r.Precision(), "precision")
	})
}

// BenchmarkAblationStateEncoding compares state encodings in the
// synthesis model (§4.8: synthesis "includes finding a good encoding"),
// reporting the mean area across a batch of generated machines.
func BenchmarkAblationStateEncoding(b *testing.B) {
	prog, err := workload.ByName("gsm")
	if err != nil {
		b.Fatal(err)
	}
	events := prog.Generate(workload.Train, 100_000)
	entries, err := bpred.TrainCustom(events, bpred.TrainOptions{
		MaxEntries: 8, Order: 9, MinExecutions: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		syn  func(*fsmpredict.Machine) (*vhdl.Synthesis, error)
	}{
		{"binary", vhdl.Synthesize},
		{"best-of-encodings", vhdl.SynthesizeBest},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				var total float64
				for _, e := range entries {
					s, err := mode.syn(e.Machine)
					if err != nil {
						b.Fatal(err)
					}
					total += s.Area
				}
				mean = total / float64(len(entries))
			}
			b.ReportMetric(mean, "mean-GE")
		})
	}
}

// BenchmarkSimPointSampling measures the §5 trace-sampling substrate:
// cluster a long trace and train custom predictors from the sample,
// reporting the quality delta against full-trace training.
func BenchmarkSimPointSampling(b *testing.B) {
	prog, err := workload.ByName("vortex")
	if err != nil {
		b.Fatal(err)
	}
	train := prog.Generate(workload.Train, 160_000)
	test := prog.Generate(workload.Test, 80_000)
	opt := bpred.TrainOptions{MaxEntries: 6, Order: 9, MinExecutions: 64}
	fullEntries, err := bpred.TrainCustom(train, opt)
	if err != nil {
		b.Fatal(err)
	}
	fullMiss := bpred.Run(bpred.NewCustom(fullEntries), test).MissRate()
	var sampleMiss, ratio float64
	for i := 0; i < b.N; i++ {
		res, err := simpoint.Analyze(train, simpoint.Options{IntervalLen: 8000, K: 4, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		sample := res.Sample(train)
		ratio = float64(len(sample)) / float64(len(train))
		entries, err := bpred.TrainCustom(sample, opt)
		if err != nil {
			b.Fatal(err)
		}
		sampleMiss = bpred.Run(bpred.NewCustom(entries), test).MissRate()
	}
	b.ReportMetric(fullMiss, "full-miss")
	b.ReportMetric(sampleMiss, "sample-miss")
	b.ReportMetric(ratio, "sample-frac")
}

// BenchmarkServiceThroughput drives the predictor-design service with a
// mixed workload of per-program outcome traces from many goroutines,
// reporting end-to-end designs per second and the cache hit rate — the
// headline numbers for the fsmserved daemon under load.
func BenchmarkServiceThroughput(b *testing.B) {
	var traces []*bitseq.Bits
	for _, prog := range []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"} {
		p, err := workload.ByName(prog)
		if err != nil {
			b.Fatal(err)
		}
		all := trace.Outcomes(p.Generate(workload.Train, 16_000)).Bools()
		// Four distinct windows per program: 24 distinct cache keys total.
		const window = 3000
		for i := 0; i+window <= len(all) && i < 4*window; i += window {
			traces = append(traces, bitseq.FromBools(all[i:i+window]))
		}
	}
	svc := fsmpredict.NewService(fsmpredict.ServiceConfig{QueueDepth: 1 << 16})
	defer svc.Close()
	opt := fsmpredict.Options{Order: 6}

	var designs, hits atomic.Uint64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_, hit, err := svc.Design(context.Background(), traces[i%len(traces)], opt)
			if err != nil {
				b.Fatal(err)
			}
			designs.Add(1)
			if hit {
				hits.Add(1)
			}
			i++
		}
	})
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(designs.Load())/elapsed, "designs/s")
	}
	if n := designs.Load(); n > 0 {
		b.ReportMetric(float64(hits.Load())/float64(n), "hit-rate")
	}
}

// BenchmarkBatchDesignThroughput drives the coalescing batch plane with
// duplicate-heavy design traffic and the cache disabled, so every item
// must be served by pipeline work and the measured rate is pure
// batching effect: duplicates within a flush collapse into one design
// run per distinct request. Reports items per second and the achieved
// coalesce ratio (items per pipeline pass).
func BenchmarkBatchDesignThroughput(b *testing.B) {
	var traces []*bitseq.Bits
	for _, prog := range []string{"gsm", "vortex"} {
		p, err := workload.ByName(prog)
		if err != nil {
			b.Fatal(err)
		}
		all := trace.Outcomes(p.Generate(workload.Train, 8_000)).Bools()
		const window = 3000
		for i := 0; i+window <= len(all) && i < 2*window; i += window {
			traces = append(traces, bitseq.FromBools(all[i:i+window]))
		}
	}
	svc := fsmpredict.NewService(fsmpredict.ServiceConfig{
		CacheEntries: -1,
		QueueDepth:   1 << 16,
		BatchMaxSize: 256,
		BatchMaxWait: time.Millisecond,
	})
	defer svc.Close()
	opt := fsmpredict.Options{Order: 6}

	var items atomic.Uint64
	b.SetParallelism(32) // many requests in flight so groups actually fill
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			idx := i % len(traces)
			_, _, err := svc.DesignBatch(context.Background(), traces[idx], opt, "trace-"+strconv.Itoa(idx))
			if err != nil {
				b.Fatal(err)
			}
			items.Add(1)
			i++
		}
	})
	elapsed := time.Since(start).Seconds()
	design, _ := svc.BatchStats()
	if elapsed > 0 {
		b.ReportMetric(float64(items.Load())/elapsed, "items/s")
	}
	if design.Flushes > 0 {
		b.ReportMetric(float64(design.Flushed)/float64(design.Flushes), "items/flush")
	}
}

// BenchmarkSpanWorkloadTraces measures the span kernel on the suite's
// own branch traces — not the synthetic bias sweep — reporting each
// program's skippable-event coverage alongside block and span kernel
// throughput. The win here is whatever run structure the workloads
// really have; EXPERIMENTS.md records both this and the bias sweep.
func BenchmarkSpanWorkloadTraces(b *testing.B) {
	for _, prog := range []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"} {
		p, err := workload.ByName(prog)
		if err != nil {
			b.Fatal(err)
		}
		packed := tracestore.Pack(p.Generate(workload.Train, 2_000_000))
		words, n := packed.Outcomes().Words(), packed.Outcomes().Len()
		runs := packed.SpanIndex()
		covered := float64(bitseq.RunsCovered(runs)) / float64(n)
		m := counters.SUDConfig{Max: 3, Inc: 1, Dec: 1, Threshold: 2}.Machine()
		tab, err := fsm.CompileBlockTable(m)
		if err != nil {
			b.Fatal(err)
		}
		bytes := int64(n) / 8
		b.Run("block/"+prog, func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, nil)
			}
		})
		b.Run("span/"+prog, func(b *testing.B) {
			b.SetBytes(bytes)
			b.ReportMetric(covered, "run-coverage")
			for i := 0; i < b.N; i++ {
				tab.RunFrom(tab.StartState(), words, n, 0, runs)
			}
		})
	}
}
