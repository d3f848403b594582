package experiments

import (
	"testing"

	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// gridSink keeps the benchmarked grid's last result live.
var gridSink *Figure5Result

// BenchmarkPaperGridCold runs the paper-scale figure grid — Figures 4,
// 2, 5, 6 and 7 at DefaultConfig, in paperrun's order, with the paper's
// 10% synthesis sample — from cold caches on every iteration: the trace
// store (and so every artifact derived on its traces), the block-table
// cache and the fidelity memo are all reset first. It lets the whole
// grid be profiled with the standard toolchain, e.g.
//
//	go test -run '^$' -bench PaperGridCold -benchtime 5x -cpuprofile cpu.out ./internal/experiments/
//
// It reports cores: process CPU time over wall time, the mean number of
// cores the grid kept busy (on unix, where getrusage reads the CPU time).
func BenchmarkPaperGridCold(b *testing.B) {
	cfg := DefaultConfig()
	cpu0, cpuOK := processCPU()
	for i := 0; i < b.N; i++ {
		tracestore.Shared.Clear()
		fsm.ResetBlockCache()
		fidelity.ResetMemo()

		f4, err := Figure4(cfg, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range workload.LoadSuite() {
			if _, err := Figure2(p.Name, cfg); err != nil {
				b.Fatal(err)
			}
		}
		area := f4.AreaModel()
		for _, p := range workload.BranchSuite() {
			if gridSink, err = Figure5(p.Name, cfg, area); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := Figure6(cfg); err != nil {
			b.Fatal(err)
		}
		if _, err := Figure7(cfg); err != nil {
			b.Fatal(err)
		}
	}
	if cpu1, ok := processCPU(); cpuOK && ok {
		b.ReportMetric(float64(cpu1-cpu0)/float64(b.Elapsed()), "cores")
	}
}
