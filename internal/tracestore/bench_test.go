package tracestore

import (
	"runtime"
	"testing"

	"fsmpredict/internal/vpred"
	"fsmpredict/internal/workload"
)

// The paper grid's trace sizes (experiments.DefaultConfig): 250k branch
// events and 120k loads per trace, a 2K-entry stride predictor.
const (
	gridBranchEvents = 250_000
	gridLoadEvents   = 120_000
)

// BenchmarkStoreBuild prices building the paper grid's traces on a cold
// store: "branch" packs the 12 branch traces (six programs, two
// variants), "conf" simulates the 10 load traces' confidence streams.
// Besides time and allocations per grid it reports allocated bytes per
// event (B/event), the figure the trace-construction memory bound is
// stated in.
func BenchmarkStoreBuild(b *testing.B) {
	variants := []workload.Variant{workload.Train, workload.Test}
	b.Run("branch", func(b *testing.B) {
		benchBuild(b, func(s *Store) (events int) {
			for _, p := range workload.BranchSuite() {
				for _, v := range variants {
					events += s.Branches(p, v, gridBranchEvents).Len()
				}
			}
			return events
		})
	})
	b.Run("conf", func(b *testing.B) {
		benchBuild(b, func(s *Store) (events int) {
			for _, p := range workload.LoadSuite() {
				for _, v := range variants {
					events += s.ConfStreams(p, v, gridLoadEvents, vpred.TableLog2Default).Loads()
				}
			}
			return events
		})
	})
}

// benchBuild runs build on a fresh store per iteration and reports the
// bytes allocated per event built.
func benchBuild(b *testing.B, build func(*Store) int) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := 0
	for i := 0; i < b.N; i++ {
		events += build(NewStore())
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B/event")
}
