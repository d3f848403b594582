package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"fsmpredict/internal/gasearch"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// The tests read paperrun's smoke grid and goldens in place.
var (
	smokeGrid   = filepath.Join("..", "cmd", "paperrun", "testdata", "grid.smoke.json")
	smokeGolden = filepath.Join("..", "cmd", "paperrun", "testdata", "golden.smoke")
)

func loadSmoke(t *testing.T) (grid, map[string][]byte) {
	t.Helper()
	raw, err := os.ReadFile(smokeGrid)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseGrid(raw)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(smokeGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string][]byte)
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(smokeGolden, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		golden[e.Name()] = b
	}
	return g, golden
}

// TestSmokeGridMatchesGolden runs paperrun's smoke grid through the
// harness, both through the entry points and through the traced
// decomposition, and diffs every table against paperrun's goldens.
func TestSmokeGridMatchesGolden(t *testing.T) {
	g, golden := loadSmoke(t)
	for _, api := range []figureAPI{entryPoints{}, &decomposed{t: newTracer()}} {
		resetCaches()
		out, err := runGrid(g, api)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range golden {
			if got, ok := out.files[name]; !ok || string(got) != string(want) {
				t.Errorf("%T: %s differs from the golden", api, name)
			}
		}
		for name := range out.files {
			if _, ok := golden[name]; !ok {
				t.Errorf("%T: %s is not in the golden directory", api, name)
			}
		}
	}
}

// TestCorruptedDigestFails checks that a wrong expected digest, a
// missing table and an extra table each count as a failed operation.
func TestCorruptedDigestFails(t *testing.T) {
	g, golden := loadSmoke(t)
	resetCaches()
	out, err := runGrid(g, entryPoints{})
	if err != nil {
		t.Fatal(err)
	}
	got := digests(out.files)
	r := &run{metrics: map[string]metric{}}
	r.checkTables(got, digests(golden), "smoke")
	if r.failed != 0 || r.attempted != int64(len(golden)) {
		t.Fatalf("clean tables: %d of %d failed, want 0 of %d", r.failed, r.attempted, len(golden))
	}
	want := digests(golden)
	want["figure4.csv"] = "00" + want["figure4.csv"][2:]
	delete(want, "figure6.json")
	want["figure9.csv"] = want["figure7.json"]
	r = &run{metrics: map[string]metric{}}
	r.checkTables(got, want, "smoke")
	if r.failed != 3 {
		t.Fatalf("corrupted digests: %d failures, want 3 (wrong, missing, extra)", r.failed)
	}
}

// TestCorruptedSearchOracleFails checks that a champion whose reported
// miss rate the scalar oracle does not reproduce fails its check.
func TestCorruptedSearchOracleFails(t *testing.T) {
	p, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	trace := tracestore.Shared.Branches(p, workload.Train, 20_000).Outcomes().Bools()
	res, err := gasearch.Search(trace, gasearch.Options{States: 4, Population: 16, Generations: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !oracleMiss(res, trace) {
		t.Fatal("an honest champion failed the oracle")
	}
	res.BestMissRate += 1e-9
	if oracleMiss(res, trace) {
		t.Fatal("a corrupted miss rate passed the oracle")
	}
}

// TestCorruptedServeOracleFails drives a few real requests and checks
// that a wrong oracle answer and a changed design both count as failed.
func TestCorruptedServeOracleFails(t *testing.T) {
	e, err := newServeEnv(filepath.Join(t.TempDir(), "disk"), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	reqs := []request{
		{key: 0, ref: 0},
		{key: 1, ref: 1},
		{design: true, key: 0},
		{design: true, key: serveHotKeys},
	}
	out := e.drive(reqs, nil, 0)
	v := newVerifier(e)
	r := &run{metrics: map[string]metric{}}
	v.verify(r, reqs, out)
	if r.failed != 0 || r.attempted != int64(len(reqs)) {
		t.Fatalf("honest responses: %d of %d failed: %v", r.failed, r.attempted, r.failures)
	}
	good := v.simulateOracle(0, 0)
	good.Correct++
	v.oracle[[2]int{0, 0}] = good
	v.byKey[0] = []byte(`{"start":0,"states":[[1,0,0]]}`)
	r = &run{metrics: map[string]metric{}}
	v.verify(r, reqs, out)
	if r.failed != 2 {
		t.Fatalf("corrupted oracle and design: %d failures, want 2: %v", r.failed, r.failures)
	}
}

// TestShedRequestReachesResult drives a shed (503) design and a refused
// simulation through the verifier, the phase summary and emit: both count
// as failed, the percentiles they fall into stay finite and over the
// limits, and the result line still prints and parses.
func TestShedRequestReachesResult(t *testing.T) {
	reqs := []request{
		{design: true, key: 0, at: 0},
		{key: 0, ref: 0, at: time.Millisecond},
	}
	out := []outcome{
		{status: http.StatusServiceUnavailable, latency: 2 * time.Millisecond, body: []byte("overloaded")},
		{err: errors.New("connection refused"), latency: time.Millisecond},
	}
	r := &run{metrics: map[string]metric{}}
	newVerifier(&serveEnv{}).verify(r, reqs, out)
	if r.failed != 2 || r.attempted != 2 {
		t.Fatalf("%d of %d failed, want 2 of 2", r.failed, r.attempted)
	}
	s := summarize(reqs, out, time.Second)
	r.set("serve.design_p99_ms", "ms", quantile(s.design, 0.99))
	r.set("serve.simulate_p99_ms", "ms", quantile(s.simulate, 0.99))
	for name, m := range r.metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) || m.Value <= designP99LimitMS {
			t.Errorf("%s = %g, want finite and over the limits", name, m.Value)
		}
	}
	if s.holds(1) {
		t.Error("a phase of failed requests holds")
	}
	var buf bytes.Buffer
	if err := emit(&buf, map[string]any{}, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted != 2 {
		t.Fatalf("result %+v, want 2 of 2 failed and not correct", res)
	}
}

// TestSelfTimesAddUp checks the ledger's attribution on a tree with a
// parallel fan-out: the attributed self times add up to the root.
func TestSelfTimesAddUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "grid", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "fan", Start: 40, End: 90},
		{ID: 4, Parent: 3, Name: "b.y", Start: 40, End: 80}, // overlaps 5
		{ID: 5, Parent: 3, Name: "c.z", Start: 50, End: 90},
	}
	self := selfTimes(spans)
	var sum float64
	for _, v := range self {
		sum += v
	}
	if d := sum - 100e-9; d > 1e-15 || d < -1e-15 {
		t.Fatalf("self times sum to %g s, want the root's 100 ns", sum)
	}
	// fan covers 50 ns with 80 ns of children: b.y gets 40·50/80 ns.
	if got, want := self["b.y"], 25e-9; got-want > 1e-15 || want-got > 1e-15 {
		t.Fatalf("b.y self time %g, want %g", got, want)
	}
	if got := self["grid"]; got < 30e-9-1e-15 || got > 30e-9+1e-15 {
		t.Fatalf("grid self time %g, want 30 ns", got)
	}
}

// TestMetricsMatchSpec runs every workload briefly, in both modes, and
// checks that after completion against BENCHMARK.json each emits exactly
// the declared metrics of its mode in their units, that every end-to-end
// metric is positive (a bounded metric is judged relative to its median),
// that the workloads set the per-layer metrics of their own layers
// themselves, and that no operation failed. The figures workload runs the
// smoke grid and the search workload a small scale, to keep the test short.
func TestMetricsMatchSpec(t *testing.T) {
	spec, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, golden := loadSmoke(t)
	figuresInputs = func() (grid, map[string]string) { return g, digests(golden) }
	searchEvents, searchPopulation, searchGenerations = 40_000, 16, 3
	defer func() {
		figuresInputs = func() (grid, map[string]string) { return paperGrid(), paperDigests }
		searchEvents, searchPopulation, searchGenerations = 512_000, 64, 25
	}()

	// own lists, per workload, per-layer metrics that workload must set.
	own := map[string][]string{
		"figures": {"figures.figure5_s", "tracestore.branch_gen_s", "figures.unattributed_s"},
		"serve":   {"serve.design_p99_ms", "service.design_l1_hit_ratio", "serve.unattributed_ms"},
		"search":  {"search.adaptive_s", "gasearch.evals", "search.unattributed_s"},
	}
	setByAll := []string{"runtime.alloc_mb", "runtime.gc_cpu_ratio", "host.calibration_ms"}
	for _, w := range spec.Workloads {
		drive, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for mode, decl := range map[int][]declared{0: spec.EndToEnd, 1: spec.PerLayer} {
			r := &run{
				workload: w.Name, seed: 1, measure: 2 * time.Second, traced: mode == 1,
				metrics: map[string]metric{},
			}
			if r.traced {
				r.tracer = newTracer()
			}
			if err := drive(r); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, mode, err)
			}
			if r.failed != 0 {
				t.Errorf("%s trace %d: %d of %d operations failed: %v", w.Name, mode, r.failed, r.attempted, r.failures)
			}
			var set []string
			for name := range r.metrics {
				set = append(set, name)
			}
			if err := r.complete(spec); err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, mode, err)
			}
			if len(r.metrics) != len(decl) {
				t.Errorf("%s trace %d: %d metrics after completion, %d declared", w.Name, mode, len(r.metrics), len(decl))
			}
			if mode == 0 {
				for name, m := range r.metrics {
					if !(m.Value > 0) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: end-to-end %s = %g, want positive and finite", w.Name, name, m.Value)
					}
				}
				continue
			}
			sort.Strings(set)
			for _, name := range append(own[w.Name], setByAll...) {
				if i := sort.SearchStrings(set, name); i == len(set) || set[i] != name {
					t.Errorf("%s: does not set its own per-layer metric %s", w.Name, name)
				}
			}
		}
	}
}

// TestCompleteRejectsDrift checks that completion refuses an undeclared
// metric, a wrong unit and a missing end-to-end metric.
func TestCompleteRejectsDrift(t *testing.T) {
	spec := &manifest{
		EndToEnd: []declared{{"p50_ms", "ms"}},
		PerLayer: []declared{{"a.x_s", "s"}},
	}
	cases := []struct {
		traced bool
		set    map[string]metric
	}{
		{false, map[string]metric{}},
		{false, map[string]metric{"p50_ms": {1, "s"}}},
		{false, map[string]metric{"p50_ms": {1, "ms"}, "a.x_s": {1, "s"}}},
		{true, map[string]metric{"b.y_s": {1, "s"}}},
	}
	for i, c := range cases {
		r := &run{workload: "w", traced: c.traced, metrics: c.set}
		if err := r.complete(spec); err == nil {
			t.Errorf("case %d: completion accepted %v", i, c.set)
		}
	}
	r := &run{workload: "w", traced: true, metrics: map[string]metric{}}
	if err := r.complete(spec); err != nil || r.metrics["a.x_s"] != (metric{0, "s"}) {
		t.Errorf("unset per-layer metric: err %v, got %v, want 0 s", err, r.metrics["a.x_s"])
	}
}
