// Command perfbench is the repository benchmark. It drives one of three
// workloads in-process for a fixed measuring time, checks every output
// against an independent oracle, and prints one JSON line of metrics:
//
//	perfbench -workload figures|serve|search -seed N -seconds S -trace 0|1
//
// With -trace 0 the line carries the end-to-end metrics, measured with
// tracing off; every workload reports the same ones. With -trace 1 the
// run measures the workload untraced for half the time and traced for the
// other half, and the line carries the per-layer ledger: each layer's self
// time from spans recorded around the calls this benchmark makes into the
// layer's public functions, plus the residual the layers do not account
// for and the tracing overhead. The spans themselves are written to
// -spans when the run ends. Both lines hold exactly the metrics the
// manifest (BENCHMARK.json) declares for their mode; a per-layer metric of
// a layer the workload never calls reads 0.
//
// Inputs are derived from -seed alone. Every run prints a provenance
// line (host, Go version, source digest, seed) before the result line,
// which is always the last line of standard output. README.md lists the
// workloads, the metrics and the layer-to-end-to-end mapping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload invocation accumulates: its settings,
// the operation tally behind attempted/failed, and the metrics of the
// requested kind (end-to-end or per-layer).
type run struct {
	workload string
	seed     int64
	measure  time.Duration
	traced   bool
	tracer   *tracer

	attempted, failed int64
	failures          []string
	metrics           map[string]metric
	calibration       []float64 // calibration kernel times, ms
}

// check tallies one verified operation; a false ok counts it as failed
// and keeps the first few descriptions for standard error.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric; it is a bug to report one twice.
func (r *run) set(name, unit string, v float64) {
	if _, dup := r.metrics[name]; dup {
		panic("perfbench: metric reported twice: " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*run) error{
	"figures": runFigures,
	"serve":   runServe,
	"search":  runSearch,
}

// manifest is the part of BENCHMARK.json the benchmark reads: the
// workloads and the metrics of each mode with their units.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// complete holds a run's metrics to the manifest: every declared metric
// of the run's mode is present in its declared unit, and nothing else is.
// A per-layer metric the workload did not set is a layer it never called,
// and reads 0; a missing end-to-end metric is an error.
func (r *run) complete(m *manifest) error {
	decl := m.EndToEnd
	if r.traced {
		decl = m.PerLayer
	}
	want := make(map[string]string, len(decl))
	for _, d := range decl {
		want[d.Name] = d.Unit
		got, ok := r.metrics[d.Name]
		switch {
		case !ok && r.traced:
			r.metrics[d.Name] = metric{Value: 0, Unit: d.Unit}
		case !ok:
			return fmt.Errorf("%s did not report %s", r.workload, d.Name)
		case got.Unit != d.Unit:
			return fmt.Errorf("%s reported %s in %s, declared in %s", r.workload, d.Name, got.Unit, d.Unit)
		}
	}
	for name := range r.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("%s reported %s, which the manifest does not declare for this mode", r.workload, name)
		}
	}
	return nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: figures, serve or search")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
		spans   = flag.String("spans", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
		specAt  = flag.String("manifest", "BENCHMARK.json", "the benchmark manifest naming the metrics to report")
	)
	flag.Parse()
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	spec, err := readManifest(*specAt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		metrics:  make(map[string]metric),
	}
	if r.traced {
		r.tracer = newTracer()
	}
	prov := provenance(r.workload, r.seed, r.traced)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s attempted no operations\n", r.workload)
		os.Exit(1)
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", f)
	}
	if r.traced {
		path := filepath.Join(*spans, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tracer.write(path, prov); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.tracer.len(), path)
	}
	if err := r.complete(spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, prov, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints the provenance line, then the result as the last line.
func emit(w io.Writer, prov map[string]any, r *run) error {
	p, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", p, b)
	return err
}

// setupTimes runs a workload's set-up reps times and returns the median
// wall time in seconds; the last repetition's state is the one kept. The
// host's speed is sampled before each repetition and after the last.
func (r *run) setupTimes(reps int, setup func() error) (float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		r.calibrate()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.calibrate()
	return median(times), nil
}

// errNoWork reports a measuring phase that completed no operation.
var errNoWork = errors.New("measuring phase completed no operation")
