// Command paperrun replays the paper's evaluation figures from a JSON
// experiment grid and writes their tables as CSV/JSON files, so a whole
// figure sweep is one reproducible command instead of a shell script
// around the individual bench tools.
//
// Usage:
//
//	paperrun -grid grid.json -out results/
//	paperrun -grid grid.json -out results/ -golden testdata/golden.smoke
//	paperrun -grid grid.json -out results/ -cache-dir /var/cache/fsm
//
// The grid file names the figures to run (figure2, figure4, figure5,
// figure6, figure7), the programs for the per-benchmark figures, and the
// experiment scale (event counts, history lengths, custom-FSM budget).
// Every experiment is bit-identical for any worker count, so the output
// tables are deterministic: -golden diffs them byte-for-byte against a
// checked-in directory and fails on any drift. Only summary.json (wall
// times, cache counters) is nondeterministic, and it is excluded from
// the comparison.
//
// With -cache-dir the run attaches the persistent artifact tier beneath
// the in-process caches, so a second run against the same directory
// starts warm: traces, block tables and designs load from disk instead
// of being regenerated. -require-disk-hits makes that an assertion (the
// run fails if the disk tier served nothing), which is how CI proves the
// warm start works.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fsmpredict/internal/cachewire"
	"fsmpredict/internal/cliutil"
	"fsmpredict/internal/disktier"
	"fsmpredict/internal/experiments"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// grid is the experiment-grid file format.
type grid struct {
	// Name labels the run in summary.json.
	Name string `json:"name"`
	// Figures picks which experiments run, in order. Valid entries:
	// figure2, figure4, figure5, figure6, figure7.
	Figures []string `json:"figures"`
	// Figure2Programs are value benchmarks (gcc, go, groff, li, perl).
	Figure2Programs []string `json:"figure2_programs"`
	// Figure5Programs are branch benchmarks (compress, gs, gsm, g721,
	// ijpeg, vortex).
	Figure5Programs []string `json:"figure5_programs"`
	// Figure4SampleFrac is the synthesis sample fraction in [0,1]
	// (0 -> 0.1).
	Figure4SampleFrac float64 `json:"figure4_sample_frac"`
	// Scale overrides experiments.DefaultConfig; zero fields keep the
	// paper-scale defaults, negative ones are rejected.
	Scale gridScale `json:"scale"`
}

// validate rejects a grid that names no figures or an unknown figure
// or program, or carries an out-of-range value, before any work starts.
func (g grid) validate() error {
	if len(g.Figures) == 0 {
		return fmt.Errorf("lists no figures")
	}
	for _, f := range g.Figures {
		switch f {
		case "figure2", "figure4", "figure5", "figure6", "figure7":
		default:
			return fmt.Errorf("unknown figure %q", f)
		}
	}
	for _, p := range g.Figure2Programs {
		if _, err := workload.LoadByName(p); err != nil {
			return err
		}
	}
	for _, p := range g.Figure5Programs {
		if _, err := workload.ByName(p); err != nil {
			return err
		}
	}
	if f := g.Figure4SampleFrac; f < 0 || f > 1 {
		return fmt.Errorf("figure4_sample_frac %v out of range [0,1]", f)
	}
	s := g.Scale
	for _, f := range []struct {
		name string
		v    int
	}{
		{"branch_events", s.BranchEvents}, {"load_events", s.LoadEvents},
		{"max_custom", s.MaxCustom}, {"order", s.Order},
		{"table_log2", s.TableLog2}, {"workers", s.Workers},
	} {
		if f.v < 0 {
			return fmt.Errorf("scale.%s %d is negative", f.name, f.v)
		}
	}
	for _, h := range s.Histories {
		if h < 0 {
			return fmt.Errorf("scale.histories entry %d is negative", h)
		}
	}
	return nil
}

type gridScale struct {
	BranchEvents int   `json:"branch_events"`
	LoadEvents   int   `json:"load_events"`
	MaxCustom    int   `json:"max_custom"`
	Order        int   `json:"order"`
	Histories    []int `json:"histories"`
	TableLog2    int   `json:"table_log2"`
	Workers      int   `json:"workers"`
	// Adaptive serves repeated figure sweeps from the persistent
	// fitness memo (experiments.Config.Adaptive). Table outputs are
	// byte-identical either way — the golden tests pin that — so a grid
	// can turn it on purely for wall clock.
	Adaptive bool `json:"adaptive"`
}

func (g gridScale) config() experiments.Config {
	return experiments.Config{
		BranchEvents: g.BranchEvents,
		LoadEvents:   g.LoadEvents,
		MaxCustom:    g.MaxCustom,
		Order:        g.Order,
		Histories:    g.Histories,
		TableLog2:    g.TableLog2,
		Workers:      g.Workers,
		Adaptive:     g.Adaptive,
	}
}

type options struct {
	grid            string
	out             string
	golden          string
	cacheDir        string
	cacheSize       string
	requireDiskHits bool
}

// runResult reports what a run produced, for summary.json and tests.
type runResult struct {
	Grid     string             `json:"grid"`
	Name     string             `json:"name"`
	Files    []string           `json:"files"`
	Seconds  map[string]float64 `json:"seconds"`
	Total    float64            `json:"total_seconds"`
	Disk     *disktier.Stats    `json:"disk,omitempty"`
	CacheDir string             `json:"cache_dir,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperrun: ")
	var o options
	flag.StringVar(&o.grid, "grid", "", "experiment grid JSON file (required)")
	flag.StringVar(&o.out, "out", "", "output directory for tables (required)")
	flag.StringVar(&o.golden, "golden", "", "diff outputs against this golden directory (summary.json excluded)")
	flag.StringVar(&o.cacheDir, "cache-dir", "", "persistent artifact cache directory (empty disables the disk tier)")
	flag.StringVar(&o.cacheSize, "cache-size", "", "disk cache size bound, e.g. 512M (empty = store default)")
	flag.BoolVar(&o.requireDiskHits, "require-disk-hits", false, "fail unless the disk tier served at least one artifact (warm-start assertion)")
	flag.Parse()
	if o.grid == "" || o.out == "" {
		cliutil.BadUsage("paperrun: -grid and -out are required")
	}
	if o.cacheDir == "" && (o.cacheSize != "" || o.requireDiskHits) {
		cliutil.BadUsage("paperrun: -cache-size and -require-disk-hits require -cache-dir")
	}
	if flag.NArg() > 0 {
		cliutil.BadUsage("paperrun: unexpected arguments %v", flag.Args())
	}
	res, err := run(o)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d tables in %s (%.2fs)", len(res.Files), o.out, res.Total)
	if res.Disk != nil {
		log.Printf("disk tier: %d hits, %d misses, %d corrupt", res.Disk.Hits, res.Disk.Misses, res.Disk.Corrupt)
	}
}

// run executes the grid and returns the summary; it is the whole
// command minus flag parsing, so tests drive it directly.
func run(o options) (*runResult, error) {
	raw, err := os.ReadFile(o.grid)
	if err != nil {
		return nil, err
	}
	var g grid
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("parsing grid %s: %v", o.grid, err)
	}
	if err := g.validate(); err != nil {
		return nil, fmt.Errorf("grid %s: %v", o.grid, err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}

	maxBytes, err := cachewire.ParseSize(o.cacheSize)
	if err != nil {
		return nil, err
	}
	disk, err := cachewire.Setup(o.cacheDir, maxBytes)
	if err != nil {
		return nil, err
	}
	if disk != nil {
		// Detach the process-wide caches afterwards so test callers
		// (and any later run in the same process) start clean.
		defer fsm.SetDiskTier(nil)
		defer tracestore.Shared.SetDisk(nil)
		defer fidelity.SetDiskTier(nil)
	}

	cfg := g.Scale.config()
	res := &runResult{
		Grid:     o.grid,
		Name:     g.Name,
		Seconds:  make(map[string]float64),
		CacheDir: o.cacheDir,
	}
	tables := map[string]any{}
	start := time.Now()
	// Figure 5 reuses Figure 4's fitted area model when both run.
	var areaModel func(states int) float64
	for _, fig := range g.Figures {
		t0 := time.Now()
		switch fig {
		case "figure2":
			if err := runFigure2(o.out, g, cfg, res, tables); err != nil {
				return nil, err
			}
		case "figure4":
			f4, err := runFigure4(o.out, g, cfg, res, tables)
			if err != nil {
				return nil, err
			}
			areaModel = f4.AreaModel()
		case "figure5":
			if err := runFigure5(o.out, g, cfg, areaModel, res, tables); err != nil {
				return nil, err
			}
		case "figure6", "figure7":
			if err := runExample(o.out, fig, cfg, res, tables); err != nil {
				return nil, err
			}
		}
		res.Seconds[fig] = time.Since(t0).Seconds()
	}

	if err := writeJSON(o.out, "tables.json", tables, res); err != nil {
		return nil, err
	}
	res.Total = time.Since(start).Seconds()
	if disk != nil {
		st := disk.Stats()
		res.Disk = &st
	}
	sort.Strings(res.Files)
	sum, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "summary.json"), append(sum, '\n'), 0o644); err != nil {
		return nil, err
	}

	if o.golden != "" {
		if err := diffGolden(o.golden, o.out); err != nil {
			return nil, err
		}
	}
	if o.requireDiskHits {
		if res.Disk == nil || res.Disk.Hits == 0 {
			return nil, fmt.Errorf("disk tier served no artifacts (cold run?); warm-start assertion failed")
		}
	}
	return res, nil
}

func runFigure2(out string, g grid, cfg experiments.Config, res *runResult, tables map[string]any) error {
	progs := g.Figure2Programs
	if len(progs) == 0 {
		progs = []string{"gcc", "go", "groff", "li", "perl"}
	}
	summary := map[string]any{}
	for _, prog := range progs {
		r, err := experiments.Figure2(prog, cfg)
		if err != nil {
			return err
		}
		series := append(r.Series(), stats.Series{Name: "frontier", Points: r.SUDFrontier()})
		if err := writeFile(out, "figure2_"+prog+".csv", stats.CSV(series), res); err != nil {
			return err
		}
		best := map[string]float64{}
		for _, s := range series {
			var max float64
			for _, p := range s.Points {
				if p.Y > max {
					max = p.Y
				}
			}
			best[s.Name] = max
		}
		summary[prog] = map[string]any{"max_coverage": best}
	}
	tables["figure2"] = summary
	return nil
}

func runFigure4(out string, g grid, cfg experiments.Config, res *runResult, tables map[string]any) (*experiments.Figure4Result, error) {
	frac := g.Figure4SampleFrac
	r, err := experiments.Figure4(cfg, frac)
	if err != nil {
		return nil, err
	}
	fit := stats.Series{Name: "fit"}
	if n := len(r.Points); n > 0 {
		lo, hi := r.Points[0].X, r.Points[0].X
		for _, p := range r.Points {
			lo, hi = min(lo, p.X), max(hi, p.X)
		}
		fit.Points = []stats.Point{{X: lo, Y: r.Fit.At(lo)}, {X: hi, Y: r.Fit.At(hi)}}
	}
	series := []stats.Series{
		{Name: "sample", Points: r.Points},
		{Name: "kept", Points: r.Kept},
		fit,
	}
	if err := writeFile(out, "figure4.csv", stats.CSV(series), res); err != nil {
		return nil, err
	}
	tables["figure4"] = map[string]any{
		"slope":     r.Fit.Slope,
		"intercept": r.Fit.Intercept,
		"r2":        r.Fit.R2,
		"samples":   len(r.Points),
		"kept":      len(r.Kept),
	}
	return r, nil
}

func runFigure5(out string, g grid, cfg experiments.Config, areaModel func(states int) float64, res *runResult, tables map[string]any) error {
	progs := g.Figure5Programs
	if len(progs) == 0 {
		progs = []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"}
	}
	summary := map[string]any{}
	for _, prog := range progs {
		r, err := experiments.Figure5(prog, cfg, areaModel)
		if err != nil {
			return err
		}
		series := r.Series()
		if err := writeFile(out, "figure5_"+prog+".csv", stats.CSV(series), res); err != nil {
			return err
		}
		minMiss := map[string]float64{}
		for _, s := range series {
			minMiss[s.Name] = experiments.MinMiss(s)
		}
		atBudget := map[string]any{}
		for _, s := range series[1:] { // skip the baseline point itself
			if m, ok := experiments.BestAtOrBelow(s, r.XScale.X); ok {
				atBudget[s.Name] = m
			}
		}
		summary[prog] = map[string]any{
			"xscale_area":    r.XScale.X,
			"xscale_miss":    r.XScale.Y,
			"min_miss":       minMiss,
			"best_at_budget": atBudget,
		}
	}
	tables["figure5"] = summary
	return nil
}

func runExample(out, fig string, cfg experiments.Config, res *runResult, tables map[string]any) error {
	var (
		e   *experiments.ExampleMachine
		err error
	)
	if fig == "figure6" {
		e, err = experiments.Figure6(cfg)
	} else {
		e, err = experiments.Figure7(cfg)
	}
	if err != nil {
		return err
	}
	cover := make([]string, len(e.Cover))
	for i, c := range e.Cover {
		cover[i] = c.String()
	}
	state, hist, ok := e.CapturesFromAnyState()
	doc := map[string]any{
		"program":                 e.Program,
		"pc":                      fmt.Sprintf("%#x", e.PC),
		"order":                   e.Order,
		"cover":                   cover,
		"states":                  e.Machine.NumStates(),
		"captures_from_any_state": ok,
		"machine":                 e.Machine,
	}
	if !ok {
		doc["violation"] = map[string]any{"state": state, "history": hist}
	}
	if err := writeJSON(out, fig+".json", doc, res); err != nil {
		return err
	}
	tables[fig] = map[string]any{
		"states":                  e.Machine.NumStates(),
		"cover":                   cover,
		"captures_from_any_state": ok,
	}
	return nil
}

func writeFile(dir, name, content string, res *runResult) error {
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		return err
	}
	res.Files = append(res.Files, name)
	return nil
}

func writeJSON(dir, name string, v any, res *runResult) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(dir, name, string(b)+"\n", res)
}

// diffGolden compares the output directory to the checked-in golden
// directory byte-for-byte, excluding summary.json (wall times and cache
// counters are the one intentionally nondeterministic output).
func diffGolden(golden, out string) error {
	want, err := dirFiles(golden)
	if err != nil {
		return fmt.Errorf("reading golden dir: %v", err)
	}
	got, err := dirFiles(out)
	if err != nil {
		return err
	}
	var bad []string
	for _, name := range want {
		g, err := os.ReadFile(filepath.Join(golden, name))
		if err != nil {
			return err
		}
		o, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			bad = append(bad, name+": missing from output")
			continue
		}
		if string(g) != string(o) {
			bad = append(bad, name+": differs from golden")
		}
	}
	wantSet := map[string]bool{}
	for _, name := range want {
		wantSet[name] = true
	}
	for _, name := range got {
		if !wantSet[name] {
			bad = append(bad, name+": not in golden dir")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("golden mismatch against %s:\n  %s", golden, strings.Join(bad, "\n  "))
	}
	return nil
}

// dirFiles lists a directory's regular files, minus summary.json.
func dirFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || e.Name() == "summary.json" {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
