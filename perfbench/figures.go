package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"fsmpredict/internal/bpred"
	"fsmpredict/internal/confidence"
	"fsmpredict/internal/core"
	"fsmpredict/internal/experiments"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/markov"
	"fsmpredict/internal/par"
	"fsmpredict/internal/stats"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vhdl"
	"fsmpredict/internal/workload"
)

// grid is paperrun's experiment-grid file format. The figures workload
// runs the paper-scale grid; the tests run the checked-in smoke grid
// through the same code and diff it against paperrun's goldens.
type grid struct {
	Name              string    `json:"name"`
	Figures           []string  `json:"figures"`
	Figure2Programs   []string  `json:"figure2_programs"`
	Figure5Programs   []string  `json:"figure5_programs"`
	Figure4SampleFrac float64   `json:"figure4_sample_frac"`
	Scale             gridScale `json:"scale"`
}

type gridScale struct {
	BranchEvents int   `json:"branch_events"`
	LoadEvents   int   `json:"load_events"`
	MaxCustom    int   `json:"max_custom"`
	Order        int   `json:"order"`
	Histories    []int `json:"histories"`
	TableLog2    int   `json:"table_log2"`
	Workers      int   `json:"workers"`
	Adaptive     bool  `json:"adaptive"`
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

// parseGrid decodes a grid file, rejecting unknown fields and figures.
func parseGrid(raw []byte) (grid, error) {
	var g grid
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return g, fmt.Errorf("parsing grid: %v", err)
	}
	if len(g.Figures) == 0 {
		return g, fmt.Errorf("grid lists no figures")
	}
	for _, f := range g.Figures {
		switch f {
		case "figure2", "figure4", "figure5", "figure6", "figure7":
		default:
			return g, fmt.Errorf("unknown figure %q", f)
		}
	}
	return g, nil
}

// paperGrid is the paper-scale grid: every figure, every program, the
// experiments package's default configuration and the paper's 10%
// synthesis sample. It takes no seed: the paper's suite is fixed.
func paperGrid() grid {
	g := grid{
		Name:    "paper",
		Figures: []string{"figure4", "figure2", "figure5", "figure6", "figure7"},
	}
	for _, p := range workload.LoadSuite() {
		g.Figure2Programs = append(g.Figure2Programs, p.Name)
	}
	for _, p := range workload.BranchSuite() {
		g.Figure5Programs = append(g.Figure5Programs, p.Name)
	}
	return g
}

// figuresInputs returns the grid the figures workload runs and the
// digests its tables must match; the tests substitute the smoke grid.
var figuresInputs = func() (grid, map[string]string) { return paperGrid(), paperDigests }

// figureAPI is the set of figure computations a grid run needs. The
// untraced run calls the experiments entry points; the traced run makes
// the same public calls those entry points make, each inside a span.
type figureAPI interface {
	figure2(program string, cfg experiments.Config) (*experiments.Figure2Result, error)
	figure4(cfg experiments.Config, frac float64) (*experiments.Figure4Result, error)
	figure5(program string, cfg experiments.Config, area func(int) float64) (*experiments.Figure5Result, error)
	example(fig string, cfg experiments.Config) (*experiments.ExampleMachine, error)
}

type entryPoints struct{}

func (entryPoints) figure2(p string, cfg experiments.Config) (*experiments.Figure2Result, error) {
	return experiments.Figure2(p, cfg)
}

func (entryPoints) figure4(cfg experiments.Config, frac float64) (*experiments.Figure4Result, error) {
	return experiments.Figure4(cfg, frac)
}

func (entryPoints) figure5(p string, cfg experiments.Config, area func(int) float64) (*experiments.Figure5Result, error) {
	return experiments.Figure5(p, cfg, area)
}

func (entryPoints) example(fig string, cfg experiments.Config) (*experiments.ExampleMachine, error) {
	if fig == "figure6" {
		return experiments.Figure6(cfg)
	}
	return experiments.Figure7(cfg)
}

// gridRun is one grid iteration's output: the rendered tables (the exact
// bytes paperrun writes, summary.json aside), the raw figure results, and
// the wall time of each figure.
type gridRun struct {
	files   map[string][]byte
	results map[string]any
	seconds map[string]float64
	total   float64
}

// runGrid runs every figure of g through api, rendering its tables like
// paperrun does, and times each figure including its rendering.
func runGrid(g grid, api figureAPI) (*gridRun, error) {
	cfg := g.Scale.config()
	out := &gridRun{
		files:   make(map[string][]byte),
		results: make(map[string]any),
		seconds: make(map[string]float64),
	}
	tables := map[string]any{}
	start := time.Now()
	var areaModel func(states int) float64
	for _, fig := range g.Figures {
		t0 := time.Now()
		switch fig {
		case "figure2":
			progs := g.Figure2Programs
			if len(progs) == 0 {
				progs = []string{"gcc", "go", "groff", "li", "perl"}
			}
			summary := map[string]any{}
			for _, prog := range progs {
				r, err := api.figure2(prog, cfg)
				if err != nil {
					return nil, err
				}
				out.results["figure2/"+prog] = r
				summary[prog] = renderFigure2(out.files, prog, r)
			}
			tables["figure2"] = summary
		case "figure4":
			r, err := api.figure4(cfg, g.Figure4SampleFrac)
			if err != nil {
				return nil, err
			}
			out.results["figure4"] = r
			tables["figure4"] = renderFigure4(out.files, r)
			areaModel = r.AreaModel()
		case "figure5":
			progs := g.Figure5Programs
			if len(progs) == 0 {
				progs = []string{"compress", "gs", "gsm", "g721", "ijpeg", "vortex"}
			}
			summary := map[string]any{}
			for _, prog := range progs {
				r, err := api.figure5(prog, cfg, areaModel)
				if err != nil {
					return nil, err
				}
				out.results["figure5/"+prog] = r
				summary[prog] = renderFigure5(out.files, prog, r)
			}
			tables["figure5"] = summary
		case "figure6", "figure7":
			e, err := api.example(fig, cfg)
			if err != nil {
				return nil, err
			}
			out.results[fig] = e
			t, err := renderExample(out.files, fig, e)
			if err != nil {
				return nil, err
			}
			tables[fig] = t
		}
		out.seconds[fig] = time.Since(t0).Seconds()
	}
	if err := putJSON(out.files, "tables.json", tables); err != nil {
		return nil, err
	}
	out.total = time.Since(start).Seconds()
	return out, nil
}

// The render functions reproduce paperrun's table files byte for byte;
// the smoke-grid test pins them to paperrun's checked-in goldens.

func renderFigure2(files map[string][]byte, prog string, r *experiments.Figure2Result) any {
	series := append(r.Series(), stats.Series{Name: "frontier", Points: r.SUDFrontier()})
	files["figure2_"+prog+".csv"] = []byte(stats.CSV(series))
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
	return map[string]any{"max_coverage": best}
}

func renderFigure4(files map[string][]byte, r *experiments.Figure4Result) any {
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
	files["figure4.csv"] = []byte(stats.CSV(series))
	return map[string]any{
		"slope":     r.Fit.Slope,
		"intercept": r.Fit.Intercept,
		"r2":        r.Fit.R2,
		"samples":   len(r.Points),
		"kept":      len(r.Kept),
	}
}

func renderFigure5(files map[string][]byte, prog string, r *experiments.Figure5Result) any {
	series := r.Series()
	files["figure5_"+prog+".csv"] = []byte(stats.CSV(series))
	minMiss := map[string]float64{}
	for _, s := range series {
		minMiss[s.Name] = experiments.MinMiss(s)
	}
	atBudget := map[string]any{}
	for _, s := range series[1:] {
		if m, ok := experiments.BestAtOrBelow(s, r.XScale.X); ok {
			atBudget[s.Name] = m
		}
	}
	return map[string]any{
		"xscale_area":    r.XScale.X,
		"xscale_miss":    r.XScale.Y,
		"min_miss":       minMiss,
		"best_at_budget": atBudget,
	}
}

func renderExample(files map[string][]byte, fig string, e *experiments.ExampleMachine) (any, error) {
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
	if err := putJSON(files, fig+".json", doc); err != nil {
		return nil, err
	}
	return map[string]any{
		"states":                  e.Machine.NumStates(),
		"cover":                   cover,
		"captures_from_any_state": ok,
	}, nil
}

func putJSON(files map[string][]byte, name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	files[name] = append(b, '\n')
	return nil
}

// digests returns the SHA-256 of every rendered table, by file name.
func digests(files map[string][]byte) map[string]string {
	out := make(map[string]string, len(files))
	for name, b := range files {
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

// checkTables counts one operation per expected table: it fails when
// the table is missing or its digest differs, and an unexpected extra
// table fails too.
func (r *run) checkTables(got, want map[string]string, label string) {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		r.check(ok && g == want[n], "%s: table %s digest %.12s, want %.12s", label, n, g, want[n])
	}
	for n := range got {
		if _, ok := want[n]; !ok {
			r.check(false, "%s: unexpected table %s", label, n)
		}
	}
}

// resetCaches empties every in-process cache a figure run reads, so each
// iteration starts cold (no disk tier is attached).
func resetCaches() {
	tracestore.Shared.Clear()
	fsm.ResetBlockCache()
	fidelity.ResetMemo()
}

// figureLayers are the layer spans of the traced figure grid, in ledger
// order.
var figureLayers = []string{
	"tracestore.branch_gen", "tracestore.conf_gen", "tracestore.span_index",
	"bpred.train", "bpred.runall", "bpred.prefix_sweep",
	"vhdl.area", "fsm.fleet_sampled",
	"confidence.sud_sweep", "markov.profile", "core.crosstrain", "markov.fold", "confidence.curve",
	"core.design",
}

// runFigures is the figures workload: cold paper-scale grids, repeated
// for the measuring time, every table checked against its expected
// digest. Set-up materializes the suite's input traces from cold.
func runFigures(r *run) error {
	g, want := figuresInputs()
	cfg := g.Scale.config()
	setupS, err := r.setupTimes(9, func() error {
		resetCaches()
		for _, p := range workload.BranchSuite() {
			tracestore.Shared.Branches(p, workload.Train, defaults(cfg).BranchEvents)
			tracestore.Shared.Branches(p, workload.Test, defaults(cfg).BranchEvents)
		}
		for _, p := range workload.LoadSuite() {
			tracestore.Shared.ConfStreams(p, workload.Train, defaults(cfg).LoadEvents, defaults(cfg).TableLog2)
			tracestore.Shared.ConfStreams(p, workload.Test, defaults(cfg).LoadEvents, defaults(cfg).TableLog2)
		}
		return nil
	})
	if err != nil {
		return err
	}

	untracedBudget := r.measure
	if r.traced {
		untracedBudget = r.measure / 2
	}
	var (
		walls  []float64
		perFig = map[string][]float64{}
		last   *gridRun
	)
	before := sampleRuntime()
	deadline := time.Now().Add(untracedBudget)
	for len(walls) == 0 || time.Now().Before(deadline) {
		resetCaches()
		out, err := runGrid(g, entryPoints{})
		if err != nil {
			return err
		}
		r.checkTables(digests(out.files), want, "figures")
		walls = append(walls, out.total)
		for fig, s := range out.seconds {
			perFig[fig] = append(perFig[fig], s)
		}
		last = out
		r.calibrate()
	}
	after := sampleRuntime()

	// A request is one whole grid.
	if !r.traced {
		r.setEndToEnd(setupS, scaled(walls, 1e3))
		return nil
	}

	// Traced phase: the same grid through the decomposed calls. Each
	// iteration's tables must match the expected digests and its raw
	// results must equal the entry points' results.
	r.setHostLayer()
	r.set("figures.figure2_s", "s", median(perFig["figure2"]))
	r.set("figures.figure4_s", "s", median(perFig["figure4"]))
	r.set("figures.figure5_s", "s", median(perFig["figure5"]))
	r.setRuntimeLayer(before, after, len(walls))
	var (
		iters    int
		designs  int
		events   spanEvents
		runall   runallTally
		storeB   float64
		skipped0 = fsm.SpanStats().SkippedEvents
	)
	deadline = time.Now().Add(r.measure - untracedBudget)
	for iters == 0 || time.Now().Before(deadline) {
		resetCaches()
		iters++
		root := r.tracer.begin(0, int64(iters), "grid")
		d := &decomposed{t: r.tracer, req: int64(iters), root: root}
		out, err := runGrid(g, d)
		r.tracer.end(root)
		if err != nil {
			return err
		}
		r.checkTables(digests(out.files), want, "traced figures")
		for key, want := range last.results {
			r.check(reflect.DeepEqual(out.results[key], want), "traced %s differs from the entry point's result", key)
		}
		designs += d.designs
		events.add(d.spanEvents)
		runall.add(d.runall)
		storeB += float64(tracestore.Shared.Stats().Bytes)
	}
	n := float64(iters)
	r.ledger("figures", r.tracer.snapshot(), iters, mean(walls), figureLayers, "s")
	r.set("tracestore.bytes", "MB", storeB/n/1e6)
	r.set("bpred.designs", "count", float64(designs)/n)
	r.set("bpred.runall_events_per_s", "1/s", runall.rate())
	skipped := float64(fsm.SpanStats().SkippedEvents - skipped0)
	r.set("fsm.span_skip_ratio", "ratio", skipped/max(float64(events.walked), 1))
	return nil
}

// defaults fills a config's zero fields with the paper-scale defaults
// (what the experiments entry points do internally).
func defaults(c experiments.Config) experiments.Config {
	d := experiments.DefaultConfig()
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

// spanEvents counts the events the span-aware replays walked (lanes ×
// events per replay), the denominator of fsm.span_skip_ratio.
type spanEvents struct{ walked uint64 }

func (s *spanEvents) add(o spanEvents) { s.walked += o.walked }

// runallTally accumulates the table-predictor sweep's work and time.
type runallTally struct {
	events  float64
	seconds float64
}

func (t *runallTally) add(o runallTally) { t.events += o.events; t.seconds += o.seconds }

func (t runallTally) rate() float64 {
	if t.seconds == 0 {
		return 0
	}
	return t.events / t.seconds
}

// decomposed is the traced figureAPI. Each method makes the public calls
// its experiments entry point makes, in the same order and with the same
// arguments, wrapping every call into a layer in a span. Two calls are
// hoisted so their cost is visible: the packed traces' span indexes,
// which the prefix sweep would otherwise build lazily, are built first.
type decomposed struct {
	t          *tracer
	req        int64
	root       int
	designs    int
	spanEvents spanEvents
	runall     runallTally
}

func (d *decomposed) do(parent int, name string, f func()) {
	d.t.do(parent, d.req, name, f)
}

func (d *decomposed) figure2(program string, cfg experiments.Config) (*experiments.Figure2Result, error) {
	fig := d.t.begin(d.root, d.req, "figure2")
	defer d.t.end(fig)
	cfg = defaults(cfg)
	target, err := workload.LoadByName(program)
	if err != nil {
		return nil, err
	}
	var evalStreams *tracestore.ConfStreams
	d.do(fig, "tracestore.conf_gen", func() {
		evalStreams = tracestore.Shared.ConfStreams(target, workload.Test, cfg.LoadEvents, cfg.TableLog2)
	})
	res := &experiments.Figure2Result{
		Program: program,
		Curves:  make(map[int][]confidence.FSMPoint, len(cfg.Histories)),
	}
	d.do(fig, "confidence.sud_sweep", func() { res.SUD = confidence.SUDSweepStreams(evalStreams) })
	maxH := 0
	for _, h := range cfg.Histories {
		maxH = max(maxH, h)
	}
	suite := make(map[string]*markov.Model)
	for _, p := range workload.LoadSuite() {
		var streams *tracestore.ConfStreams
		d.do(fig, "tracestore.conf_gen", func() {
			streams = tracestore.Shared.ConfStreams(p, workload.Train, cfg.LoadEvents, cfg.TableLog2)
		})
		d.do(fig, "markov.profile", func() { suite[p.Name] = confidence.PerEntryModel(streams, maxH) })
	}
	var crossed map[string]*markov.Model
	d.do(fig, "core.crosstrain", func() { crossed, err = core.CrossTrain(suite) })
	if err != nil {
		return nil, err
	}
	wide, ok := crossed[program]
	if !ok {
		return nil, fmt.Errorf("%s is not in the load suite", program)
	}
	fan := d.t.begin(fig, d.req, "histories")
	thresholds := confidence.DefaultThresholds()
	curves, err := par.MapSlice(context.Background(), cfg.Workers, cfg.Histories,
		func(_ int, h int) ([]confidence.FSMPoint, error) {
			var model *markov.Model
			var err error
			d.do(fan, "markov.fold", func() { model, err = wide.FoldTo(h) })
			if err != nil {
				return nil, err
			}
			var points []confidence.FSMPoint
			d.do(fan, "confidence.curve", func() {
				points, err = confidence.FSMCurveStreams(model, thresholds, evalStreams)
			})
			return points, err
		})
	d.t.end(fan)
	if err != nil {
		return nil, err
	}
	d.spanEvents.walked += uint64(len(cfg.Histories) * len(thresholds) * evalStreams.Loads())
	for i, h := range cfg.Histories {
		res.Curves[h] = curves[i]
	}
	return res, nil
}

func (d *decomposed) figure4(cfg experiments.Config, frac float64) (*experiments.Figure4Result, error) {
	fig := d.t.begin(d.root, d.req, "figure4")
	defer d.t.end(fig)
	cfg = defaults(cfg)
	if frac <= 0 || frac > 1 {
		frac = 0.1
	}
	type sampled struct {
		entry  *bpred.CustomEntry
		packed *tracestore.Packed
	}
	var all []sampled
	for _, prog := range workload.BranchSuite() {
		var packed *tracestore.Packed
		d.do(fig, "tracestore.branch_gen", func() {
			packed = tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
		})
		var entries []*bpred.CustomEntry
		var err error
		d.do(fig, "bpred.train", func() {
			entries, err = bpred.TrainCustomPacked(packed, bpred.TrainOptions{
				MaxEntries: cfg.MaxCustom, Order: cfg.Order, MinExecutions: 64, Workers: cfg.Workers,
			})
		})
		if err != nil {
			return nil, err
		}
		d.designs += len(entries)
		for _, e := range entries {
			all = append(all, sampled{entry: e, packed: packed})
		}
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("figure4 produced no machines")
	}
	rng := rand.New(rand.NewSource(97))
	picked := make([]sampled, 0, len(all))
	for _, e := range all {
		if frac < 1 && rng.Float64() >= frac {
			continue
		}
		picked = append(picked, e)
	}
	if len(picked) < 2 {
		picked = all
	}
	var points []stats.Point
	var err error
	d.do(fig, "vhdl.area", func() {
		points, err = par.MapSlice(context.Background(), cfg.Workers, picked,
			func(_ int, e sampled) (stats.Point, error) {
				area, err := vhdl.EstimateArea(e.entry.Machine)
				if err != nil {
					return stats.Point{}, err
				}
				return stats.Point{X: float64(e.entry.Machine.NumStates()), Y: area}, nil
			})
	})
	if err != nil {
		return nil, err
	}
	res := &experiments.Figure4Result{Points: points, MissRates: make([]float64, len(picked))}
	// The sample's training miss rates: one fleet pass per program.
	groups := make(map[*tracestore.Packed][]int)
	var order []*tracestore.Packed
	for i, s := range picked {
		if _, ok := groups[s.packed]; !ok {
			order = append(order, s.packed)
		}
		groups[s.packed] = append(groups[s.packed], i)
	}
	for _, p := range order {
		idxs := groups[p]
		machines := make([]*fsm.Machine, len(idxs))
		pos := make([][]int32, len(idxs))
		for k, i := range idxs {
			machines[k] = picked[i].entry.Machine
			if id, ok := p.IDOf(picked[i].entry.Tag); ok {
				pos[k] = p.SubOf(id).Pos
			}
		}
		var misses []int
		d.do(fig, "fsm.fleet_sampled", func() {
			if fl, err := fsm.NewFleet(machines); err == nil {
				misses = fl.RunSampled(p.Outcomes().Words(), p.Len(), pos)
			}
		})
		if misses == nil {
			return nil, fmt.Errorf("figure4: fleet construction failed")
		}
		for k, i := range idxs {
			if len(pos[k]) > 0 {
				res.MissRates[i] = float64(misses[k]) / float64(len(pos[k]))
			}
		}
	}
	// The trimmed fit, as Figure4Result.fitTrimmed computes it.
	base, err := stats.TheilSen(res.Points)
	if err != nil {
		return nil, err
	}
	var kept []stats.Point
	for _, p := range res.Points {
		if pred := base.At(p.X); pred > 40 && p.Y < 0.5*pred {
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) < 2 {
		kept = res.Points
	}
	res.Kept = kept
	if res.Fit, err = stats.LinearFit(kept); err != nil {
		return nil, err
	}
	return res, nil
}

func (d *decomposed) figure5(program string, cfg experiments.Config, area func(int) float64) (*experiments.Figure5Result, error) {
	fig := d.t.begin(d.root, d.req, "figure5")
	defer d.t.end(fig)
	cfg = defaults(cfg)
	prog, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	if area == nil {
		return nil, fmt.Errorf("figure5 %s: the grid runs figure4 first", program)
	}
	var train, test *tracestore.Packed
	d.do(fig, "tracestore.branch_gen", func() {
		train = tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
		test = tracestore.Shared.Branches(prog, workload.Test, cfg.BranchEvents)
	})
	res := &experiments.Figure5Result{Program: program}
	res.Gshare.Name, res.LGC.Name = "gshare", "lgc"
	res.CustomSame.Name, res.CustomDiff.Name = "custom-same", "custom-diff"
	x := bpred.NewXScale()
	preds := []bpred.Predictor{x}
	gshares := make([]*bpred.Gshare, len(experiments.GshareBits))
	for i, bits := range experiments.GshareBits {
		gshares[i] = bpred.NewGshare(bits)
		preds = append(preds, gshares[i])
	}
	lgcs := make([]*bpred.LGC, len(experiments.LGCBits))
	for i, bits := range experiments.LGCBits {
		lgcs[i] = bpred.NewLGC(bits)
		preds = append(preds, lgcs[i])
	}
	var tableResults []bpred.Result
	t0 := time.Now()
	d.do(fig, "bpred.runall", func() { tableResults, err = runAllChunked(cfg.Workers, preds, test) })
	d.runall.add(runallTally{events: float64(len(preds) * test.Len()), seconds: time.Since(t0).Seconds()})
	if err != nil {
		return nil, err
	}
	res.XScale = stats.Point{X: x.Area(), Y: tableResults[0].MissRate()}
	for i, g := range gshares {
		res.Gshare.Points = append(res.Gshare.Points, stats.Point{X: g.Area(), Y: tableResults[1+i].MissRate()})
	}
	for i, l := range lgcs {
		res.LGC.Points = append(res.LGC.Points, stats.Point{X: l.Area(), Y: tableResults[1+len(gshares)+i].MissRate()})
	}
	var entries []*bpred.CustomEntry
	d.do(fig, "bpred.train", func() {
		entries, err = bpred.TrainCustomPacked(train, bpred.TrainOptions{
			MaxEntries: cfg.MaxCustom, Order: cfg.Order, MinExecutions: 64, Workers: cfg.Workers,
		})
	})
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("figure5 %s: no custom entries", program)
	}
	d.designs += len(entries)
	res.Entries = entries
	d.do(fig, "tracestore.span_index", func() {
		train.SpanIndex()
		test.SpanIndex()
	})
	var sweeps [][]bpred.Result
	d.do(fig, "bpred.prefix_sweep", func() {
		sweeps, err = par.MapSlice(context.Background(), 2, []*tracestore.Packed{train, test},
			func(_ int, tr *tracestore.Packed) ([]bpred.Result, error) {
				return bpred.RunCustomPrefixesParallel(entries, tr, cfg.Workers), nil
			})
	})
	if err != nil {
		return nil, err
	}
	d.spanEvents.walked += uint64(len(entries) * (train.Len() + test.Len()))
	for i := range entries {
		c := bpred.NewCustom(entries[:i+1])
		c.FSMArea = area
		res.CustomSame.Points = append(res.CustomSame.Points, stats.Point{X: c.Area(), Y: sweeps[0][i].MissRate()})
		res.CustomDiff.Points = append(res.CustomDiff.Points, stats.Point{X: c.Area(), Y: sweeps[1][i].MissRate()})
	}
	return res, nil
}

// runAllChunked is Figure 5's table sweep: contiguous predictor chunks,
// one per worker, each one bpred.RunAll pass over the trace.
func runAllChunked(workers int, preds []bpred.Predictor, tr *tracestore.Packed) ([]bpred.Result, error) {
	w := par.Workers(workers, len(preds))
	type chunk struct{ lo, hi int }
	chunks := make([]chunk, 0, w)
	for i := 0; i < w; i++ {
		if lo, hi := i*len(preds)/w, (i+1)*len(preds)/w; lo < hi {
			chunks = append(chunks, chunk{lo, hi})
		}
	}
	out := make([]bpred.Result, len(preds))
	_, err := par.MapSlice(context.Background(), len(chunks), chunks,
		func(_ int, c chunk) (struct{}, error) {
			copy(out[c.lo:c.hi], bpred.RunAll(preds[c.lo:c.hi], tr))
			return struct{}{}, nil
		})
	return out, err
}

func (d *decomposed) example(figName string, cfg experiments.Config) (*experiments.ExampleMachine, error) {
	fig := d.t.begin(d.root, d.req, figName)
	defer d.t.end(fig)
	cfg = defaults(cfg)
	program, pc, order := "ijpeg", uint64(0x12005000+2*4), 2
	if figName == "figure7" {
		program, pc, order = "gs", 0x12002000+1*4, 4
	}
	prog, err := workload.ByName(program)
	if err != nil {
		return nil, err
	}
	var packed *tracestore.Packed
	d.do(fig, "tracestore.branch_gen", func() {
		packed = tracestore.Shared.Branches(prog, workload.Train, cfg.BranchEvents)
	})
	model := markov.New(order)
	if id, ok := packed.IDOf(pc); ok {
		d.do(fig, "markov.profile", func() { model = packed.GlobalModels([]int32{id}, order)[0] })
	}
	var design *core.Design
	d.do(fig, "core.design", func() {
		design, err = core.FromModel(model, core.Options{Name: fmt.Sprintf("%s_%#x", program, pc)})
	})
	if err != nil {
		return nil, err
	}
	return &experiments.ExampleMachine{
		Program: program, PC: pc, Order: order, Cover: design.Cover, Machine: design.Machine,
	}, nil
}
