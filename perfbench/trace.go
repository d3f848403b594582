package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run: a call this benchmark made
// into a layer's public function (named "<module>.<operation>"), or a
// structural interval that groups such calls (a figure, a parallel
// fan-out, a request), named without a dot.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Req    int64  `json:"req"` // the iteration, request or search the span belongs to
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so traced and untraced code can share
// call sites.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(parent int, req int64, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent int, req int64, name string, f func()) {
	id := t.begin(parent, req, name)
	f()
	t.end(id)
}

// timed runs f inside a span and returns its wall time in seconds.
func (t *tracer) timed(parent int, req int64, name string, f func()) float64 {
	t0 := time.Now()
	t.do(parent, req, name, f)
	return time.Since(t0).Seconds()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves the spans as JSON lines, after one provenance line.
func (t *tracer) write(path string, prov map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"provenance": prov}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes attributes the wall time of every root span to the spans
// beneath it and sums the result by span name, in seconds. A span's self
// time is its duration minus the part of it its children cover. Children
// that overlap (calls made from parallel workers) share the wall time
// they cover in proportion to their durations, so the attributed self
// times of a tree add up to its root's duration exactly.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	var roots []span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	var attribute func(s span, scale float64)
	attribute = func(s span, scale float64) {
		kids := children[s.ID]
		dur := float64(s.End - s.Start)
		covered, sum := coverage(s, kids)
		out[s.Name] += scale * (dur - covered) / 1e9
		if sum > 0 {
			for _, c := range kids {
				attribute(c, scale*covered/sum)
			}
		}
	}
	for _, r := range roots {
		attribute(r, 1)
	}
	return out
}

// coverage returns how much of parent's interval the union of kids
// covers, and the kids' summed durations (both clipped to the parent).
func coverage(parent span, kids []span) (covered, sum float64) {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
			sum += float64(hi - lo)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var curLo, curHi int64 = 0, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += float64(curHi - curLo)
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += float64(curHi - curLo)
	}
	return covered, sum
}

// ledger reports the per-layer self times of a traced phase, per
// operation (ops roots), and the residual that reconciles them with the
// untraced wall time per operation: residual = untraced − Σ layers. It
// also reports the tracing overhead, traced − untraced, per operation.
// layers lists every layer metric the workload declares, so a layer the
// phase never entered still reads 0. prefix names the workload's
// residual and overhead metrics; unit scales seconds (1 for s, 1e3 for ms).
func (r *run) ledger(prefix string, spans []span, ops int, untracedPerOp float64, layers []string, unit string) {
	scale := 1.0
	if unit == "ms" {
		scale = 1e3
	}
	self := selfTimes(spans)
	var tracedTotal float64
	for _, v := range self {
		tracedTotal += v
	}
	n := float64(max(ops, 1))
	var layerSum float64
	for _, name := range layers {
		v := self[name] / n
		layerSum += v
		r.set(name+"_"+unit, unit, v*scale)
	}
	r.set(prefix+".unattributed_"+unit, unit, (untracedPerOp-layerSum)*scale)
	r.set(prefix+".trace_overhead_"+unit, unit, (tracedTotal/n-untracedPerOp)*scale)
}
