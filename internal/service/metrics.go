// Package service wraps the §4 design flow (internal/core) in a
// concurrent serving layer: a content-addressed result cache, request
// deduplication, a bounded worker pool with load shedding, and a small
// metrics registry. cmd/fsmserved exposes it over HTTP; the facade
// package re-exports it as fsmpredict.NewService.
//
// The paper reports that generating all FSM predictors for one program
// takes 20 seconds to 2 minutes (§5) — seconds-scale, pure, and fully
// deterministic given (trace, options). That profile is exactly what a
// serving layer exploits: identical requests are served from cache or
// coalesced into one pipeline execution, and distinct requests fan out
// across cores without unbounded queueing.
package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge exposes a value computed at exposition time. Unlike a Counter
// it holds no state of its own: the callback is invoked on every read,
// so the gauge always reflects the live value of whatever it observes
// (a cache size, a store's byte count) without the owner having to push
// updates into the registry.
type Gauge struct {
	fn func() uint64
}

// Value reads the gauge by invoking its callback.
func (g *Gauge) Value() uint64 { return g.fn() }

// defaultBuckets spans the design-latency range the paper reports:
// microseconds for cache-adjacent work up to minutes for deep orders.
var defaultBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
	time.Minute,
}

// Histogram is a fixed-bucket latency histogram safe for concurrent use.
// Buckets are cumulative at exposition time, Prometheus style.
type Histogram struct {
	bounds  []time.Duration
	buckets []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	return &Histogram{
		bounds:  bounds,
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Metrics is a registry of named counters and histograms. Lookups
// create-on-first-use; the returned pointers may be retained and updated
// with atomic cost only. The zero value is not usable; call NewMetrics.
type Metrics struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed.
func (m *Metrics) Counter(name string) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge registers a callback-backed gauge under the given name,
// replacing any previous registration, and returns it. The callback is
// invoked on every exposition and must be safe for concurrent use.
func (m *Metrics) Gauge(name string, fn func() uint64) *Gauge {
	g := &Gauge{fn: fn}
	m.mu.Lock()
	m.gauges[name] = g
	m.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it with the default
// latency buckets if needed.
func (m *Metrics) Histogram(name string) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.histograms[name]
	if h == nil {
		h = newHistogram(defaultBuckets)
		m.histograms[name] = h
	}
	return h
}

// WriteTo renders the registry in the Prometheus text exposition format
// (counters and gauges as "<name> <value>", histograms as cumulative
// _bucket/_sum/_count series), with names in sorted order within each
// group so output is deterministic. Gauge callbacks run outside the
// registry lock so they may take their own locks freely.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	counterNames := make([]string, 0, len(m.counters))
	for name := range m.counters {
		counterNames = append(counterNames, name)
	}
	gaugeNames := make([]string, 0, len(m.gauges))
	for name := range m.gauges {
		gaugeNames = append(gaugeNames, name)
	}
	histNames := make([]string, 0, len(m.histograms))
	for name := range m.histograms {
		histNames = append(histNames, name)
	}
	sort.Strings(counterNames)
	sort.Strings(gaugeNames)
	sort.Strings(histNames)
	counters := make([]*Counter, len(counterNames))
	for i, name := range counterNames {
		counters[i] = m.counters[name]
	}
	gauges := make([]*Gauge, len(gaugeNames))
	for i, name := range gaugeNames {
		gauges[i] = m.gauges[name]
	}
	hists := make([]*Histogram, len(histNames))
	for i, name := range histNames {
		hists[i] = m.histograms[name]
	}
	m.mu.Unlock()

	var total int64
	for i, name := range counterNames {
		n, err := fmt.Fprintf(w, "%s %d\n", name, counters[i].Value())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for i, name := range gaugeNames {
		n, err := fmt.Fprintf(w, "%s %d\n", name, gauges[i].Value())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	for i, name := range histNames {
		h := hists[i]
		var cum uint64
		for b, bound := range h.bounds {
			cum += h.buckets[b].Load()
			n, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatSeconds(bound.Seconds()), cum)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		n, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, cum, name, formatSeconds(h.Sum().Seconds()), name, h.Count())
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// formatSeconds renders a seconds value compactly without exponent
// surprises for the bucket bounds in use.
func formatSeconds(s float64) string {
	if s == math.Trunc(s) {
		return fmt.Sprintf("%.0f", s)
	}
	return fmt.Sprintf("%g", s)
}
