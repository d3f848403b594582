package service

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersAndExposition(t *testing.T) {
	m := NewMetrics()
	m.Counter("b_total").Add(3)
	m.Counter("a_total").Inc()
	if m.Counter("a_total") != m.Counter("a_total") {
		t.Error("repeated lookup returned a different counter")
	}
	m.Counter("a_total").Inc()

	h := m.Histogram("lat_seconds")
	h.Observe(50 * time.Microsecond)  // bucket le=0.0001
	h.Observe(500 * time.Millisecond) // bucket le=1
	h.Observe(2 * time.Hour)          // overflow bucket
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"a_total 2\n",
		"b_total 3\n",
		`lat_seconds_bucket{le="0.0001"} 1`,
		`lat_seconds_bucket{le="1"} 2`,
		`lat_seconds_bucket{le="60"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Counters come before histograms and both are name-sorted, so the
	// output is deterministic.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Errorf("counters not sorted:\n%s", out)
	}
}

func TestMetricsConcurrentUse(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Counter("c_total").Inc()
				m.Histogram("h_seconds").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("c_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := m.Histogram("h_seconds").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
