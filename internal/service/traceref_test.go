package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fsmpredict/internal/fsm"
	"fsmpredict/internal/trace"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/workload"
)

// newRefServer builds a service over a private trace store so test runs
// do not share state through tracestore.Shared.
func newRefServer(t *testing.T) (*Service, *tracestore.Store, *httptest.Server) {
	t.Helper()
	store := tracestore.NewStore()
	s := New(Config{Workers: 2, Traces: store})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, store, srv
}

func TestResolveTraceMatchesGeneratedEvents(t *testing.T) {
	s, _, _ := newRefServer(t)
	const n = 6000
	prog, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	events := prog.Generate(workload.Test, n)

	global, err := s.ResolveTrace(TraceRef{Program: "gsm", Variant: "test", Events: n})
	if err != nil {
		t.Fatal(err)
	}
	if global.Len() != n {
		t.Fatalf("global stream has %d bits, want %d", global.Len(), n)
	}
	for i, e := range events {
		if global.At(i) != e.Taken {
			t.Fatalf("global bit %d = %v, want %v", i, global.At(i), e.Taken)
		}
	}

	pc := events[0].PC
	sub, err := s.ResolveTrace(TraceRef{Program: "gsm", Variant: "test", Events: n, PC: pc})
	if err != nil {
		t.Fatal(err)
	}
	var want []bool
	for _, e := range events {
		if e.PC == pc {
			want = append(want, e.Taken)
		}
	}
	if sub.Len() != len(want) {
		t.Fatalf("substream has %d bits, want %d", sub.Len(), len(want))
	}
	for i, w := range want {
		if sub.At(i) != w {
			t.Fatalf("substream bit %d = %v, want %v", i, sub.At(i), w)
		}
	}
}

func TestResolveTraceErrors(t *testing.T) {
	s, _, _ := newRefServer(t)
	cases := []TraceRef{
		{Program: "no-such-program", Variant: "train", Events: 100},
		{Program: "gsm", Variant: "validation", Events: 100},
		{Program: "gsm", Variant: "train", Events: -5},
		{Program: "gsm", Variant: "train", Events: maxRefEvents + 1},
		{Program: "gsm", Variant: "train", Events: 100, PC: 0xdeadbeef},
	}
	for _, ref := range cases {
		if _, err := s.ResolveTrace(ref); !isInvalid(err) {
			t.Errorf("ResolveTrace(%+v) error = %v, want ErrInvalid", ref, err)
		}
	}
}

func isInvalid(err error) bool {
	return errors.Is(err, ErrInvalid)
}

func TestHTTPWorkloadRefDesign(t *testing.T) {
	s, _, srv := newRefServer(t)
	const n = 4000
	prog, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	// Design on the hottest branch's substream so it has plenty of bits.
	pc := trace.Profile(prog.Generate(workload.Train, n))[0].PC
	ref := &TraceRefJSON{Program: "gsm", Variant: "train", Events: n, PC: fmt.Sprintf("%#x", pc)}

	resp := postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Workload: ref,
		Options:  OptionsJSON{Order: 3, Name: "wl"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status = %d", resp.StatusCode)
	}
	first := decodeBody[DesignResponse](t, resp)
	if first.States <= 0 || first.CacheHit {
		t.Fatalf("first design: states=%d cache_hit=%v", first.States, first.CacheHit)
	}

	// The same reference again is a design-cache hit.
	repeat := decodeBody[DesignResponse](t, postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Workload: ref,
		Options:  OptionsJSON{Order: 3, Name: "wl"},
	}))
	if !repeat.CacheHit || repeat.Key != first.Key {
		t.Errorf("repeat: cache_hit=%v key match=%v", repeat.CacheHit, repeat.Key == first.Key)
	}

	// Content addressing unifies the reference with the same bits sent
	// inline: identical key, served from cache.
	bits, err := s.ResolveTrace(TraceRef{Program: "gsm", Variant: "train", Events: n, PC: pc})
	if err != nil {
		t.Fatal(err)
	}
	inline := decodeBody[DesignResponse](t, postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Trace:   bits.String(),
		Options: OptionsJSON{Order: 3, Name: "wl"},
	}))
	if !inline.CacheHit || inline.Key != first.Key {
		t.Errorf("inline equivalent: cache_hit=%v key match=%v", inline.CacheHit, inline.Key == first.Key)
	}

	// Supplying both forms is the client's error.
	both := postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Trace:    "0101",
		Workload: ref,
		Options:  OptionsJSON{Order: 2},
	})
	both.Body.Close()
	if both.StatusCode != http.StatusBadRequest {
		t.Errorf("both trace and workload: status = %d, want 400", both.StatusCode)
	}
}

func TestHTTPWorkloadRefSimulate(t *testing.T) {
	s, _, srv := newRefServer(t)
	const n = 3000
	design := decodeBody[DesignResponse](t, postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Workload: &TraceRefJSON{Program: "vortex", Variant: "train", Events: n},
		Options:  OptionsJSON{Order: 2},
	}))
	var m fsm.Machine
	if err := json.Unmarshal(design.Machine, &m); err != nil {
		t.Fatal(err)
	}

	byRef := decodeBody[SimulateResponse](t, postJSON(t, srv.URL+"/v1/simulate", SimulateRequest{
		Machine:  &m,
		Workload: &TraceRefJSON{Program: "vortex", Variant: "test", Events: n},
		Skip:     2,
	}))
	bits, err := s.ResolveTrace(TraceRef{Program: "vortex", Variant: "test", Events: n})
	if err != nil {
		t.Fatal(err)
	}
	inline := decodeBody[SimulateResponse](t, postJSON(t, srv.URL+"/v1/simulate", SimulateRequest{
		Machine: &m,
		Trace:   bits.String(),
		Skip:    2,
	}))
	if byRef != inline {
		t.Errorf("workload-ref simulate %+v != inline simulate %+v", byRef, inline)
	}
	if byRef.Total == 0 {
		t.Error("simulate scored no outcomes")
	}
}

func TestMetricsExposeTracestoreGauges(t *testing.T) {
	s, store, srv := newRefServer(t)

	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	before := scrape()
	for _, want := range []string{
		"fsmpredict_tracestore_hits 0\n",
		"fsmpredict_tracestore_misses 0\n",
		"fsmpredict_tracestore_bytes 0\n",
	} {
		if !strings.Contains(before, want) {
			t.Errorf("fresh exposition missing %q:\n%s", want, before)
		}
	}

	ref := TraceRef{Program: "gs", Variant: "train", Events: 2000}
	for i := 0; i < 3; i++ {
		if _, err := s.ResolveTrace(ref); err != nil {
			t.Fatal(err)
		}
	}
	after := scrape()
	if !strings.Contains(after, "fsmpredict_tracestore_misses 1\n") {
		t.Errorf("exposition missing miss count:\n%s", after)
	}
	if !strings.Contains(after, "fsmpredict_tracestore_hits 2\n") {
		t.Errorf("exposition missing hit count:\n%s", after)
	}
	if st := store.Stats(); st.Bytes == 0 {
		t.Error("store reports zero bytes after generation")
	} else if !strings.Contains(after, fmt.Sprintf("fsmpredict_tracestore_bytes %d\n", st.Bytes)) {
		t.Errorf("exposition missing byte gauge %d:\n%s", st.Bytes, after)
	}
}

// TestResolveTraceBytesBounded resolves distinct event counts whose
// traces add up past the trace store's 128 MiB bound: the resident-bytes
// gauge must stay at or below the bound plus one entry.
func TestResolveTraceBytesBounded(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("generates about 165 MB of traces, several times that under -race")
	}
	const bound = 128 << 20
	s, _, _ := newRefServer(t)
	// Descending counts make the first entry the largest.
	var entry, total uint64
	for i := 0; i < 10; i++ {
		if _, err := s.ResolveTrace(TraceRef{Program: "gsm", Variant: "train", Events: 2_000_000 - 64*i}); err != nil {
			t.Fatal(err)
		}
		resident := gaugeValue(t, s, "fsmpredict_tracestore_bytes")
		if i == 0 {
			entry = resident
		}
		total += entry
		if resident > bound+entry {
			t.Fatalf("after %d traces: %d resident bytes, bound %d + entry %d", i+1, resident, bound, entry)
		}
	}
	if total <= bound+entry {
		t.Fatalf("requested traces total %d bytes, not past the bound %d + entry %d", total, bound, entry)
	}
}

// gaugeValue reads one unlabelled metric from the service's exposition.
func gaugeValue(t *testing.T, s *Service, name string) uint64 {
	t.Helper()
	var buf strings.Builder
	if _, err := s.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var n uint64
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}
