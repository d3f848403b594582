package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fsmpredict/internal/fidelity"
)

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestHTTPDesignAndSimulate(t *testing.T) {
	_, srv := newTestServer(t)

	resp := postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Trace:   paperTrace,
		Options: OptionsJSON{Order: 2, Name: "fig1"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design status = %d", resp.StatusCode)
	}
	design := decodeBody[DesignResponse](t, resp)
	if design.States != 3 {
		t.Errorf("states = %d, want 3", design.States)
	}
	if design.CacheHit {
		t.Error("first design reported cache_hit")
	}
	if !strings.Contains(design.VHDL, "entity fig1 is") {
		t.Errorf("VHDL missing named entity:\n%s", design.VHDL)
	}
	if len(design.Key) != 64 {
		t.Errorf("key %q is not a hex SHA-256", design.Key)
	}

	// Repeat: cache hit with the same key and machine bytes.
	repeat := decodeBody[DesignResponse](t, postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Trace:   paperTrace,
		Options: OptionsJSON{Order: 2, Name: "fig1"},
	}))
	if !repeat.CacheHit || repeat.Key != design.Key || !bytes.Equal(repeat.Machine, design.Machine) {
		t.Errorf("repeat design not served identically from cache")
	}

	// Feed the designed machine back through /v1/simulate.
	var machine json.RawMessage = design.Machine
	resp = postJSON(t, srv.URL+"/v1/simulate", map[string]any{
		"machine": machine, "trace": paperTrace, "skip": 2,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d", resp.StatusCode)
	}
	sim := decodeBody[SimulateResponse](t, resp)
	if sim.Total != 22 || sim.Correct <= sim.Total/2 {
		t.Errorf("simulate = %+v", sim)
	}
	if want := sim.Accuracy + sim.MissRate; want < 0.999 || want > 1.001 {
		t.Errorf("accuracy %v + miss %v != 1", sim.Accuracy, sim.MissRate)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := newTestServer(t)
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"design bad json", "/v1/design", `{`, http.StatusBadRequest},
		{"design trailing garbage", "/v1/design", `{"trace":"0101","options":{"order":2}} junk`, http.StatusBadRequest},
		{"design bad trace", "/v1/design", `{"trace":"01012","options":{"order":2}}`, http.StatusBadRequest},
		{"design bad order", "/v1/design", `{"trace":"0101","options":{"order":99}}`, http.StatusBadRequest},
		{"simulate invalid machine", "/v1/simulate", `{"machine":{"start":0,"states":[[0,0,9]]},"trace":"01"}`, http.StatusBadRequest},
		{"simulate missing machine", "/v1/simulate", `{"trace":"01"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, c.status)
			}
			e := decodeBody[struct {
				Error string `json:"error"`
			}](t, resp)
			if e.Error == "" {
				t.Error("error response has no error field")
			}
		})
	}

	// Wrong methods are rejected by the route patterns.
	resp, err := http.Get(srv.URL + "/v1/design")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/design status = %d, want 405", resp.StatusCode)
	}
}

func TestHTTPOverloadMapsTo503(t *testing.T) {
	g := &gateDesign{release: make(chan struct{})}
	var once sync.Once
	releaseGate := func() { once.Do(func() { close(g.release) }) }
	defer releaseGate()
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.designFn = g.fn
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})

	// Saturate: one running, one queued, then expect a 503.
	status := make(chan int, 3)
	post := func(i int) {
		go func() {
			resp := postJSON(t, srv.URL+"/v1/design", DesignRequest{
				Trace:   fmt.Sprintf("%08b 1111 0000 1111", i+1),
				Options: OptionsJSON{Order: 2},
			})
			resp.Body.Close()
			status <- resp.StatusCode
		}()
	}
	post(0)
	waitFor(t, "first design to start", func() bool { return g.count() >= 1 })
	post(1)
	waitFor(t, "second design to queue", func() bool { return s.met.designRequests.Value() >= 2 })
	time.Sleep(20 * time.Millisecond)
	post(2)
	if got := <-status; got != http.StatusServiceUnavailable {
		t.Errorf("saturated design status = %d, want 503", got)
	}
	releaseGate()
	for i := 0; i < 2; i++ {
		if got := <-status; got != http.StatusOK {
			t.Errorf("drained design status = %d, want 200", got)
		}
	}
}

// waitFor polls cond until it holds or the test deadline approaches.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPSearchModes drives POST /v1/search through both evaluator
// modes on the same trace and seed: the adaptive racer must return the
// exact mode's champion and miss rate (the endpoint-level face of
// the gasearch differential contract), and the fidelity counters must
// land on /metrics.
func TestHTTPSearchModes(t *testing.T) {
	_, srv := newTestServer(t)

	// Long enough for the adaptive ladder to stage (16 windows of 512).
	trace := strings.Repeat("1101", 1<<13)
	search := func(mode string) SearchResponse {
		t.Helper()
		resp := postJSON(t, srv.URL+"/v1/search", SearchRequest{
			Trace: trace,
			Options: SearchOptionsJSON{
				States: 4, Population: 16, Generations: 4, Seed: 7, Mode: mode,
			},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search mode %q status = %d", mode, resp.StatusCode)
		}
		return decodeBody[SearchResponse](t, resp)
	}
	exact := search("exact")
	// A cold fitness memo makes the adaptive search race every cohort
	// instead of reading the exact search's scores back.
	fidelity.ResetMemo()
	adaptive := search("adaptive")
	if exact.MissRate != adaptive.MissRate {
		t.Errorf("adaptive miss rate %v != exact %v", adaptive.MissRate, exact.MissRate)
	}
	ej, _ := json.Marshal(exact.Machine)
	aj, _ := json.Marshal(adaptive.Machine)
	if string(ej) != string(aj) {
		t.Errorf("adaptive champion differs from exact:\n%s\n%s", aj, ej)
	}
	if exact.States != 4 || adaptive.States != 4 {
		t.Errorf("champion states = %d/%d, want 4", exact.States, adaptive.States)
	}

	resp := postJSON(t, srv.URL+"/v1/search", SearchRequest{
		Trace:   trace,
		Options: SearchOptionsJSON{States: 4, Mode: "psychic"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"fsmpredict_search_requests_total 2",
		"fsmpredict_search_fitness_hits_total",
		"fsmpredict_search_memo_bytes_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// On a fresh service the ladder counters hold exactly the adaptive
	// search's tallies: the exact search adds nothing.
	if !adaptive.Racing.LadderUsed || adaptive.Racing.RungEvals == 0 {
		t.Fatalf("adaptive search did not race: %+v", adaptive.Racing)
	}
	if exact.Racing.RungEvals != 0 || exact.Racing.Pruned != 0 || exact.Racing.Escalated != 0 {
		t.Errorf("exact search reported ladder work: %+v", exact.Racing)
	}
	for name, want := range map[string]int{
		"fsmpredict_search_rung_evals_total": adaptive.Racing.RungEvals,
		"fsmpredict_search_pruned_total":     adaptive.Racing.Pruned,
		"fsmpredict_search_escalated_total":  adaptive.Racing.Escalated,
	} {
		line := fmt.Sprintf("\n%s %d\n", name, want)
		if !strings.Contains("\n"+body, line) {
			t.Errorf("metrics exposition lacks %q (racing %+v)", strings.TrimSpace(line), adaptive.Racing)
		}
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}

	postJSON(t, srv.URL+"/v1/design", DesignRequest{Trace: paperTrace, Options: OptionsJSON{Order: 2}}).Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"fsmpredict_design_requests_total 1",
		"fsmpredict_designs_completed_total 1",
		"fsmpredict_design_cache_misses_total 1",
		"fsmpredict_design_seconds_count 1",
		"fsmpredict_stage_direct_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, body)
		}
	}
}
