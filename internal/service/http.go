package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/core"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/gasearch"
)

// maxBodyBytes bounds request bodies; the largest legitimate payload is
// a long trace (one byte per outcome in text form).
const maxBodyBytes = 64 << 20

// DesignRequest is the wire form of POST /v1/design. Exactly one of
// Trace and Workload supplies the outcome stream.
type DesignRequest struct {
	// Trace is the outcome string ('0'/'1'; whitespace and underscores
	// are ignored).
	Trace string `json:"trace,omitempty"`
	// Workload references a stored workload trace instead of carrying
	// the outcomes inline.
	Workload *TraceRefJSON `json:"workload,omitempty"`
	// Options selects the design parameters; see OptionsJSON.
	Options OptionsJSON `json:"options"`
}

// TraceRefJSON is the wire form of a stored-trace reference: a
// synthetic benchmark's branch trace held by the service's packed trace
// store, so repeated requests share one generated, packed copy.
type TraceRefJSON struct {
	// Program is a benchmark name (e.g. "gsm", "vortex").
	Program string `json:"program"`
	// Variant is "train" or "test".
	Variant string `json:"variant"`
	// Events is the dynamic branch count; 0 means the 250k default.
	Events int `json:"events,omitempty"`
	// PC selects one static branch's local outcome substream, in any
	// form strconv.ParseUint(s, 0, 64) accepts ("0x12001004", "4096").
	// Empty means the global outcome stream.
	PC string `json:"pc,omitempty"`
}

// OptionsJSON is the wire form of core.Options. Zero values mean the
// paper defaults (bias threshold 0.5, 1% don't-care budget); a negative
// don't-care budget disables the budget, as in the library.
type OptionsJSON struct {
	Order          int     `json:"order"`
	BiasThreshold  float64 `json:"bias_threshold,omitempty"`
	DontCareBudget float64 `json:"dont_care_budget,omitempty"`
	KeepUnseen     bool    `json:"keep_unseen,omitempty"`
	KeepStartup    bool    `json:"keep_startup,omitempty"`
	// Artifacts requests the full regex→NFA→DFA pipeline so the response
	// carries the intermediate sizes (nfa_states and friends); the
	// default is the direct construction, whose machine is identical.
	Artifacts bool   `json:"artifacts,omitempty"`
	Name      string `json:"name,omitempty"`
}

// Options converts the wire form to core options.
func (o OptionsJSON) Options() core.Options {
	return core.Options{
		Order:          o.Order,
		BiasThreshold:  o.BiasThreshold,
		DontCareBudget: o.DontCareBudget,
		KeepUnseen:     o.KeepUnseen,
		KeepStartup:    o.KeepStartup,
		Artifacts:      o.Artifacts,
		Name:           o.Name,
	}
}

// DesignResponse is the wire form of a successful design.
type DesignResponse struct {
	*Result
	CacheHit bool `json:"cache_hit"`
}

// SimulateRequest is the wire form of POST /v1/simulate. Exactly one of
// Trace and Workload supplies the outcome stream.
type SimulateRequest struct {
	// Machine is a predictor in the canonical JSON encoding (as returned
	// by /v1/design).
	Machine *fsm.Machine `json:"machine"`
	// Trace is the outcome string to replay.
	Trace string `json:"trace,omitempty"`
	// Workload references a stored workload trace to replay.
	Workload *TraceRefJSON `json:"workload,omitempty"`
	// Skip is the number of warm-up outcomes consumed without scoring.
	Skip int `json:"skip,omitempty"`
}

// SimulateResponse is the wire form of a simulation result.
type SimulateResponse struct {
	Total    int     `json:"total"`
	Correct  int     `json:"correct"`
	Accuracy float64 `json:"accuracy"`
	MissRate float64 `json:"miss_rate"`
}

// SearchRequest is the wire form of POST /v1/search: a genetic search
// for a small predictor FSM over the outcome stream, the measured
// baseline the paper's constructive flow is compared against. Exactly
// one of Trace and Workload supplies the stream.
type SearchRequest struct {
	// Trace is the outcome string to search against.
	Trace string `json:"trace,omitempty"`
	// Workload references a stored workload trace instead.
	Workload *TraceRefJSON `json:"workload,omitempty"`
	// Options selects the search parameters; see SearchOptionsJSON.
	Options SearchOptionsJSON `json:"options"`
}

// SearchOptionsJSON is the wire form of gasearch.Options. Zero values
// mean the library defaults; Mode is the search-mode knob.
type SearchOptionsJSON struct {
	// States is the fixed machine size (2..64). Required.
	States int `json:"states"`
	// Population and Generations size the evolution (defaults 64, 50;
	// capped server-side).
	Population  int `json:"population,omitempty"`
	Generations int `json:"generations,omitempty"`
	// Seed makes the search reproducible.
	Seed int64 `json:"seed,omitempty"`
	// Warmup outcomes at the head of the trace are not scored.
	Warmup int `json:"warmup,omitempty"`
	// Mode selects the evaluator: "exact" (default) scores every genome
	// on the full trace; "adaptive" races cohorts through the fidelity
	// ladder with the persistent fitness memo. Best and miss_rate are
	// exact full-trace values in either mode.
	Mode string `json:"mode,omitempty"`
}

// Options converts the wire form to search options, resolving Mode.
func (o SearchOptionsJSON) Options() (gasearch.Options, error) {
	opt := gasearch.Options{
		States:      o.States,
		Population:  o.Population,
		Generations: o.Generations,
		Seed:        o.Seed,
		Warmup:      o.Warmup,
	}
	switch o.Mode {
	case "", "exact":
	case "adaptive":
		opt.Adaptive = true
	default:
		return opt, fmt.Errorf("%w: unknown search mode %q (want \"exact\" or \"adaptive\")", ErrInvalid, o.Mode)
	}
	return opt, nil
}

// SearchResponse is the wire form of a search result. The racing block
// reports the evaluator's activity: memo hits and dedup count in both
// modes, the ladder fields stay zero in exact mode.
type SearchResponse struct {
	// Machine is the champion in the canonical JSON encoding.
	Machine *fsm.Machine `json:"machine"`
	// States is the champion's machine size.
	States int `json:"states"`
	// MissRate is its full-fidelity training miss rate.
	MissRate float64 `json:"miss_rate"`
	// Evaluations counts fitness evaluations requested.
	Evaluations int `json:"evaluations"`
	Racing      struct {
		LadderUsed bool `json:"ladder_used"`
		RungEvals  int  `json:"rung_evals"`
		Pruned     int  `json:"pruned"`
		Escalated  int  `json:"escalated"`
		MemoHits   int  `json:"memo_hits"`
		Deduped    int  `json:"deduped"`
	} `json:"racing"`
}

// errorResponse is the wire form of any failure.
type errorResponse struct {
	Error string `json:"error"`
}

// ref converts the wire form into a TraceRef, parsing the PC.
func (r *TraceRefJSON) ref() (TraceRef, error) {
	var pc uint64
	if r.PC != "" {
		var err error
		pc, err = strconv.ParseUint(r.PC, 0, 64)
		if err != nil {
			return TraceRef{}, fmt.Errorf("%w: bad pc %q: %v", ErrInvalid, r.PC, err)
		}
	}
	return TraceRef{Program: r.Program, Variant: r.Variant, Events: r.Events, PC: pc}, nil
}

// requestTrace resolves a request's outcome stream from whichever of
// the inline trace string and the stored-trace reference was supplied,
// rejecting requests that carry both.
func requestTrace(s *Service, inline string, ref *TraceRefJSON) (*bitseq.Bits, error) {
	if ref == nil {
		bits, err := bitseq.FromString(inline)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		return bits, nil
	}
	if inline != "" {
		return nil, fmt.Errorf("%w: request carries both an inline trace and a workload reference", ErrInvalid)
	}
	r, err := ref.ref()
	if err != nil {
		return nil, err
	}
	return s.ResolveTrace(r)
}

// NewHandler exposes the service over HTTP:
//
//	POST /v1/design   — trace + options → machine JSON, VHDL, area, stats
//	POST /v1/simulate — machine + trace → prediction accuracy
//	POST /v1/search   — trace + options → evolved predictor (mode: exact|adaptive)
//	GET  /healthz     — liveness probe
//	GET  /metrics     — text metrics exposition
//
// Request bodies and responses are JSON except /healthz and /metrics.
// All POST endpoints accept either an inline "trace" string or a
// "workload" stored-trace reference (see TraceRefJSON).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/design", func(w http.ResponseWriter, r *http.Request) {
		var req DesignRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		bits, err := requestTrace(s, req.Trace, req.Workload)
		if err != nil {
			writeError(w, err)
			return
		}
		res, hit, err := s.Design(r.Context(), bits, req.Options.Options())
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, DesignResponse{Result: res, CacheHit: hit})
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		var req SimulateRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		bits, err := requestTrace(s, req.Trace, req.Workload)
		if err != nil {
			writeError(w, err)
			return
		}
		res, err := s.Simulate(req.Machine, bits, req.Skip)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, SimulateResponse{
			Total:    res.Total,
			Correct:  res.Correct,
			Accuracy: res.Accuracy(),
			MissRate: res.MissRate(),
		})
	})
	mux.HandleFunc("POST /v1/search", func(w http.ResponseWriter, r *http.Request) {
		var req SearchRequest
		if err := decodeJSON(w, r, &req); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		bits, err := requestTrace(s, req.Trace, req.Workload)
		if err != nil {
			writeError(w, err)
			return
		}
		opt, err := req.Options.Options()
		if err != nil {
			writeError(w, err)
			return
		}
		res, err := s.Search(bits, opt)
		if err != nil {
			writeError(w, err)
			return
		}
		var resp SearchResponse
		resp.Machine = res.Best
		resp.States = res.Best.NumStates()
		resp.MissRate = res.BestMissRate
		resp.Evaluations = res.Evaluations
		resp.Racing.LadderUsed = res.Racing.LadderUsed
		resp.Racing.RungEvals = res.Racing.RungEvals
		resp.Racing.Pruned = res.Racing.Pruned
		resp.Racing.Escalated = res.Racing.Escalated
		resp.Racing.MemoHits = res.Racing.MemoHits
		resp.Racing.Deduped = res.Racing.Deduped
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.Metrics().WriteTo(w)
	})
	return mux
}

// decodeJSON reads one JSON document from the body, rejecting oversized
// bodies and trailing garbage.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// writeError maps service errors onto HTTP statuses: invalid requests
// are the client's fault (400), shedding and shutdown are capacity
// signals (503), anything else is a server fault (500).
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalid):
		status = http.StatusBadRequest
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
