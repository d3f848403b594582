package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/cachewire"
	"fsmpredict/internal/core"
	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/par"
	"fsmpredict/internal/service"
	"fsmpredict/internal/tracestore"
	"fsmpredict/internal/vhdl"
	"fsmpredict/internal/workload"
)

// The serve workload's shape. Arrivals are an open-loop Poisson schedule;
// a request's latency runs from when it was due, so a stall also charges
// the requests queued behind it.
const (
	serveEvents = 250_000
	// serveDesignShare of requests are /v1/design, the rest /v1/simulate.
	serveDesignShare = 0.3
	// serveArtifactsEvery: one design key in this many asks for the
	// regex→NFA→DFA→Hopcroft artifacts.
	serveArtifactsEvery = 8
	// serveHotPCs hot branches per program give the PC-substream refs.
	serveHotPCs = 3
	// serveHotKeys design keys form the hot set, drawn with Zipf
	// popularity of skew serveZipfS; set-up designs them all once, as a
	// server restarted on its cache directory finds them on disk.
	serveHotKeys = 112
	serveZipfS   = 1.4
	// Every serveFreshEvery-th design request asks for a key never asked
	// before, so full pipeline misses arrive at a steady rate. A fixed
	// stride, not a random share, keeps their count, and with it the
	// mean latency, the same for every seed.
	serveFreshEvery = 10
	// serveCacheEntries is the deliberately small in-memory design
	// cache, smaller than the hot set; the disk tier below it holds
	// every design made.
	serveCacheEntries = 32
	// serveOrders design orders, 4..10, cycle through the hot set; fresh
	// keys cycle through the serveFreshOrders orders 4..8, so one costly
	// order-10 miss cannot set a whole phase's p99.
	serveOrders      = 7
	serveFreshOrders = 5
	// serveSimSkip warm-up outcomes are skipped by each simulation.
	serveSimSkip = 16
	// servePool machines are replayed by simulate requests.
	servePool = 12

	// The latency limits serve.max_rps must hold, on the p99 of each endpoint.
	designP99LimitMS   = 100.0
	simulateP99LimitMS = 25.0
	// serveBacklogLimit: a step whose unsent backlog at its end exceeds
	// this much of its arrivals is falling behind.
	serveBacklogLimit = 100 * time.Millisecond
	// serveNominalRPS is the fixed rate the latency metrics are read at.
	serveNominalRPS = 300.0
	// The capacity probe bisects, geometrically, between the nominal
	// rate and serveRateCeiling, holding each probed rate for serveStep.
	serveRateCeiling = 1600.0
	serveStep        = 2 * time.Second
	// serveSubPhase: the nominal phase runs as back-to-back sub-phases of
	// at most this length, with the calibration kernel timed between them,
	// never inside one, where it would stall the open loop.
	serveSubPhase = 5 * time.Second
)

// designKey is one point of the design key space.
type designKey struct {
	ref       service.TraceRefJSON
	order     int
	artifacts bool
	name      string
}

// serveEnv is the in-process server, its disk tier, and the inputs the
// load generator draws from.
type serveEnv struct {
	dir     string
	disk    *disktier.Store
	svc     *service.Service
	srv     *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client

	refs    []service.TraceRefJSON // design and simulate trace refs
	bits    map[string]*bitseq.Bits
	pool    []*fsm.Machine
	simBody [][]byte // pool machine i's JSON encoding
	// rankRefs orders the refs by popularity. It is the same for every
	// seed, so set-up designs the same hot set at the same cost whatever
	// the seed; the seed decides which keys are drawn and when.
	rankRefs []int
	fresh    int // fresh design keys handed out so far
	designs  int // design requests scheduled so far
}

func refID(r service.TraceRefJSON) string {
	return r.Program + "/" + r.Variant + "/" + r.PC
}

// keyAt returns design key i. Keys below serveHotKeys are the hot set,
// in popularity order; key serveHotKeys+j is the j-th fresh key, which
// no earlier request asked for. The index alone fixes the key: its trace,
// its order (cycling 4..10) and whether it asks for artifacts, so every
// seed sees the same keys at the same cost.
func (e *serveEnv) keyAt(i int) designKey {
	if i < serveHotKeys {
		slot := i / serveOrders
		return designKey{
			ref:       e.refs[e.rankRefs[slot%len(e.rankRefs)]],
			order:     4 + i%serveOrders,
			artifacts: slot%serveArtifactsEvery == 1,
			name:      "hot",
		}
	}
	// Fresh keys step through every ref at every fresh order, in the
	// same sequence for every seed.
	j := i - serveHotKeys
	return designKey{
		ref:       e.refs[j%len(e.refs)],
		order:     4 + j%serveFreshOrders,
		artifacts: j/serveFreshOrders%serveArtifactsEvery == 1,
		name:      "fresh" + strconv.Itoa(j),
	}
}

// designOptions are the core options a design key asks for.
func (k designKey) options() core.Options {
	return core.Options{Order: k.order, Artifacts: k.artifacts, Name: k.name}
}

// newServeEnv builds the server under dir: the disk tier wired beneath
// every process cache (as fsmserved does), the service with its small
// design cache, a loopback listener, the stored traces every request
// references, and the machine pool simulate requests replay.
func newServeEnv(dir string, seed int64) (*serveEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	disk, err := cachewire.Setup(dir, 0)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, disk: disk, bits: make(map[string]*bitseq.Bits)}
	e.svc = service.New(service.Config{CacheEntries: serveCacheEntries, Disk: disk})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: service.NewHandler(e.svc)}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	for i := 0; i < runtime.NumCPU(); i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}

	// Trace refs: each program's global train and test streams, plus
	// the local substreams of its hottest branches.
	for _, p := range workload.BranchSuite() {
		for _, v := range []string{"train", "test"} {
			global := service.TraceRefJSON{Program: p.Name, Variant: v, Events: serveEvents}
			bits, err := e.svc.ResolveTrace(service.TraceRef{Program: p.Name, Variant: v, Events: serveEvents})
			if err != nil {
				e.close()
				return nil, err
			}
			e.refs = append(e.refs, global)
			e.bits[refID(global)] = bits
			variant := workload.Train
			if v == "test" {
				variant = workload.Test
			}
			packed := tracestore.Shared.Branches(p, variant, serveEvents)
			for _, pc := range hotPCs(packed, serveHotPCs) {
				ref := global
				ref.PC = fmt.Sprintf("%#x", pc)
				sub, err := e.svc.ResolveTrace(service.TraceRef{Program: p.Name, Variant: v, Events: serveEvents, PC: pc})
				if err != nil {
					e.close()
					return nil, err
				}
				e.refs = append(e.refs, ref)
				e.bits[refID(ref)] = sub
			}
		}
	}

	// Popularity runs across the programs: every program's first ref
	// (its global train stream), then every program's second, and so on.
	perProgram := len(e.refs) / len(workload.BranchSuite())
	for k := 0; k < perProgram; k++ {
		for p := 0; p < len(workload.BranchSuite()); p++ {
			e.rankRefs = append(e.rankRefs, p*perProgram+k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var globals []int
	for i, ref := range e.refs {
		if ref.PC == "" {
			globals = append(globals, i)
		}
	}
	// The simulate pool: machines of every order, each designed from a
	// seed-chosen global stream.
	for i := 0; i < servePool; i++ {
		ref := e.refs[globals[rng.Intn(len(globals))]]
		d, err := core.FromTrace(e.bits[refID(ref)], core.Options{Order: 4 + i%serveOrders, Name: fmt.Sprintf("pool%d", i)})
		if err != nil {
			e.close()
			return nil, err
		}
		b, err := json.Marshal(d.Machine)
		if err != nil {
			e.close()
			return nil, err
		}
		e.pool = append(e.pool, d.Machine)
		e.simBody = append(e.simBody, b)
	}
	// Design the hot set once; the last few stay in the memory cache,
	// all of them land on disk.
	hot := make([]int, serveHotKeys)
	for i := range hot {
		hot[i] = i
	}
	if _, err := par.MapSlice(context.Background(), 0, hot, func(_ int, i int) (struct{}, error) {
		k := e.keyAt(i)
		_, _, err := e.svc.Design(context.Background(), e.bits[refID(k.ref)], k.options())
		return struct{}{}, err
	}); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// hotPCs returns the k most executed branch PCs of a packed trace.
func hotPCs(p *tracestore.Packed, k int) []uint64 {
	type site struct {
		pc uint64
		n  int
	}
	sites := make([]site, p.NumStatics())
	for id := range sites {
		sites[id] = site{pc: p.PCOf(int32(id)), n: p.SubOf(int32(id)).Outcomes.Len()}
	}
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].pc < sites[j].pc
	})
	var out []uint64
	for _, s := range sites[:min(k, len(sites))] {
		out = append(out, s.pc)
	}
	return out
}

// close stops the server and the service, waits for both, detaches the
// process-wide disk tiers and empties every process cache.
func (e *serveEnv) close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		<-e.served
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	fsm.SetDiskTier(nil)
	tracestore.Shared.SetDisk(nil)
	fidelity.SetDiskTier(nil)
	resetCaches()
	os.RemoveAll(e.dir)
}

// request is one scheduled request of a phase.
type request struct {
	at     time.Duration // due, from the phase start
	design bool
	key    int // design key index, or simulate pool machine
	ref    int // simulate trace ref
}

// outcome is what one request got back.
type outcome struct {
	status  int
	latency time.Duration // from due to the end of the response
	lag     time.Duration // from due to sending
	backlog int           // requests due but not yet sent, at sending
	body    []byte
	err     error
}

// schedule draws a Poisson arrival schedule of rate rps for d.
func (e *serveEnv) schedule(rng *rand.Rand, zipf *rand.Zipf, rps float64, d time.Duration) []request {
	var reqs []request
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
		if at >= d {
			return reqs
		}
		q := request{at: at, design: rng.Float64() < serveDesignShare}
		if q.design {
			e.designs++
		}
		switch {
		case q.design && e.designs%serveFreshEvery == 0:
			q.key = serveHotKeys + e.fresh
			e.fresh++
		case q.design:
			q.key = int(zipf.Uint64())
		default:
			q.key = rng.Intn(len(e.pool))
			q.ref = rng.Intn(len(e.refs))
		}
		reqs = append(reqs, q)
	}
}

func (e *serveEnv) body(q request) (string, []byte) {
	if q.design {
		k := e.keyAt(q.key)
		b, _ := json.Marshal(service.DesignRequest{
			Workload: &k.ref,
			Options:  service.OptionsJSON{Order: k.order, Artifacts: k.artifacts, Name: k.name},
		})
		return "/v1/design", b
	}
	ref, _ := json.Marshal(e.refs[q.ref])
	var buf bytes.Buffer
	buf.WriteString(`{"machine":`)
	buf.Write(e.simBody[q.key])
	buf.WriteString(`,"workload":`)
	buf.Write(ref)
	fmt.Fprintf(&buf, `,"skip":%d}`, serveSimSkip)
	return "/v1/simulate", buf.Bytes()
}

// drive runs a schedule open-loop. Each client connection has one load
// goroutine, which takes the next request of its endpoint, waits for its
// due time if early, and sends it. With two or more connections the
// first half carry designs and the rest simulations, so a slow design
// never holds a simulation up on the client side. drive returns when
// every request has completed.
func (e *serveEnv) drive(reqs []request, t *tracer, reqBase int64) []outcome {
	out := make([]outcome, len(reqs))
	split := len(e.clients) > 1
	var queues [2][]int // request indexes per endpoint, in due order
	for i, q := range reqs {
		k := 0
		if q.design && split {
			k = 1
		}
		queues[k] = append(queues[k], i)
	}
	var next [2]atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range e.clients {
		k := 0
		if split && ci < len(e.clients)/2 {
			k = 1
		}
		queue, cursor := queues[k], &next[k]
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				j := int(cursor.Add(1) - 1)
				if j >= len(queue) {
					return
				}
				i := queue[j]
				q := reqs[i]
				if d := time.Until(start.Add(q.at)); d > 0 {
					time.Sleep(d)
				}
				now := time.Since(start)
				due := sort.Search(len(queue), func(x int) bool { return reqs[queue[x]].at > now })
				o := &out[i]
				o.lag = now - q.at
				o.backlog = max(due-j-1, 0)
				path, body := e.body(q)
				name := "simulate"
				if q.design {
					name = "design"
				}
				span := t.begin(0, reqBase+int64(i), name)
				resp, err := c.Post(e.url+path, "application/json", bytes.NewReader(body))
				if err == nil {
					o.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					o.status = resp.StatusCode
				}
				t.end(span)
				o.err = err
				o.latency = time.Since(start) - q.at
			}
		}(c)
	}
	wg.Wait()
	return out
}

// designReply is the part of a design response the checks read.
type designReply struct {
	Key      string          `json:"key"`
	Machine  json.RawMessage `json:"machine"`
	States   int             `json:"states"`
	Stats    service.Stats   `json:"stats"`
	CacheHit bool            `json:"cache_hit"`
}

type simulateReply struct {
	Total   int `json:"total"`
	Correct int `json:"correct"`
}

// verifier checks responses: every simulate result against the scalar
// Machine.Simulate oracle, every design against the first machine served
// for its key, and the first designs of up to serveDesignChecks keys
// with fsm.Equal against a direct core.FromTrace.
type verifier struct {
	e        *serveEnv
	oracle   map[[2]int]fsm.SimResult
	bools    map[int][]bool
	byKey    map[int][]byte
	checked  int
	misses   []designReply // pipeline runs (cache_hit false), for the ledger
	missLat  []time.Duration
	missMach []*fsm.Machine
}

const serveDesignChecks = 48

func newVerifier(e *serveEnv) *verifier {
	return &verifier{e: e, oracle: make(map[[2]int]fsm.SimResult), bools: make(map[int][]bool), byKey: make(map[int][]byte)}
}

func (v *verifier) verify(r *run, reqs []request, out []outcome) {
	for i, q := range reqs {
		o := out[i]
		if o.err != nil || o.status != http.StatusOK {
			r.check(false, "request %d: status %d, error %v: %.200s", i, o.status, o.err, o.body)
			continue
		}
		if !q.design {
			var got simulateReply
			err := json.Unmarshal(o.body, &got)
			want := v.simulateOracle(q.key, q.ref)
			r.check(err == nil && got.Total == want.Total && got.Correct == want.Correct,
				"simulate machine %d ref %s: got %d/%d, oracle %d/%d (%v)", q.key, refID(v.e.refs[q.ref]), got.Correct, got.Total, want.Correct, want.Total, err)
			continue
		}
		var got designReply
		if err := json.Unmarshal(o.body, &got); err != nil {
			r.check(false, "design key %d: %v", q.key, err)
			continue
		}
		first, seen := v.byKey[q.key]
		if !seen {
			v.byKey[q.key] = got.Machine
		}
		ok := bytes.Equal(first, got.Machine) || !seen
		var m fsm.Machine
		if err := json.Unmarshal(got.Machine, &m); err != nil || m.Validate() != nil || m.NumStates() != got.States {
			ok = false
		} else if !seen && v.checked < serveDesignChecks {
			v.checked++
			k := v.e.keyAt(q.key)
			d, err := core.FromTrace(v.e.bits[refID(k.ref)], k.options())
			ok = err == nil && fsm.Equal(d.Machine, &m)
		}
		r.check(ok, "design key %d (%+v): machine differs from the direct design or from an earlier response", q.key, v.e.keyAt(q.key))
		if !got.CacheHit {
			v.misses = append(v.misses, got)
			v.missLat = append(v.missLat, o.latency)
			v.missMach = append(v.missMach, &m)
		}
	}
}

func (v *verifier) simulateOracle(machine, ref int) fsm.SimResult {
	k := [2]int{machine, ref}
	if res, ok := v.oracle[k]; ok {
		return res
	}
	b, ok := v.bools[ref]
	if !ok {
		b = v.e.bits[refID(v.e.refs[ref])].Bools()
		v.bools[ref] = b
	}
	res := v.e.pool[machine].SimulateScalar(b, serveSimSkip)
	v.oracle[k] = res
	return res
}

// phaseStats summarizes a phase's latencies per endpoint. A failed or
// shed request counts as one as late as the whole phase is long: over
// both p99 limits, yet finite, so the percentiles stay numbers the result
// line can carry while the verifier counts the failure itself.
type phaseStats struct {
	design, simulate []float64 // ms
	lag              []float64 // ms
	backlogMax       int
	backlogEnd       int
	n                int
}

// add merges the stats of a later sub-phase into s.
func (s *phaseStats) add(o phaseStats) {
	s.design = append(s.design, o.design...)
	s.simulate = append(s.simulate, o.simulate...)
	s.lag = append(s.lag, o.lag...)
	s.backlogMax = max(s.backlogMax, o.backlogMax)
	s.backlogEnd = max(s.backlogEnd, o.backlogEnd)
	s.n += o.n
}

func summarize(reqs []request, out []outcome, d time.Duration) phaseStats {
	var s phaseStats
	s.n = len(reqs)
	for i, q := range reqs {
		o := out[i]
		lat := float64(o.latency) / 1e6
		if o.err != nil || o.status != http.StatusOK {
			lat = max(lat, float64(d)/1e6)
		}
		if q.design {
			s.design = append(s.design, lat)
		} else {
			s.simulate = append(s.simulate, lat)
		}
		s.lag = append(s.lag, float64(o.lag)/1e6)
		s.backlogMax = max(s.backlogMax, o.backlog)
		// Requests due before the phase ended but sent after it.
		if q.at <= d && q.at+o.lag > d {
			s.backlogEnd++
		}
	}
	return s
}

// holds reports whether a capacity-probe step at rps met both p99
// limits without a growing backlog: when its schedule ended, fewer
// requests were still unsent than arrive in serveBacklogLimit.
func (s phaseStats) holds(rps float64) bool {
	return quantile(s.design, 0.99) <= designP99LimitMS &&
		quantile(s.simulate, 0.99) <= simulateP99LimitMS &&
		float64(s.backlogEnd) <= rps*serveBacklogLimit.Seconds()
}

// report prints a capacity-probe step to standard error and returns
// whether it held.
func (s phaseStats) report(rps float64) bool {
	ok := s.holds(rps)
	fmt.Fprintf(os.Stderr, "perfbench: serve %.0f rps: %d requests, design p99 %.2f ms, simulate p99 %.2f ms, backlog at end %d, holds %t\n",
		rps, s.n, quantile(s.design, 0.99), quantile(s.simulate, 0.99), s.backlogEnd, ok)
	return ok
}

// metricsSnapshot scrapes the server's /metrics exposition.
func (e *serveEnv) metricsSnapshot() (map[string]float64, error) {
	resp, err := e.clients[0].Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(b), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

// serveLayers are the per-design-miss layer times of the serve ledger:
// the pipeline stages the responses report, the VHDL calls the service
// makes on each machine, and the transport and waiting around them.
var serveStageLayers = map[string]string{
	"profile":   "core.profile_ms",
	"fold":      "core.fold_ms",
	"partition": "core.partition_ms",
	"minimize":  "logic.minimize_ms",
	"direct":    "core.direct_ms",
	"regex":     "regex.ms",
	"nfa":       "nfa.ms",
	"dfa":       "dfa.subset_ms",
	"hopcroft":  "dfa.hopcroft_ms",
	"reduce":    "core.reduce_ms",
}

// runServe is the serve workload: a warm-up, a nominal-rate phase the
// latency metrics come from, then a capacity probe of ascending fixed
// rates refined by bisection, all against one in-process server.
func runServe(r *run) error {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("serve-%d", os.Getpid())))
	if err != nil {
		return err
	}
	var e *serveEnv
	setupS, err := r.setupTimes(3, func() error {
		if e != nil {
			e.close()
		}
		e, err = newServeEnv(dir, r.seed)
		return err
	})
	if err != nil {
		return err
	}
	defer e.close()

	rng := rand.New(rand.NewSource(r.seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, serveHotKeys-1)
	v := newVerifier(e)
	phase := func(rps float64, d time.Duration, t *tracer, base int64) ([]request, []outcome, phaseStats) {
		reqs := e.schedule(rng, zipf, rps, d)
		out := e.drive(reqs, t, base)
		v.verify(r, reqs, out)
		return reqs, out, summarize(reqs, out, d)
	}

	// Untraced, the nominal phase takes the whole measuring time. Traced,
	// the untraced half splits into the nominal phase and the capacity
	// probe, and the traced half repeats the nominal phase.
	budget, nominalD := r.measure, r.measure
	if r.traced {
		budget, nominalD = r.measure/2, r.measure/4
	}
	phase(serveNominalRPS, time.Second, nil, 0) // warm-up

	m0, err := e.metricsSnapshot()
	if err != nil {
		return err
	}
	disk0 := e.disk.Stats()
	block0 := fsm.BlockStats()
	before := sampleRuntime()
	var nominal phaseStats
	for left := nominalD; left > 0; left -= serveSubPhase {
		_, _, s := phase(serveNominalRPS, min(left, serveSubPhase), nil, 0)
		nominal.add(s)
		r.calibrate()
	}
	after := sampleRuntime()
	m1, err := e.metricsSnapshot()
	if err != nil {
		return err
	}
	disk1 := e.disk.Stats()
	block1 := fsm.BlockStats()

	// A request is any request of the mix.
	if !r.traced {
		r.setEndToEnd(setupS, append(append([]float64(nil), nominal.design...), nominal.simulate...))
		return nil
	}

	// The per-endpoint percentiles and the capacity are reported with the
	// ledger. Capacity probe: bisect geometrically between the nominal
	// rate (or an eighth of it, should the nominal phase itself fail) and
	// the ceiling, one held rate at a time, while time remains.
	r.setHostLayer()
	r.set("serve.design_p50_ms", "ms", quantile(nominal.design, 0.5))
	r.set("serve.design_p99_ms", "ms", quantile(nominal.design, 0.99))
	r.set("serve.simulate_p50_ms", "ms", quantile(nominal.simulate, 0.5))
	r.set("serve.simulate_p99_ms", "ms", quantile(nominal.simulate, 0.99))
	best, lo, hi := serveNominalRPS, serveNominalRPS, serveRateCeiling
	if !nominal.report(serveNominalRPS) {
		best, lo, hi = 0, serveNominalRPS/8, serveNominalRPS
	}
	for deadline := time.Now().Add(budget - nominalD); time.Now().Add(serveStep).Before(deadline); {
		mid := math.Sqrt(lo * hi)
		if _, _, s := phase(mid, serveStep, nil, 0); s.report(mid) {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	r.set("serve.max_rps", "1/s", best)

	// Per-layer ledger. Cache tiers and shedding come from the server's
	// own counters over the nominal phase.
	delta := func(name string) float64 { return m1[name] - m0[name] }
	lookups := delta("fsmpredict_design_requests_total")
	l1 := delta("fsmpredict_design_cache_hits_total")
	l2 := delta("fsmpredict_design_cache_tier_hits_total")
	runs := delta("fsmpredict_designs_started_total")
	r.set("service.design_l1_hit_ratio", "ratio", l1/max(lookups, 1))
	r.set("service.design_l2_hit_ratio", "ratio", l2/max(lookups, 1))
	r.set("service.design_miss_ratio", "ratio", runs/max(lookups, 1))
	r.set("service.dedup_joined", "count", delta("fsmpredict_design_dedup_joined_total"))
	r.set("service.shed_ratio", "ratio", delta("fsmpredict_design_shed_total")/max(lookups, 1))
	r.set("disktier.hits", "count", float64(disk1.Hits-disk0.Hits))
	r.set("disktier.misses", "count", float64(disk1.Misses-disk0.Misses))
	r.set("disktier.write_mb", "MB", (float64(disk1.Bytes)-float64(disk0.Bytes))/1e6)
	r.set("disktier.corrupt", "count", float64(disk1.Corrupt-disk0.Corrupt))
	blockLookups := float64((block1.Hits - block0.Hits) + (block1.TierHits - block0.TierHits) + (block1.Misses - block0.Misses))
	r.set("fsm.block_hit_ratio", "ratio", float64(block1.Hits-block0.Hits)/max(blockLookups, 1))
	r.set("loadgen.lag_p99_ms", "ms", quantile(nominal.lag, 0.99))
	r.set("loadgen.backlog_max", "count", float64(nominal.backlogMax))
	r.setRuntimeLayer(before, after, nominal.n)
	untracedMisses := v.missLat
	v.misses, v.missLat, v.missMach = nil, nil, nil

	// Traced phase at the nominal rate: every request is a span, and
	// the design misses' stage records break their service time down.
	phase(serveNominalRPS, nominalD, r.tracer, 1)
	t := r.tracer
	probes := t.begin(0, 0, "probes")
	httpJSON := e.httpOverhead(r, v, rng, probes)
	stage := make(map[string]float64)
	var elapsed, latency, gen, area float64
	for i, m := range v.misses {
		for _, st := range m.Stats.Stages {
			stage[st.Stage] += float64(st.Nanos) / 1e6
		}
		elapsed += float64(m.Stats.ElapsedNanos) / 1e6
		latency += float64(v.missLat[i]) / 1e6
		// The service runs the VHDL generator and the area estimate on
		// every machine it designs; time the same calls on the same
		// machines.
		mach := v.missMach[i]
		gen += t.timed(probes, 0, "vhdl.generate", func() { vhdl.Generate(mach) }) * 1e3
		area += t.timed(probes, 0, "vhdl.area", func() { vhdl.EstimateArea(mach) }) * 1e3
	}
	n := float64(max(len(v.misses), 1))
	var layerSum float64
	for _, st := range core.StageNames {
		val := stage[st] / n
		layerSum += val
		r.set(serveStageLayers[st], "ms", val)
	}
	wait := (latency - elapsed) / n
	if len(v.misses) > 0 {
		wait -= httpJSON
	}
	layerSum += (gen+area)/n + httpJSON + wait
	r.set("vhdl.generate_ms", "ms", gen/n)
	r.set("vhdl.area_ms", "ms", area/n)
	r.set("service.http_json_ms", "ms", httpJSON)
	r.set("service.wait_ms", "ms", wait)
	var untraced float64
	for _, l := range untracedMisses {
		untraced += float64(l) / 1e6
	}
	untraced /= float64(max(len(untracedMisses), 1))
	r.set("serve.unattributed_ms", "ms", untraced-layerSum)
	r.set("serve.trace_overhead_ms", "ms", latency/n-untraced)
	r.set("serve.design_misses", "count", float64(len(v.misses)))

	// Kernel probes on the pool machines: the block-table compile and
	// the one-lane walk over a 250k-event global stream that simulate
	// requests run.
	global := e.bits[refID(e.refs[e.rankRefs[0]])]
	var compile, walk []float64
	for _, m := range e.pool {
		compile = append(compile, t.timed(probes, 0, "fsm.block_compile", func() { fsm.CompileBlockTable(m) })*1e3)
		s := t.timed(probes, 0, "fsm.walk1", func() { m.SimulateBits(global, serveSimSkip) })
		walk = append(walk, float64(global.Len())/8/s/1e6)
	}
	t.end(probes)
	r.set("fsm.block_compile_ms", "ms", median(compile))
	r.set("fsm.walk1_mb_per_s", "MB/s", median(walk))
	return nil
}

// httpOverhead returns the mean transport and JSON cost of a simulate
// request: its HTTP round trip minus a direct Service.Simulate call on
// the same machine and trace, over sequential requests on an idle
// server. The round trips are verified like any other response.
func (e *serveEnv) httpOverhead(r *run, v *verifier, rng *rand.Rand, parent int) float64 {
	const probes = 200
	var diff float64
	for i := 0; i < probes; i++ {
		q := request{key: rng.Intn(len(e.pool)), ref: rng.Intn(len(e.refs))}
		var out []outcome
		r.tracer.do(parent, 0, "service.http_json", func() { out = e.drive([]request{q}, nil, 0) })
		v.verify(r, []request{q}, out)
		bits := e.bits[refID(e.refs[q.ref])]
		direct := r.tracer.timed(parent, 0, "service.simulate", func() { e.svc.Simulate(e.pool[q.key], bits, serveSimSkip) })
		diff += float64(out[0].latency)/1e6 - direct*1e3
	}
	return diff / probes
}
