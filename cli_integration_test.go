package fsmpredict_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildTool compiles one cmd/ binary into dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

// TestCommandLineWorkflow builds the command-line tools and exercises the
// documented end-to-end workflow: generate a benchmark trace with
// tracegen, inspect it with fsmgen, and design a per-branch predictor
// from it — the release smoke test.
func TestCommandLineWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	tracegen := buildTool(t, dir, "tracegen")
	fsmgen := buildTool(t, dir, "fsmgen")

	run := func(bin string, args ...string) string {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
		}
		return string(out)
	}

	// 1. List benchmarks.
	if out := run(tracegen, "-list"); !strings.Contains(out, "ijpeg") {
		t.Fatalf("tracegen -list missing benchmarks:\n%s", out)
	}

	// 2. Generate a trace.
	traceFile := filepath.Join(dir, "ijpeg.btrc")
	run(tracegen, "-bench", "ijpeg", "-n", "40000", "-o", traceFile)
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}

	// 3. Profile it.
	profile := run(fsmgen, "-branch-trace", traceFile)
	if !strings.Contains(profile, "0x12005008") {
		t.Fatalf("profile missing expected branch:\n%s", profile)
	}

	// 4. Design the Figure 6 branch's predictor and emit VHDL.
	design := run(fsmgen, "-branch-trace", traceFile, "-pc", "0x12005008",
		"-order", "9", "-vhdl")
	for _, want := range []string{
		"minimized cover: [xxxxxxx1x]",
		"final 4 states",
		"synchronizes after 2 inputs",
		"entity branch_0x12005008 is",
	} {
		if !strings.Contains(design, want) {
			t.Errorf("fsmgen output missing %q:\n%s", want, design)
		}
	}

	// 5. Inline-trace mode with DOT output.
	quick := run(fsmgen, "-trace", "0000 1000 1011 1101 1110 1111",
		"-order", "2", "-dot")
	if !strings.Contains(quick, "final 3 states") || !strings.Contains(quick, "digraph") {
		t.Errorf("worked example output wrong:\n%s", quick)
	}

	// 6. SimPoint-sampled trace generation.
	sampled := filepath.Join(dir, "sampled.btrc")
	out := run(tracegen, "-bench", "vortex", "-n", "100000", "-simpoint", "-o", sampled)
	if !strings.Contains(out, "representatives") {
		t.Errorf("simpoint summary missing:\n%s", out)
	}
}

// TestCommandLineBadFlagsExitTwo asserts the unified flag-validation
// convention: every tool rejects an invalid or missing flag value with
// usage on stderr and exit status 2, the same status the flag package
// uses for unknown flags.
func TestCommandLineBadFlagsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	cases := []struct {
		tool string
		args []string
	}{
		{"fsmgen", []string{"-trace", "0101", "-order", "99"}},
		{"fsmgen", []string{"-trace", "0101", "-order", "0"}},
		{"fsmgen", []string{"-trace", "0101", "-threshold", "1.5"}},
		{"fsmgen", []string{}}, // no trace source at all
		{"fsmgen", []string{"-branch-trace", "x.btrc", "-pc", "zzz"}},
		{"fsmgen", []string{"-trace", "0101", "stray-arg"}},
		{"tracegen", []string{}}, // missing -bench
		{"tracegen", []string{"-bench", "ijpeg", "-variant", "bogus"}},
		{"tracegen", []string{"-bench", "nosuchbench"}},
		{"tracegen", []string{"-bench", "ijpeg", "-n", "-5"}},
		{"tracegen", []string{"-bench", "gcc", "-loads", "-simpoint"}},
		{"paperrun", []string{}}, // missing -grid and -out
		{"paperrun", []string{"-grid", "g.json", "-out", "out", "-require-disk-hits"}},
		{"fsmserved", []string{"-workers", "-3"}},
		{"fsmserved", []string{"-timeout", "-1s"}},
		// The flag package's own unknown-flag path must agree.
		{"fsmgen", []string{"-no-such-flag"}},
	}
	built := map[string]string{}
	for _, c := range cases {
		bin, ok := built[c.tool]
		if !ok {
			bin = buildTool(t, dir, c.tool)
			built[c.tool] = bin
		}
		t.Run(c.tool+"_"+strings.Join(c.args, "_"), func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, c.args...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("%s %v: err = %v, want exit error", c.tool, c.args, err)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Errorf("%s %v: exit code = %d, want 2\nstderr:\n%s", c.tool, c.args, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-") {
				t.Errorf("%s %v: stderr lacks usage text:\n%s", c.tool, c.args, stderr.String())
			}
		})
	}
}

// TestFSMServedEndToEnd boots the design daemon on a random port,
// designs the paper's Figure 1 trace over HTTP, verifies the metrics
// endpoint reflects the request, and shuts the daemon down with SIGTERM.
func TestFSMServedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cmd, base, drained := startFSMServed(t)

	// Design the Figure 1 trace (N=2): the paper's 3-state machine.
	body, err := json.Marshal(map[string]any{
		"trace":   "000010001011110111101111",
		"options": map[string]any{"order": 2, "name": "fig1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/design", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/design: %v", err)
	}
	var design struct {
		States   int             `json:"states"`
		Machine  json.RawMessage `json:"machine"`
		VHDL     string          `json:"vhdl"`
		AreaGE   float64         `json:"area_ge"`
		CacheHit bool            `json:"cache_hit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&design); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || design.States != 3 {
		t.Fatalf("design: status %d, states %d, want 200 and the paper's 3 states", resp.StatusCode, design.States)
	}
	if !strings.Contains(design.VHDL, "entity fig1 is") || design.AreaGE <= 0 {
		t.Errorf("design payload incomplete: area=%v vhdl=%q...", design.AreaGE, design.VHDL[:min(60, len(design.VHDL))])
	}

	// Simulate the designed machine on its own trace.
	simBody := fmt.Sprintf(`{"machine":%s,"trace":"000010001011110111101111","skip":2}`, design.Machine)
	resp, err = http.Post(base+"/v1/simulate", "application/json", strings.NewReader(simBody))
	if err != nil {
		t.Fatal(err)
	}
	var sim struct {
		Total   int `json:"total"`
		Correct int `json:"correct"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sim.Total != 22 || sim.Correct == 0 {
		t.Errorf("simulate = %+v", sim)
	}

	// Health and metrics must reflect the served design.
	resp, err = http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v status %v", err, resp)
	}
	resp.Body.Close()
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	msc := bufio.NewScanner(resp.Body)
	for msc.Scan() {
		metrics.WriteString(msc.Text())
		metrics.WriteByte('\n')
	}
	resp.Body.Close()
	for _, want := range []string{
		"fsmpredict_design_requests_total 1",
		"fsmpredict_designs_completed_total 1",
		"fsmpredict_simulate_requests_total 1",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics.String())
		}
	}

	// SIGTERM: the daemon must drain and exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitCleanExit(t, cmd, drained)
}

// startFSMServed builds fsmserved, boots it on a random port and
// returns the process, its base URL, and a channel that yields the
// rest of its log once it exits.
func startFSMServed(t *testing.T) (*exec.Cmd, string, <-chan string) {
	t.Helper()
	bin := buildTool(t, t.TempDir(), "fsmserved")
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The daemon logs "listening on 127.0.0.1:PORT" once the socket is
	// bound; everything after that line is kept flowing to avoid
	// blocking the child on a full pipe.
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "listening on "); i >= 0 {
			base = "http://" + strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never reported its address: %v", sc.Err())
	}
	drained := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteByte('\n')
		}
		drained <- rest.String()
	}()
	return cmd, base, drained
}

// waitCleanExit requires a signalled daemon to exit 0 with its
// clean-shutdown log line. It reads the log to EOF before Wait, since
// Wait closes the pipe and would race the scanner.
func waitCleanExit(t *testing.T, cmd *exec.Cmd, drained <-chan string) {
	t.Helper()
	var rest string
	select {
	case rest = <-drained:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within 15s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited with %v after SIGTERM\nstderr:\n%s", err, rest)
	}
	if !strings.Contains(rest, "shut down cleanly") {
		t.Errorf("daemon log missing clean-shutdown line:\n%s", rest)
	}
}

// TestFSMServedDrainsInFlightOnSIGTERM terminates the daemon while a
// search request is running: the request must still complete with 200
// and the daemon must exit 0. Shutdown drains in-flight requests; it
// does not drop them.
func TestFSMServedDrainsInFlightOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	cmd, base, drained := startFSMServed(t)

	// A search over a 1M-event stored trace takes on the order of a
	// second, long enough for the signal to land mid-request.
	body := `{"workload":{"program":"gsm","variant":"train","events":1000000},` +
		`"options":{"states":8,"population":64,"generations":200,"seed":1}}`
	type searchResult struct {
		status int
		states int
		err    error
	}
	resc := make(chan searchResult, 1)
	go func() {
		resp, err := http.Post(base+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			resc <- searchResult{err: err}
			return
		}
		defer resp.Body.Close()
		var out struct {
			States int `json:"states"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resc <- searchResult{status: resp.StatusCode, states: out.States, err: err}
	}()

	// The search counter moves once the request is validated and the
	// search has begun.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(metrics), "fsmpredict_search_requests_total 1\n") {
			break
		}
		select {
		case res := <-resc:
			t.Fatalf("search finished before SIGTERM could land (status %d, err %v); lengthen it", res.status, res.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	var res searchResult
	select {
	case res = <-resc:
	case <-time.After(30 * time.Second):
		t.Fatal("search response did not complete after SIGTERM")
	}
	if res.err != nil || res.status != http.StatusOK || res.states != 8 {
		t.Fatalf("in-flight search: status %d, states %d, err %v; want 200 and an 8-state champion",
			res.status, res.states, res.err)
	}
	waitCleanExit(t, cmd, drained)
}
