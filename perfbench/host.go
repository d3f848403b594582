package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// provenance records what produced a result: the host, the toolchain,
// the code and the workload seed. The commit comes from git when the
// tree is a git checkout; the source digest identifies the code either
// way.
func provenance(workload string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"traced":        traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     cpuModel(),
		"commit":        commit(repoRoot()),
		"source_sha256": sourceDigest(repoRoot()),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// repoRoot locates the repository from the working directory: the
// benchmark runs from the repository root, its tests from perfbench/.
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

// commit returns the checked-out commit, or "none" when root holds no
// git repository (git is not asked to search parent directories).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under root,
// skipping hidden directories such as build output, so two results name
// the same code even without git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(filepath.ToSlash(f) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeSample is a snapshot of the Go runtime's allocation and CPU
// accounting; the difference of two spans a measuring phase.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// setRuntimeLayer reports the runtime layer over a measuring phase:
// heap bytes allocated per operation and the share of CPU time the
// garbage collector took.
func (r *run) setRuntimeLayer(before, after runtimeSample, ops int) {
	r.set("runtime.alloc_mb", "MB", (after.allocBytes-before.allocBytes)/float64(max(ops, 1))/1e6)
	ratio := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		ratio = (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("runtime.gc_cpu_ratio", "ratio", ratio)
}

// The speed of a shared host drifts by a quarter and more over minutes,
// and every timing of a run drifts with it. A run therefore times a fixed
// calibration kernel between its requests and reports its end-to-end
// times at the reference speed: scaled by calibrationRefMS over the
// kernel's median time in the run. The kernel calls no repository code,
// so only the host moves it.
const (
	// calibrationRefMS is the kernel's time on the reference host, a
	// 2-vCPU Xeon VM.
	calibrationRefMS = 25.0
	calibrationIters = 14_000_000
)

var calibrationSink atomic.Int64

// calibrate runs the kernel, an LCG with a data-dependent branch, on
// every P at once and returns its wall time in ms.
func calibrate() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			var n int64
			for i := 0; i < calibrationIters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				if x>>61 == 3 {
					n++
				}
			}
			calibrationSink.Add(n)
		}(uint64(g + 1))
	}
	wg.Wait()
	return float64(time.Since(t0)) / 1e6
}

// calibrate times the kernel once and keeps the sample.
func (r *run) calibrate() { r.calibration = append(r.calibration, calibrate()) }

// speedScale converts this run's times to the reference host's speed.
func (r *run) speedScale() float64 {
	if len(r.calibration) == 0 {
		r.calibrate()
	}
	return calibrationRefMS / median(r.calibration)
}

// setEndToEnd reports the end-to-end metrics, the same on every workload:
// the set-up time, the median and mean latency of the workload's requests
// (in ms), and the peak resident set. The times are reported at the
// reference host's speed. Failed operations are not a metric: they are
// the result line's failed count. The raw times go to standard error.
func (r *run) setEndToEnd(setupS float64, latencyMS []float64) {
	k := r.speedScale()
	fmt.Fprintf(os.Stderr, "perfbench: %s raw setup %.4f s, p50 %.4f ms, mean %.4f ms; calibration %.3f ms over %d samples\n",
		r.workload, setupS, median(latencyMS), mean(latencyMS), median(r.calibration), len(r.calibration))
	r.set("setup_s", "s", setupS*k)
	r.set("p50_ms", "ms", median(latencyMS)*k)
	r.set("mean_ms", "ms", mean(latencyMS)*k)
	r.set("peak_rss_mb", "MB", peakRSSMB())
}

// setHostLayer reports the host's speed over the run: the calibration
// kernel's median time.
func (r *run) setHostLayer() {
	r.speedScale()
	r.set("host.calibration_ms", "ms", median(r.calibration))
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
