package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/core"
	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/tracestore"
)

// TestDesignDiskTier proves the design warm-start path: a service
// fills the disk tier, a second service (fresh process stand-in, cold
// memory cache) serves the identical result from disk without running
// the pipeline, and a corrupted artifact falls back to a clean run.
func TestDesignDiskTier(t *testing.T) {
	dir := t.TempDir()
	disk, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(Config{Workers: 2, Disk: disk, Traces: tracestore.NewStore()})
	want, hit, err := warm.DesignString(context.Background(), paperTrace, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first request reported as hit")
	}
	warm.Close()
	if st := disk.Stats(); st.Entries == 0 {
		t.Fatal("design artifact not published to disk")
	}

	cold := New(Config{Workers: 2, Disk: disk, Traces: tracestore.NewStore()})
	defer cold.Close()
	ran := false
	inner := cold.designFn
	cold.designFn = func(b *bitseq.Bits, o core.Options) (*core.Design, error) {
		ran = true
		return inner(b, o)
	}
	got, hit, err := cold.DesignString(context.Background(), paperTrace, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("disk-tier serve not reported as hit")
	}
	if ran {
		t.Fatal("pipeline ran despite a warm disk tier")
	}
	if got.Key != want.Key || !bytes.Equal(got.Machine, want.Machine) ||
		got.VHDL != want.VHDL || got.AreaGE != want.AreaGE || got.States != want.States {
		t.Fatal("disk-tier result differs from the original")
	}
	if cold.met.cacheTierHits.Value() != 1 {
		t.Fatalf("tier hits = %d, want 1", cold.met.cacheTierHits.Value())
	}
	// Once installed in the memory tier, repeats hit there.
	if _, hit, _ := cold.DesignString(context.Background(), paperTrace, figure1Options()); !hit {
		t.Fatal("second request missed the memory tier")
	}
	if n := cold.met.cacheTierHits.Value(); n != 1 {
		t.Fatalf("tier hits after memory hit = %d, want still 1", n)
	}

	// DropCaches exposes the disk tier again.
	cold.DropCaches()
	if _, hit, _ := cold.DesignString(context.Background(), paperTrace, figure1Options()); !hit {
		t.Fatal("post-DropCaches request missed both tiers")
	}
	if n := cold.met.cacheTierHits.Value(); n != 2 {
		t.Fatalf("tier hits after DropCaches = %d, want 2", n)
	}

	// Corrupt the design artifact: a cold service must re-run the
	// pipeline and produce the identical result.
	ents, err := os.ReadDir(filepath.Join(dir, "design"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("design artifacts: %v %d", err, len(ents))
	}
	p := filepath.Join(dir, "design", ents[0].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x08
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	hurt := New(Config{Workers: 2, Disk: disk, Traces: tracestore.NewStore()})
	defer hurt.Close()
	redo, hit, err := hurt.DesignString(context.Background(), paperTrace, figure1Options())
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("corrupted artifact served as a hit")
	}
	if !bytes.Equal(redo.Machine, want.Machine) || redo.VHDL != want.VHDL {
		t.Fatal("recomputed result differs from the original")
	}
	if st := disk.Stats(); st.Corrupt == 0 {
		t.Fatal("corruption not counted")
	}
}

// TestDiskMetricsExposed checks the diskcache counters and the tier
// ratio gauges appear on /metrics when a disk tier is configured.
func TestDiskMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	disk, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Disk: disk, Traces: tracestore.NewStore()})
	defer s.Close()
	if _, _, err := s.DesignString(context.Background(), paperTrace, figure1Options()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		"fsmpredict_diskcache_hits_total",
		"fsmpredict_diskcache_misses_total",
		"fsmpredict_diskcache_bytes_total",
		"fsmpredict_diskcache_evictions_total",
		"fsmpredict_diskcache_corrupt_total",
		"fsmpredict_design_cache_tier_hits_total",
		"fsmpredict_design_cache_l1_hit_permille",
		"fsmpredict_design_cache_l2_hit_permille",
		"fsmpredict_tracestore_tier_hits",
		"fsmpredict_blocktable_tier_hits",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("metric %s missing from exposition:\n%s", name, out)
		}
	}
}

// TestWarmStartDesignSpeedup is the warm-start floor: one cold pass of
// stored-trace design requests over HTTP with a disk tier beneath the
// design cache, the trace store and the block-table cache; DropCaches;
// then the identical pass again. The warm pass must be at least 1.5×
// faster in wall clock, be served in part by the disk tier, and see no
// corrupt artifact and no request error.
func TestWarmStartDesignSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("times two passes of 16 designs")
	}
	disk, err := disktier.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fsm.SetDiskTier(disk)
	t.Cleanup(func() { fsm.SetDiskTier(nil) })
	traces := tracestore.NewStore()
	traces.SetDisk(disk)
	s := New(Config{Disk: disk, Traces: traces})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})

	// Two programs × eight names: every item is a distinct design over
	// one of two stored 20k-event traces.
	var items []string
	for _, prog := range []string{"gsm", "vortex"} {
		for i := 0; i < 8; i++ {
			items = append(items, fmt.Sprintf(
				`{"workload":{"program":%q,"variant":"train","events":20000},"options":{"order":2,"name":"warm_%s_%d"}}`,
				prog, prog, i))
		}
	}
	// pass issues every item once from four concurrent clients and
	// returns the wall clock and the number of failed requests.
	pass := func() (time.Duration, int) {
		var next, failed atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(len(items)); i = next.Add(1) - 1 {
					resp, err := http.Post(srv.URL+"/v1/design", "application/json", strings.NewReader(items[i]))
					if err != nil {
						failed.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		return time.Since(start), int(failed.Load())
	}

	before := disk.Stats()
	cold, coldFailed := pass()
	s.DropCaches()
	mid := disk.Stats()
	warm, warmFailed := pass()
	after := disk.Stats()

	speedup := cold.Seconds() / warm.Seconds()
	t.Logf("cold %v, warm %v, speedup %.2fx, warm-pass disk hits %d",
		cold, warm, speedup, after.Hits-mid.Hits)
	if coldFailed > 0 || warmFailed > 0 {
		t.Fatalf("request errors: %d cold, %d warm", coldFailed, warmFailed)
	}
	if after.Hits == mid.Hits {
		t.Fatal("warm pass recorded no disk hits; the tier did not serve")
	}
	if after.Corrupt != before.Corrupt {
		t.Fatalf("%d corrupt artifacts", after.Corrupt-before.Corrupt)
	}
	if speedup < 1.5 {
		t.Fatalf("warm speedup %.2fx below floor 1.50x", speedup)
	}
}
