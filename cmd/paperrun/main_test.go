package main

import (
	"os"
	"path/filepath"
	"testing"

	"fsmpredict/internal/fidelity"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/tracestore"
)

// TestSmokeGridMatchesGolden runs the checked-in smoke grid and diffs
// every table against the golden directory, byte for byte. This is the
// determinism contract: any change to the experiment pipelines that
// shifts a published number must update the goldens explicitly.
func TestSmokeGridMatchesGolden(t *testing.T) {
	res, err := run(options{
		grid:   filepath.Join("testdata", "grid.smoke.json"),
		out:    t.TempDir(),
		golden: filepath.Join("testdata", "golden.smoke"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Files) == 0 {
		t.Fatal("run produced no tables")
	}
}

// TestAdaptiveGridMatchesGolden is the figure byte-identity guarantee
// for the adaptive-fidelity engine: the adaptive grid is the smoke grid
// with the sweep memo turned on, and it must diff clean against the
// SAME golden directory — first cold, then again in the same process
// with the memo warm, proving memo hits change nothing either.
func TestAdaptiveGridMatchesGolden(t *testing.T) {
	fidelity.ResetMemo()
	for _, pass := range []string{"cold", "memo-warm"} {
		res, err := run(options{
			grid:   filepath.Join("testdata", "grid.adaptive.json"),
			out:    t.TempDir(),
			golden: filepath.Join("testdata", "golden.smoke"),
		})
		if err != nil {
			t.Fatalf("%s adaptive run: %v", pass, err)
		}
		if len(res.Files) == 0 {
			t.Fatalf("%s adaptive run produced no tables", pass)
		}
	}
	if fidelity.Snapshot().Hits == 0 {
		t.Fatal("memo-warm adaptive run served no fitness-memo hits")
	}
}

// TestWarmStartProducesIdenticalTables is the in-process warm-start
// smoke: a cold run fills a shared cache directory, the in-memory tiers
// are dropped (fresh-process stand-in), and the warm run must serve from
// disk while still matching the goldens exactly.
func TestWarmStartProducesIdenticalTables(t *testing.T) {
	cacheDir := t.TempDir()
	o := options{
		grid:     filepath.Join("testdata", "grid.smoke.json"),
		out:      t.TempDir(),
		golden:   filepath.Join("testdata", "golden.smoke"),
		cacheDir: cacheDir,
	}
	cold, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Disk == nil || cold.Disk.Entries == 0 {
		t.Fatal("cold run published nothing to the disk tier")
	}

	// Simulate a fresh process: drop the process-wide in-memory caches
	// so the warm run can only be fast via the disk tier.
	tracestore.Shared.Clear()
	fsm.ResetBlockCache()

	o.out = t.TempDir()
	o.requireDiskHits = true
	warm, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Disk.Hits <= cold.Disk.Hits {
		t.Fatalf("warm run disk hits = %d, want more than cold run's %d", warm.Disk.Hits, cold.Disk.Hits)
	}
	if warm.Disk.Corrupt != 0 {
		t.Fatalf("warm run reported %d corrupt artifacts", warm.Disk.Corrupt)
	}
}

// TestGoldenDiffCatchesDrift corrupts one output and checks the golden
// comparison actually fails.
func TestGoldenDiffCatchesDrift(t *testing.T) {
	out := t.TempDir()
	if _, err := run(options{
		grid: filepath.Join("testdata", "grid.smoke.json"),
		out:  out,
	}); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(out, "figure4.csv")
	if err := os.WriteFile(p, []byte("series,x,y\ndrifted,1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := diffGolden(filepath.Join("testdata", "golden.smoke"), out); err == nil {
		t.Fatal("golden diff accepted a drifted table")
	}
}

// TestGridValidation rejects malformed grids: no or unknown figures,
// unknown fields or programs, a sample fraction outside [0,1] and
// negative scale values. Zero keeps a default, so it is never rejected.
func TestGridValidation(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"nofigures":                   `{"name":"x","figures":[]}`,
		"unknown":                     `{"figures":["figure9"]}`,
		"badfield":                    `{"figures":["figure6"],"nope":1}`,
		"figure2_programs_nosuch":     `{"figures":["figure2"],"figure2_programs":["nosuch"]}`,
		"figure5_programs_nosuch":     `{"figures":["figure5"],"figure5_programs":["nosuch"]}`,
		"figure4_sample_frac_2.0":     `{"figures":["figure4"],"figure4_sample_frac":2.0}`,
		"sample_1.5_branch_events_-1": `{"figures":["figure4"],"figure4_sample_frac":1.5,"scale":{"branch_events":-1}}`,
		"figure4_sample_frac_-0.5":    `{"figures":["figure4"],"figure4_sample_frac":-0.5}`,
		"branch_events_-1":            `{"figures":["figure5"],"scale":{"branch_events":-1}}`,
		"figure4_branch_events_-1":    `{"figures":["figure4"],"scale":{"branch_events":-1}}`,
		"load_events_-1":              `{"figures":["figure2"],"scale":{"load_events":-1}}`,
		"max_custom_-1":               `{"figures":["figure5"],"scale":{"max_custom":-1}}`,
		"order_-1":                    `{"figures":["figure4"],"scale":{"order":-1}}`,
		"histories_-2":                `{"figures":["figure2"],"scale":{"histories":[2,-2]}}`,
		"table_log2_-1":               `{"figures":["figure5"],"scale":{"table_log2":-1}}`,
		"workers_-1":                  `{"figures":["figure6"],"scale":{"workers":-1}}`,
	} {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".json")
			if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := run(options{grid: p, out: t.TempDir()}); err == nil {
				t.Errorf("grid %s accepted, want error", body)
			}
		})
	}
}
