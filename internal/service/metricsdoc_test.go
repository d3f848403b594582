package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fsmpredict/internal/disktier"
	"fsmpredict/internal/fsm"
	"fsmpredict/internal/tracestore"
)

// TestMetricsDocumented keeps README.md's metrics table and the /metrics
// exposition in step. It scrapes a service with a disk tier after one
// design (full pipeline, so every design stage histogram registers),
// one simulate and one search, and fails when an exposed family has no
// table row or when a row names a family that is not exposed.
func TestMetricsDocumented(t *testing.T) {
	rows := readmeMetricRows(t, "../../README.md")

	disk, err := disktier.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Disk: disk, Traces: tracestore.NewStore()})
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})

	design := decodeBody[DesignResponse](t, postJSON(t, srv.URL+"/v1/design", DesignRequest{
		Trace: paperTrace, Options: OptionsJSON{Order: 2, Artifacts: true},
	}))
	var m fsm.Machine
	if err := json.Unmarshal(design.Machine, &m); err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct {
		path string
		body any
	}{
		{"/v1/simulate", SimulateRequest{Machine: &m, Trace: paperTrace, Skip: 2}},
		{"/v1/search", SearchRequest{
			Trace:   strings.Repeat("1101", 256),
			Options: SearchOptionsJSON{States: 4, Population: 8, Generations: 2, Seed: 1},
		}},
	} {
		resp := postJSON(t, srv.URL+req.path, req.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", req.path, resp.StatusCode)
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposed := metricFamilies(string(raw))
	if len(exposed) == 0 {
		t.Fatal("no metric families exposed")
	}

	covered := make(map[string]bool)
	for _, fam := range exposed {
		var matched []string
		for _, r := range rows {
			if r.re.MatchString(fam) {
				matched = append(matched, r.name)
				covered[r.name] = true
			}
		}
		switch len(matched) {
		case 0:
			t.Errorf("exposed metric %s has no row in README.md's metrics table", fam)
		case 1:
		default:
			t.Errorf("exposed metric %s matches several README rows: %v", fam, matched)
		}
	}
	for _, r := range rows {
		if !covered[r.name] {
			t.Errorf("README.md documents %s, which /metrics does not expose", r.name)
		}
	}
}

// metricRow is one documented family: its name as written, and the
// pattern it stands for (a <placeholder> matches one or more name
// characters).
type metricRow struct {
	name string
	re   *regexp.Regexp
}

// readmeMetricRows reads every table row whose first cell is a
// backquoted fsmpredict_* name.
func readmeMetricRows(t *testing.T, path string) []metricRow {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rowRE := regexp.MustCompile("^\\| `(fsmpredict_[^`]+)` \\|")
	placeholder := regexp.MustCompile(`<[a-z_]+>`)
	var rows []metricRow
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := rowRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		if seen[name] {
			t.Errorf("README.md documents %s twice", name)
		}
		seen[name] = true
		parts := placeholder.Split(name, -1)
		for i, p := range parts {
			parts[i] = regexp.QuoteMeta(p)
		}
		rows = append(rows, metricRow{name: name, re: regexp.MustCompile("^" + strings.Join(parts, "[a-z0-9_]+") + "$")})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("no fsmpredict_* rows found in %s", path)
	}
	return rows
}

// metricFamilies returns the sorted family names in a text exposition:
// a histogram's _bucket, _sum and _count series fold into one family.
func metricFamilies(exposition string) []string {
	var names []string
	hist := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(exposition), "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(name, "{")
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && labels != "" {
			hist[base] = true
		}
		names = append(names, name)
	}
	fams := make(map[string]bool)
	for _, name := range names {
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && hist[base] {
				fam = base
			}
		}
		fams[fam] = true
	}
	out := make([]string, 0, len(fams))
	for f := range fams {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
