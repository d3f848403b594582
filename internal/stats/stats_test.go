package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLinearFitExact(t *testing.T) {
	pts := []Point{{0, 2}, {1, 5}, {2, 8}, {3, 11}}
	f, err := LinearFit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-3) > 1e-12 || math.Abs(f.Intercept-2) > 1e-12 {
		t.Errorf("fit = %+v, want slope 3 intercept 2", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", f.R2)
	}
	if f.At(10) != 32 {
		t.Errorf("At(10) = %v, want 32", f.At(10))
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []Point
	for i := 0; i < 200; i++ {
		x := float64(i)
		pts = append(pts, Point{x, 4 + 2.5*x + rng.NormFloat64()*3})
	}
	f, err := LinearFit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2.5) > 0.05 {
		t.Errorf("slope = %v, want ~2.5", f.Slope)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want > 0.99", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]Point{{1, 1}}); err == nil {
		t.Error("expected error for a single point")
	}
	if _, err := LinearFit([]Point{{1, 1}, {1, 2}}); err == nil {
		t.Error("expected error for degenerate x")
	}
}

func TestLinearFitResidualOrthogonalityQuick(t *testing.T) {
	// Least squares: residuals sum to ~0 and are orthogonal to x.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 3
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * 100, rng.Float64() * 100}
		}
		fit, err := LinearFit(pts)
		if err != nil {
			return true // degenerate draw
		}
		var sum, dot float64
		for _, p := range pts {
			r := p.Y - fit.At(p.X)
			sum += r
			dot += r * p.X
		}
		return math.Abs(sum) < 1e-6*float64(n)*100 && math.Abs(dot) < 1e-4*float64(n)*10000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParetoMax(t *testing.T) {
	pts := []Point{
		{0.9, 0.2}, {0.8, 0.5}, {0.7, 0.4}, {0.6, 0.9}, {0.95, 0.1}, {0.8, 0.45},
	}
	front := ParetoMax(pts)
	want := []Point{{0.6, 0.9}, {0.8, 0.5}, {0.9, 0.2}, {0.95, 0.1}}
	if len(front) != len(want) {
		t.Fatalf("front = %v, want %v", front, want)
	}
	for i := range want {
		if front[i] != want[i] {
			t.Fatalf("front = %v, want %v", front, want)
		}
	}
}

func TestParetoEmpty(t *testing.T) {
	if ParetoMax(nil) != nil {
		t.Error("empty input should give empty frontier")
	}
}

func TestParetoFrontierDominanceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, rng.Intn(40)+1)
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64()}
		}
		front := ParetoMax(pts)
		// No frontier point is dominated by any input point.
		for _, fp := range front {
			for _, p := range pts {
				if p.X > fp.X && p.Y > fp.Y {
					return false
				}
			}
		}
		return len(front) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSeriesSort(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{3, 1}, {1, 2}, {2, 3}}}
	s.Sort()
	if s.Points[0].X != 1 || s.Points[2].X != 3 {
		t.Errorf("Sort = %v", s.Points)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Headers: []string{"name", "value"}}
	tb.AddRow("alpha", 3.14159)
	tb.AddRow("b", 100)
	out := tb.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "alpha") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table should have 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing separator:\n%s", out)
	}
	// float formatting
	if !strings.Contains(out, "3.142") {
		t.Errorf("float not formatted:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	out := CSV([]Series{
		{Name: "a", Points: []Point{{1, 2}}},
		{Name: "b", Points: []Point{{3, 4.5}}},
	})
	want := "series,x,y\na,1,2\nb,3,4.5\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}
