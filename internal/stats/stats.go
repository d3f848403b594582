// Package stats provides the small numerical and reporting helpers the
// experiment harness uses: least-squares line fitting (the Figure 4 area
// model), Pareto frontier extraction (the Figure 2 tradeoff curves), and
// plain-text table/series rendering for experiment output.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is a 2-D sample.
type Point struct {
	X, Y float64
}

// Series is a named list of points, e.g. one predictor's area/miss curve.
type Series struct {
	Name   string
	Points []Point
}

// Sort orders the series by X ascending (stable for equal X).
func (s *Series) Sort() {
	sort.SliceStable(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
}

// Fit is a least-squares line y = Intercept + Slope*x.
type Fit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// At evaluates the fitted line.
func (f Fit) At(x float64) float64 { return f.Intercept + f.Slope*x }

// LinearFit computes the least-squares line through the points. It
// returns an error with fewer than two distinct X values.
func LinearFit(pts []Point) (Fit, error) {
	if len(pts) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, have %d", len(pts))
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for _, p := range pts {
		dx, dy := p.X-mx, p.Y-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: all points share one x value")
	}
	f := Fit{Slope: sxy / sxx}
	f.Intercept = my - f.Slope*mx
	if syy > 0 {
		var ssRes float64
		for _, p := range pts {
			r := p.Y - f.At(p.X)
			ssRes += r * r
		}
		f.R2 = 1 - ssRes/syy
	} else {
		f.R2 = 1
	}
	return f, nil
}

// TheilSen computes the robust Theil–Sen line: the median of all
// pairwise slopes, with the median residual as intercept. It tolerates a
// large minority of outliers (the "highly regular machines" of Figure 4)
// that would drag an ordinary least-squares fit. R2 is reported against
// the full point set.
func TheilSen(pts []Point) (Fit, error) {
	if len(pts) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, have %d", len(pts))
	}
	var slopes []float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dx := pts[j].X - pts[i].X
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (pts[j].Y-pts[i].Y)/dx)
		}
	}
	if len(slopes) == 0 {
		return Fit{}, fmt.Errorf("stats: all points share one x value")
	}
	f := Fit{Slope: median(slopes)}
	residuals := make([]float64, len(pts))
	for i, p := range pts {
		residuals[i] = p.Y - f.Slope*p.X
	}
	f.Intercept = median(residuals)

	var my float64
	for _, p := range pts {
		my += p.Y
	}
	my /= float64(len(pts))
	var ssRes, ssTot float64
	for _, p := range pts {
		r := p.Y - f.At(p.X)
		ssRes += r * r
		d := p.Y - my
		ssTot += d * d
	}
	if ssTot > 0 {
		f.R2 = 1 - ssRes/ssTot
	} else {
		f.R2 = 1
	}
	return f, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ParetoMax extracts the Pareto-optimal subset of points where larger X
// and larger Y are both better (the accuracy/coverage frontier). The
// result is sorted by X ascending.
func ParetoMax(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].X != sorted[j].X {
			return sorted[i].X > sorted[j].X
		}
		return sorted[i].Y > sorted[j].Y
	})
	var out []Point
	best := math.Inf(-1)
	for _, p := range sorted {
		if p.Y > best {
			out = append(out, p)
			best = p.Y
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].X < out[j].X })
	return out
}

// Table is a simple aligned text table.
type Table struct {
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var sb strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", width[i]-len(cell)))
		}
		sb.WriteString("\n")
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, w := range width {
			total += w
		}
		sb.WriteString(strings.Repeat("-", total+2*(cols-1)))
		sb.WriteString("\n")
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}

// CSV renders series as comma-separated values with a name column,
// suitable for external plotting.
func CSV(series []Series) string {
	var sb strings.Builder
	sb.WriteString("series,x,y\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%s,%g,%g\n", s.Name, p.X, p.Y)
		}
	}
	return sb.String()
}
