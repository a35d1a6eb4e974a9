package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestFigureResultsImplementPlotter(t *testing.T) {
	// Compile-time checks.
	var _ Plotter = (*Fig4Result)(nil)
	var _ Plotter = (*Fig8Result)(nil)
	var _ Plotter = (*Fig9Result)(nil)
	var _ Plotter = (*Fig11Result)(nil)
	var _ Plotter = (*Fig13Result)(nil)
	var _ Plotter = (*Fig14Result)(nil)
}

func TestFig9CurvesNonEmpty(t *testing.T) {
	res, err := Fig9(small)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Curves()
	if !slices.IsSortedFunc(cs, func(a, b stats.Curve) int { return strings.Compare(a.Series, b.Series) }) {
		t.Fatalf("curves not sorted by series: %v", cs)
	}
	for _, name := range []string{"ST:Formula(3)", "ST:Young", "BoT:Formula(3)", "BoT:Young"} {
		pts := curve(cs, name)
		if len(pts) == 0 {
			t.Fatalf("missing curve %q", name)
		}
		// CDF curves must be monotone in y.
		for i := 1; i < len(pts); i++ {
			if pts[i].Y < pts[i-1].Y {
				t.Fatalf("curve %q not monotone", name)
			}
		}
	}
	var buf bytes.Buffer
	if err := stats.WriteCurvesCSV(&buf, cs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100 {
		t.Fatal("CSV suspiciously small")
	}
}

func TestFig13CurvesFromRatios(t *testing.T) {
	r := &Fig13Result{Ratios: []float64{0.8, 0.9, 1.0, 1.1}}
	if len(curve(r.Curves(), "wall-ratio-F3-over-Young")) == 0 {
		t.Fatal("no ratio curve")
	}
	empty := &Fig13Result{}
	if len(empty.Curves()) != 0 {
		t.Fatal("empty result should have no curves")
	}
}

func TestFig4CurvesNamedByPriority(t *testing.T) {
	r := &Fig4Result{Points: map[int][]stats.Point{3: {{X: 1, Y: 1}}}}
	cs := r.Curves()
	if len(cs) != 1 || cs[0].Series != "priority=3" {
		t.Fatalf("curve names: %v", cs)
	}
}

// curve returns the points of the named series, or nil.
func curve(cs []stats.Curve, series string) []stats.Point {
	for _, c := range cs {
		if c.Series == series {
			return c.Points
		}
	}
	return nil
}
