package stats

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simeng"
)

func TestSummarizeKnownSample(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Summarize(xs)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("Summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("Std = %v, want sqrt(2)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("Summary of empty = %+v", s)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Min != 7 || s.Max != 7 || s.Mean != 7 || s.Median != 7 || s.Std != 0 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("Quantile(0.5) = %v, want 5", q)
	}
	if q := Quantile(xs, 0); q != 0 {
		t.Fatalf("Quantile(0) = %v, want 0", q)
	}
	if q := Quantile(xs, 1); q != 10 {
		t.Fatalf("Quantile(1) = %v, want 10", q)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := e.Points(11)
	if len(pts) != 11 {
		t.Fatalf("Points returned %d", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 9 {
		t.Fatalf("Points range [%v, %v]", pts[0].X, pts[len(pts)-1].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("ECDF points not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("final CDF = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestECDFEmptyAndPointsEdge(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 {
		t.Error("empty ECDF should be 0 everywhere")
	}
	if e.Points(5) != nil {
		t.Error("empty ECDF should yield nil points")
	}
	one := NewECDF([]float64{3})
	if pts := one.Points(1); len(pts) != 1 || pts[0].Y != 1 {
		t.Errorf("singleton Points(1) = %v", pts)
	}
}

// The line fits are FitPolynomial at degree 1.
func TestFitLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	f, err := FitPolynomial(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Coeffs[1]-2) > 1e-12 || math.Abs(f.Coeffs[0]-1) > 1e-12 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", f)
	}
	if math.Abs(f.Eval(10)-21) > 1e-12 {
		t.Fatalf("Eval(10) = %v", f.Eval(10))
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitPolynomial([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitPolynomial([]float64{2, 2, 2}, []float64{1, 2, 3}, 1); err == nil {
		t.Error("constant x accepted")
	}
}

func TestFitPolynomialRecoversCubic(t *testing.T) {
	// y = 1 - 2x + 0.5x^2 + 0.25x^3
	truth := Polynomial{Coeffs: []float64{1, -2, 0.5, 0.25}}
	var xs, ys []float64
	for x := -3.0; x <= 3; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, truth.Eval(x))
	}
	fit, err := FitPolynomial(xs, ys, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range truth.Coeffs {
		if math.Abs(fit.Coeffs[i]-c) > 1e-8 {
			t.Fatalf("coeff %d = %v, want %v", i, fit.Coeffs[i], c)
		}
	}
}

func TestFitPolynomialAsWorkloadPredictor(t *testing.T) {
	// The paper's use case: predict task execution time from an input
	// parameter. Quadratic workload plus noise must be predicted within
	// a few percent.
	r := simeng.NewRNG(77)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := 1 + 9*r.Float64()
		y := 100 + 20*x + 3*x*x + r.NormFloat64()*5
		xs = append(xs, x)
		ys = append(ys, y)
	}
	fit, err := FitPolynomial(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{2, 5, 8} {
		want := 100 + 20*x + 3*x*x
		got := fit.Eval(x)
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("predict(%v) = %v, want ~%v", x, got, want)
		}
	}
}

func TestFitPolynomialErrors(t *testing.T) {
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := FitPolynomial([]float64{1, 2}, []float64{1, 2}, 2); err == nil {
		t.Error("underdetermined system accepted")
	}
	// Duplicate x for degree 1 with 2 points is singular.
	if _, err := FitPolynomial([]float64{3, 3}, []float64{1, 2}, 1); err == nil {
		t.Error("singular system accepted")
	}
}

func TestMinMaxMean(t *testing.T) {
	minV, meanV, maxV := MinMaxMean([]float64{3, 1, 4, 1, 5})
	if minV != 1 || maxV != 5 || math.Abs(meanV-2.8) > 1e-12 {
		t.Fatalf("got %v %v %v", minV, meanV, maxV)
	}
}

// Property: for any sample, Min <= P05 <= Median <= P95 <= Max, and the
// ECDF is within [0,1] and hits 1 at the max.
func TestPropertySummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			// Bound magnitudes so that "min-1" is representably below min;
			// at 1e308 scales subtracting 1 is a no-op in float64.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if !(s.Min <= s.P05 && s.P05 <= s.Median && s.Median <= s.P95 && s.P95 <= s.Max) {
			return false
		}
		e := NewECDF(xs)
		return e.At(s.Max) == 1 && e.At(s.Min-1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in p.
func TestPropertyQuantileMonotone(t *testing.T) {
	r := simeng.NewRNG(17)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.01 {
		pp := math.Min(p, 1)
		q := Quantile(xs, pp)
		if q < prev {
			t.Fatalf("quantile not monotone at p=%v", pp)
		}
		prev = q
	}
}

func BenchmarkSummarize(b *testing.B) {
	r := simeng.NewRNG(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Summarize(xs)
	}
}

func TestWriteCurvesCSVFormat(t *testing.T) {
	cs := []Curve{
		{Series: "b", Points: []Point{{X: 1, Y: 0.5}, {X: 2, Y: 1}}},
		{Series: "a", Points: []Point{{X: 0, Y: 0}}},
	}
	var buf bytes.Buffer
	if err := WriteCurvesCSV(&buf, cs); err != nil {
		t.Fatal(err)
	}
	if cs[0].Series != "b" {
		t.Fatal("WriteCurvesCSV reordered the caller's slice")
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want header + 3", len(records))
	}
	if strings.Join(records[0], ",") != "series,x,y" {
		t.Fatalf("header = %v", records[0])
	}
	// Series sorted: a first.
	if records[1][0] != "a" || records[2][0] != "b" || records[3][0] != "b" {
		t.Fatalf("series order wrong: %v", records)
	}
	if records[2][1] != "1" || records[2][2] != "0.5" {
		t.Fatalf("point encoding wrong: %v", records[2])
	}
}
