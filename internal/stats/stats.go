// Package stats provides the descriptive statistics used by the
// experiments: summaries (min/mean/max/percentiles), empirical CDFs for
// the paper's CDF plots and their CSV export, and the
// polynomial-regression workload predictor referenced as [22] in the
// paper.
package stats

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Std    float64 // population standard deviation
	Median float64
	P25    float64
	P75    float64
	P05    float64
	P95    float64
}

// Summarize computes a Summary of xs. It returns a zero Summary when xs
// is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Median: quantileSorted(sorted, 0.5),
		P25:    quantileSorted(sorted, 0.25),
		P75:    quantileSorted(sorted, 0.75),
		P05:    quantileSorted(sorted, 0.05),
		P95:    quantileSorted(sorted, 0.95),
	}
}

// Quantile returns the p-quantile of xs (linear interpolation between
// order statistics, type-7 as in R). It panics if xs is empty or p is
// outside [0, 1].
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if p < 0 || p > 1 {
		panic("stats: Quantile p outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (0 for an empty sample).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input slice is copied.
func NewECDF(xs []float64) *ECDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}
}

// At returns the fraction of samples <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the p-quantile of the sample.
func (e *ECDF) Quantile(p float64) float64 {
	if len(e.sorted) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	return quantileSorted(e.sorted, p)
}

// Points returns up to n evenly spaced (x, F(x)) pairs spanning the
// sample range, suitable for plotting a CDF curve like the paper's
// figures.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 || n <= 0 {
		return nil
	}
	if n == 1 {
		x := e.sorted[len(e.sorted)-1]
		return []Point{{X: x, Y: 1}}
	}
	lo, hi := e.sorted[0], e.sorted[len(e.sorted)-1]
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, Point{X: x, Y: e.At(x)})
	}
	return pts
}

// Point is an (x, y) pair on a curve.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Curve is one named series of a figure's plottable data.
type Curve struct {
	Series string  `json:"series"`
	Points []Point `json:"points"`
}

// SortCurves orders curves by series name, the order figure results
// hand them out in.
func SortCurves(cs []Curve) {
	slices.SortStableFunc(cs, func(a, b Curve) int { return strings.Compare(a.Series, b.Series) })
}

// WriteCurvesCSV writes curves in long format (series,x,y), series
// sorted by name, points in order — ready for any plotting tool.
func WriteCurvesCSV(w io.Writer, curves []Curve) error {
	curves = slices.Clone(curves)
	SortCurves(curves)
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "x", "y"}); err != nil {
		return fmt.Errorf("stats: csv header: %w", err)
	}
	for _, c := range curves {
		for _, p := range c.Points {
			rec := []string{
				c.Series,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("stats: csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ErrSingular is returned by regression when the normal equations are
// singular (e.g. duplicate X values for a high-degree polynomial).
var ErrSingular = errors.New("stats: singular system in regression")

// Polynomial is a polynomial with Coeffs[i] multiplying x^i.
type Polynomial struct {
	Coeffs []float64
}

// Eval evaluates the polynomial at x by Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	var y float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		y = y*x + p.Coeffs[i]
	}
	return y
}

// FitPolynomial fits a least-squares polynomial of the given degree to
// (xs, ys), solving the normal equations by Gaussian elimination with
// partial pivoting. It implements the polynomial-regression workload
// predictor the paper cites as [22].
func FitPolynomial(xs, ys []float64, degree int) (Polynomial, error) {
	if degree < 0 {
		return Polynomial{}, errors.New("stats: negative polynomial degree")
	}
	if len(xs) != len(ys) || len(xs) < degree+1 {
		return Polynomial{}, errors.New("stats: FitPolynomial needs >= degree+1 paired points")
	}
	m := degree + 1
	// Normal equations A c = b with A[i][j] = sum x^(i+j), b[i] = sum y x^i.
	pow := make([]float64, 2*m-1)
	b := make([]float64, m)
	for k := range xs {
		xp := 1.0
		for i := 0; i < 2*m-1; i++ {
			pow[i] += xp
			if i < m {
				b[i] += ys[k] * xp
			}
			xp *= xs[k]
		}
	}
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			a[i][j] = pow[i+j]
		}
	}
	coeffs, err := solveGauss(a, b)
	if err != nil {
		return Polynomial{}, err
	}
	return Polynomial{Coeffs: coeffs}, nil
}

// solveGauss solves a*x = b destructively with partial pivoting.
func solveGauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		pivot := col
		for row := col + 1; row < n; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for row := col + 1; row < n; row++ {
			f := a[row][col] / a[col][col]
			for k := col; k < n; k++ {
				a[row][k] -= f * a[col][k]
			}
			b[row] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		sum := b[row]
		for k := row + 1; k < n; k++ {
			sum -= a[row][k] * x[k]
		}
		x[row] = sum / a[row][row]
	}
	return x, nil
}

// MinMaxMean returns min, mean, and max of xs in one pass; it is the
// aggregation used in the paper's Figure 10 bars. It panics on an empty
// sample.
func MinMaxMean(xs []float64) (minV, meanV, maxV float64) {
	if len(xs) == 0 {
		panic("stats: MinMaxMean of empty sample")
	}
	minV, maxV = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
		sum += x
	}
	return minV, sum / float64(len(xs)), maxV
}
