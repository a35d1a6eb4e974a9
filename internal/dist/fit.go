package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// FitResult is one family's maximum-likelihood fit to a sample: the
// fitted distribution, its Kolmogorov-Smirnov distance to the empirical
// CDF (the paper's model-selection criterion for Figure 5), and the
// attained log-likelihood. When the family cannot be fitted — too few
// samples, values outside its support — Err is set, Dist is nil, and KS
// is +Inf so failed fits sort last.
type FitResult struct {
	Dist          Distribution
	KS            float64
	LogLikelihood float64
	Err           error
}

// minFitSamples is the smallest sample any family accepts: with one
// point every scale estimate degenerates.
const minFitSamples = 2

// FitAll fits the paper's five candidate families to the sample by
// maximum likelihood and scores each by KS distance. The returned map
// is keyed by family name; entries with Err set record why a family was
// skipped rather than being omitted, so callers can render "fit failed"
// rows exactly as the paper's Figure 5 discussion does.
func FitAll(xs []float64) map[string]FitResult {
	fitters := []struct {
		name string
		fit  func([]float64) (Distribution, error)
	}{
		{"Exponential", fitExponential},
		{"Pareto", fitPareto},
		{"Normal", fitNormal},
		{"Laplace", fitLaplace},
		{"Geometric", fitGeometric},
	}
	out := make(map[string]FitResult, len(fitters))
	for _, f := range fitters {
		d, err := f.fit(xs)
		if err != nil {
			out[f.name] = FitResult{KS: math.Inf(1), Err: err}
			continue
		}
		out[f.name] = FitResult{
			Dist:          d,
			KS:            KSDistance(d, xs),
			LogLikelihood: logLikelihood(d, xs),
		}
	}
	return out
}

// BestFit returns the name of the family with the smallest KS distance
// among successful fits (ties broken alphabetically for determinism),
// or "" when every fit failed.
func BestFit(results map[string]FitResult) string {
	best := ""
	bestKS := math.Inf(1)
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := results[name]
		if r.Err != nil {
			continue
		}
		if r.KS < bestKS {
			best, bestKS = name, r.KS
		}
	}
	return best
}

// KSDistance returns the Kolmogorov-Smirnov statistic between the
// fitted distribution and the empirical CDF of the sample:
// sup_x |F_n(x) - F(x)|.
func KSDistance(d Distribution, xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var ks float64
	for i, x := range sorted {
		f := d.CDF(x)
		if lo := f - float64(i)/float64(n); lo > ks {
			ks = lo
		}
		if hi := float64(i+1)/float64(n) - f; hi > ks {
			ks = hi
		}
	}
	return ks
}

func logLikelihood(d Distribution, xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += d.LogPDF(x)
	}
	return sum
}

func checkSample(xs []float64, needPositive bool) error {
	if len(xs) < minFitSamples {
		return fmt.Errorf("dist: need at least %d samples, have %d", minFitSamples, len(xs))
	}
	if needPositive {
		for _, x := range xs {
			if !(x > 0) {
				return fmt.Errorf("dist: non-positive sample %v outside support", x)
			}
		}
	}
	return nil
}

// fitExponential: MLE lambda = 1/mean.
func fitExponential(xs []float64) (Distribution, error) {
	if err := checkSample(xs, true); err != nil {
		return nil, err
	}
	mean := stats.Mean(xs)
	if !(mean > 0) || math.IsInf(mean, 0) {
		return nil, fmt.Errorf("dist: degenerate mean %v", mean)
	}
	return NewExponential(1 / mean), nil
}

// fitPareto: MLE xm = min(x), alpha = n / sum log(x/xm).
func fitPareto(xs []float64) (Distribution, error) {
	if err := checkSample(xs, true); err != nil {
		return nil, err
	}
	xm := math.Inf(1)
	for _, x := range xs {
		if x < xm {
			xm = x
		}
	}
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(x / xm)
	}
	if !(logSum > 0) {
		return nil, fmt.Errorf("dist: all samples equal %v, Pareto tail undefined", xm)
	}
	return NewPareto(xm, float64(len(xs))/logSum), nil
}

// fitNormal: MLE mu = mean, sigma^2 = biased sample variance.
func fitNormal(xs []float64) (Distribution, error) {
	if err := checkSample(xs, false); err != nil {
		return nil, err
	}
	mu := stats.Mean(xs)
	var ss float64
	for _, x := range xs {
		ss += (x - mu) * (x - mu)
	}
	sigma := math.Sqrt(ss / float64(len(xs)))
	if !(sigma > 0) {
		return nil, fmt.Errorf("dist: zero variance sample")
	}
	return NewNormal(mu, sigma), nil
}

// fitLaplace: MLE mu = median, b = mean absolute deviation from it.
func fitLaplace(xs []float64) (Distribution, error) {
	if err := checkSample(xs, false); err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	mu := sorted[n/2]
	if n%2 == 0 {
		mu = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	var abs float64
	for _, x := range xs {
		abs += math.Abs(x - mu)
	}
	b := abs / float64(n)
	if !(b > 0) {
		return nil, fmt.Errorf("dist: zero dispersion sample")
	}
	return NewLaplace(mu, b), nil
}

// fitGeometric: samples are rounded to positive integers k_i; the MLE
// is p = n / sum(k_i).
func fitGeometric(xs []float64) (Distribution, error) {
	if err := checkSample(xs, true); err != nil {
		return nil, err
	}
	var total float64
	for _, x := range xs {
		total += math.Max(1, math.Round(x))
	}
	p := float64(len(xs)) / total
	if !(p > 0) || p > 1 {
		return nil, fmt.Errorf("dist: geometric MLE p = %v outside (0,1]", p)
	}
	return NewGeometric(p), nil
}
