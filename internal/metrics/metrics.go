// Package metrics provides the statistical machinery for comparing
// policy runs rigorously: bootstrap confidence intervals for means, and
// paired comparisons over per-job outcomes.
// The paper reports point estimates ("3-10 percent"); the harness adds
// uncertainty so a reproduction can tell a real gap from noise.
package metrics

import (
	"errors"
	"math"
	"sort"

	"repro/internal/simeng"
	"repro/internal/stats"
)

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point    float64
	Lo, Hi   float64
	Level    float64 // e.g. 0.95
	Resample int     // bootstrap resamples used
}

// ErrInsufficientData is returned when a sample is too small to
// bootstrap.
var ErrInsufficientData = errors.New("metrics: insufficient data")

// BootstrapMean returns a percentile-bootstrap confidence interval for
// the mean of xs at the given level, using resamples drawn from the
// seeded RNG (deterministic).
func BootstrapMean(xs []float64, level float64, resamples int, seed uint64) (Interval, error) {
	if len(xs) < 2 {
		return Interval{}, ErrInsufficientData
	}
	if !(level > 0 && level < 1) {
		return Interval{}, errors.New("metrics: level must be in (0,1)")
	}
	if resamples < 10 {
		return Interval{}, errors.New("metrics: need at least 10 resamples")
	}
	rng := simeng.NewRNG(seed)
	means := make([]float64, resamples)
	for b := range means {
		var sum float64
		for i := 0; i < len(xs); i++ {
			sum += xs[rng.Intn(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	sort.Float64s(means)
	alpha := (1 - level) / 2
	return Interval{
		Point:    stats.Mean(xs),
		Lo:       quantileSorted(means, alpha),
		Hi:       quantileSorted(means, 1-alpha),
		Level:    level,
		Resample: resamples,
	}, nil
}

// PairedComparison summarizes paired per-job outcomes of two policies.
type PairedComparison struct {
	N int
	// MeanDiff is mean(a_i - b_i) with its bootstrap interval.
	MeanDiff Interval
	// FracAWins is the fraction of pairs where a_i > b_i.
	FracAWins float64
	// SignTestP is the two-sided sign-test p-value for the null
	// "a and b are exchangeable" (normal approximation).
	SignTestP float64
}

// ComparePaired bootstraps the paired differences a_i - b_i. The slices
// must be aligned per job (e.g. from engine.PairJobs).
func ComparePaired(a, b []float64, level float64, resamples int, seed uint64) (PairedComparison, error) {
	if len(a) != len(b) {
		return PairedComparison{}, errors.New("metrics: paired samples must align")
	}
	if len(a) < 2 {
		return PairedComparison{}, ErrInsufficientData
	}
	diffs := make([]float64, len(a))
	wins, losses := 0, 0
	for i := range a {
		diffs[i] = a[i] - b[i]
		switch {
		case diffs[i] > 0:
			wins++
		case diffs[i] < 0:
			losses++
		}
	}
	iv, err := BootstrapMean(diffs, level, resamples, seed)
	if err != nil {
		return PairedComparison{}, err
	}
	return PairedComparison{
		N:         len(a),
		MeanDiff:  iv,
		FracAWins: float64(wins) / float64(len(a)),
		SignTestP: signTestP(wins, losses),
	}, nil
}

// signTestP computes a two-sided sign-test p-value via the normal
// approximation to Binomial(wins+losses, 1/2); ties are dropped.
func signTestP(wins, losses int) float64 {
	n := wins + losses
	if n == 0 {
		return 1
	}
	mean := float64(n) / 2
	sd := math.Sqrt(float64(n)) / 2
	z := (math.Abs(float64(wins)-mean) - 0.5) / sd // continuity-corrected
	if z < 0 {
		z = 0
	}
	// Two-sided tail of the standard normal.
	return math.Erfc(z / math.Sqrt2)
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
