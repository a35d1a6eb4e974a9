// Package dist implements the probability distributions the paper fits
// to task failure intervals (Section 4, Figure 5) — exponential,
// Pareto, normal, Laplace, and geometric — plus the log-normal the
// synthetic trace generator draws task lengths and memory sizes from.
//
// Every family is a small value type exposing its parameters as public
// fields, a deterministic Sample driven by a simeng.RNG stream, and the
// CDF/log-density the fitting layer (fit.go) needs for maximum-
// likelihood estimation and Kolmogorov-Smirnov model selection.
package dist

import (
	"math"

	"repro/internal/simeng"
)

// Distribution is a univariate probability distribution over (a subset
// of) the real line. Implementations are immutable value types, so a
// Distribution can be shared freely across goroutines; only the RNG
// passed to Sample carries mutable state.
type Distribution interface {
	// Sample draws one value using the provided RNG stream.
	Sample(r *simeng.RNG) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// LogPDF returns the log-density (or log-mass for discrete
	// families) at x; -Inf outside the support.
	LogPDF(x float64) float64
}

// Exponential is the memoryless family behind Young's formula:
// intervals with rate Lambda (mean 1/Lambda).
type Exponential struct {
	Lambda float64
}

// NewExponential returns an exponential distribution with the given
// rate. It panics if lambda is not positive.
func NewExponential(lambda float64) Exponential {
	if !(lambda > 0) {
		panic("dist: NewExponential requires lambda > 0")
	}
	return Exponential{Lambda: lambda}
}

// Sample implements Distribution.
func (d Exponential) Sample(r *simeng.RNG) float64 { return r.ExpFloat64() / d.Lambda }

// CDF implements Distribution.
func (d Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-d.Lambda * x)
}

// LogPDF implements Distribution.
func (d Exponential) LogPDF(x float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return math.Log(d.Lambda) - d.Lambda*x
}

// Pareto is the heavy-tailed family the paper finds for Google failure
// intervals (Figure 5a): support [Xm, +Inf), tail exponent Alpha. For
// Alpha <= 1 the mean diverges — the regime in which the sample MTBF is
// dominated by rare huge intervals.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// NewPareto returns a Pareto distribution with scale xm and tail index
// alpha. It panics unless both are positive.
func NewPareto(xm, alpha float64) Pareto {
	if !(xm > 0) || !(alpha > 0) {
		panic("dist: NewPareto requires xm > 0 and alpha > 0")
	}
	return Pareto{Xm: xm, Alpha: alpha}
}

// Sample implements Distribution.
func (d Pareto) Sample(r *simeng.RNG) float64 {
	return d.Xm * math.Pow(r.Float64Open(), -1/d.Alpha)
}

// CDF implements Distribution.
func (d Pareto) CDF(x float64) float64 {
	if x <= d.Xm {
		return 0
	}
	return 1 - math.Pow(d.Xm/x, d.Alpha)
}

// LogPDF implements Distribution.
func (d Pareto) LogPDF(x float64) float64 {
	if x < d.Xm {
		return math.Inf(-1)
	}
	return math.Log(d.Alpha) + d.Alpha*math.Log(d.Xm) - (d.Alpha+1)*math.Log(x)
}

// Normal is the Gaussian family with mean Mu and standard deviation
// Sigma.
type Normal struct {
	Mu    float64
	Sigma float64
}

// NewNormal returns a normal distribution; it panics unless sigma > 0.
func NewNormal(mu, sigma float64) Normal {
	if !(sigma > 0) {
		panic("dist: NewNormal requires sigma > 0")
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Sample implements Distribution.
func (d Normal) Sample(r *simeng.RNG) float64 { return d.Mu + d.Sigma*r.NormFloat64() }

// CDF implements Distribution.
func (d Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc(-(x-d.Mu)/(d.Sigma*math.Sqrt2))
}

// LogPDF implements Distribution.
func (d Normal) LogPDF(x float64) float64 {
	z := (x - d.Mu) / d.Sigma
	return -0.5*z*z - math.Log(d.Sigma) - 0.5*math.Log(2*math.Pi)
}

// Laplace is the double-exponential family with location Mu and scale B.
type Laplace struct {
	Mu float64
	B  float64
}

// NewLaplace returns a Laplace distribution; it panics unless b > 0.
func NewLaplace(mu, b float64) Laplace {
	if !(b > 0) {
		panic("dist: NewLaplace requires b > 0")
	}
	return Laplace{Mu: mu, B: b}
}

// Sample implements Distribution.
func (d Laplace) Sample(r *simeng.RNG) float64 {
	u := r.Float64() - 0.5
	if u >= 0 {
		return d.Mu - d.B*math.Log(1-2*u)
	}
	return d.Mu + d.B*math.Log(1+2*u)
}

// CDF implements Distribution.
func (d Laplace) CDF(x float64) float64 {
	if x < d.Mu {
		return 0.5 * math.Exp((x-d.Mu)/d.B)
	}
	return 1 - 0.5*math.Exp(-(x-d.Mu)/d.B)
}

// LogPDF implements Distribution.
func (d Laplace) LogPDF(x float64) float64 {
	return -math.Abs(x-d.Mu)/d.B - math.Log(2*d.B)
}

// Geometric is the discrete waiting-time family on {1, 2, ...}:
// P(X = k) = (1-P)^(k-1) * P. Interval samples, which arrive as
// seconds, are rounded to the nearest positive integer for likelihood
// purposes; the CDF is the usual right-continuous step function, so the
// family competes in the same KS metric as the continuous ones.
type Geometric struct {
	P float64
}

// NewGeometric returns a geometric distribution; it panics unless p is
// in (0, 1].
func NewGeometric(p float64) Geometric {
	if !(p > 0) || p > 1 {
		panic("dist: NewGeometric requires p in (0,1]")
	}
	return Geometric{P: p}
}

// Sample implements Distribution.
func (d Geometric) Sample(r *simeng.RNG) float64 {
	if d.P >= 1 {
		return 1
	}
	k := math.Ceil(math.Log(r.Float64Open()) / math.Log(1-d.P))
	if k < 1 {
		return 1
	}
	return k
}

// CDF implements Distribution.
func (d Geometric) CDF(x float64) float64 {
	if x < 1 {
		return 0
	}
	return 1 - math.Pow(1-d.P, math.Floor(x))
}

// LogPDF implements Distribution (log-mass at the nearest integer).
func (d Geometric) LogPDF(x float64) float64 {
	if x < 0.5 {
		return math.Inf(-1)
	}
	k := math.Max(1, math.Round(x))
	if d.P >= 1 {
		if k == 1 {
			return 0
		}
		return math.Inf(-1)
	}
	return math.Log(d.P) + (k-1)*math.Log(1-d.P)
}

// LogNormal is exp(Normal(Mu, Sigma)): the body model the synthetic
// trace generator uses for task lengths and memory sizes (Figure 8).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// NewLogNormal returns a log-normal distribution parameterized on the
// log scale; it panics unless sigma > 0.
func NewLogNormal(mu, sigma float64) LogNormal {
	if !(sigma > 0) {
		panic("dist: NewLogNormal requires sigma > 0")
	}
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Sample implements Distribution.
func (d LogNormal) Sample(r *simeng.RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// CDF implements Distribution.
func (d LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(x)-d.Mu)/(d.Sigma*math.Sqrt2))
}

// LogPDF implements Distribution.
func (d LogNormal) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - d.Mu) / d.Sigma
	return -0.5*z*z - math.Log(x*d.Sigma) - 0.5*math.Log(2*math.Pi)
}
