package core

import (
	"fmt"
	"math"
)

// Estimate carries the failure statistics a policy may consult for one
// task: the expected number of failures over the task's lifetime (MNOF,
// the statistic Formula 3 consumes) and the mean time between failures
// (MTBF, the statistic Young's and Daly's formulas consume). A zero
// MTBF means "unknown/no failures observed"; policies treat it as
// failure-free.
type Estimate struct {
	MNOF float64
	MTBF float64
}

// Policy decides how many equidistant checkpointing intervals to use for
// a task, given its predicted productive length te (seconds), the
// per-checkpoint cost c (seconds), and the failure statistics est.
// Implementations must return a count >= 1 (1 = no checkpoints).
type Policy interface {
	Name() string
	Intervals(te, c float64, est Estimate) int
}

// MNOFPolicy is the paper's policy (Theorem 1, Formula 3):
// x* = sqrt(Te*MNOF/(2C)), rounded to the integer minimizer of Equation 4.
type MNOFPolicy struct{}

// Name implements Policy.
func (MNOFPolicy) Name() string { return "Formula(3)" }

// Intervals implements Policy using Formula 3.
func (MNOFPolicy) Intervals(te, c float64, est Estimate) int {
	if te <= 0 || est.MNOF <= 0 {
		return 1
	}
	return OptimalIntervalCount(te, est.MNOF, c)
}

// YoungPolicy is the classical baseline (Equation 6): interval length
// Tc = sqrt(2*C*MTBF), converted to a count for the finite task.
type YoungPolicy struct{}

// Name implements Policy.
func (YoungPolicy) Name() string { return "Young" }

// Intervals implements Policy using Young's formula.
func (YoungPolicy) Intervals(te, c float64, est Estimate) int {
	if te <= 0 || est.MTBF <= 0 {
		return 1
	}
	return IntervalsFromLength(te, YoungInterval(c, est.MTBF))
}

// DalyPolicy is Daly's higher-order refinement of Young's formula,
// used as an additional baseline in the ablation experiments.
type DalyPolicy struct{}

// Name implements Policy.
func (DalyPolicy) Name() string { return "Daly" }

// Intervals implements Policy using Daly's formula.
func (DalyPolicy) Intervals(te, c float64, est Estimate) int {
	if te <= 0 || est.MTBF <= 0 {
		return 1
	}
	interval := DalyInterval(c, est.MTBF)
	if !(interval > 0) {
		return 1
	}
	return IntervalsFromLength(te, interval)
}

// FixedIntervalPolicy checkpoints every Interval seconds of productive
// time regardless of failure statistics.
type FixedIntervalPolicy struct {
	Interval float64
}

// Name implements Policy.
func (p FixedIntervalPolicy) Name() string {
	return fmt.Sprintf("Fixed(%.0fs)", p.Interval)
}

// Intervals implements Policy.
func (p FixedIntervalPolicy) Intervals(te, c float64, est Estimate) int {
	if !(p.Interval > 0) {
		panic("core: FixedIntervalPolicy requires Interval > 0")
	}
	return IntervalsFromLength(te, p.Interval)
}

// RandomPolicy is the "random checkpointing" baseline from the
// stochastic-models literature the paper surveys (Wolter [28]): the
// expected number of intervals matches Formula 3's optimum, but the
// count is drawn per task from a geometric-like distribution around it
// instead of being set deterministically. It isolates the value of the
// *deterministic equidistant* structure: with the same expected
// checkpoint budget, the randomized plan wastes part of it.
//
// The draw derives deterministically from the task parameters so that
// repeated runs agree.
type RandomPolicy struct {
	// Spread widens the distribution; 0 means the default 0.5 (draws
	// roughly within a factor of two of the optimum).
	Spread float64
}

// Name implements Policy.
func (p RandomPolicy) Name() string { return "Random" }

// Intervals implements Policy.
func (p RandomPolicy) Intervals(te, c float64, est Estimate) int {
	if te <= 0 || est.MNOF <= 0 {
		return 1
	}
	spread := p.Spread
	if spread == 0 {
		spread = 0.5
	}
	opt := OptimalIntervals(te, est.MNOF, c)
	// A deterministic pseudo-draw from the task parameters: hash the
	// bits of te and MNOF into a uniform in (0,1), then scale the
	// optimum log-normally around 1.
	h := math.Float64bits(te)*0x9e3779b97f4a7c15 ^ math.Float64bits(est.MNOF)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	u := float64(h>>11) / (1 << 53)
	if u <= 0 || u >= 1 {
		u = 0.5
	}
	// Inverse-normal via the logit approximation is enough here.
	z := math.Log(u/(1-u)) / 1.6
	x := opt * math.Exp(spread*z)
	if x < 1 {
		return 1
	}
	return int(math.Round(x))
}

// NoCheckpointPolicy never checkpoints; failures roll the task back to
// its beginning. It is the trivial lower baseline.
type NoCheckpointPolicy struct{}

// Name implements Policy.
func (NoCheckpointPolicy) Name() string { return "None" }

// Intervals implements Policy.
func (NoCheckpointPolicy) Intervals(te, c float64, est Estimate) int { return 1 }

// ClampIntervals bounds an interval count so the checkpoint overhead
// cannot exceed the task length: at most floor(te/c) intervals, at least
// one. Engines apply this guard to every policy decision so that absurd
// estimates cannot produce pathological plans.
func ClampIntervals(x int, te, c float64) int {
	if x < 1 {
		return 1
	}
	if c > 0 && te > 0 {
		maxX := int(math.Floor(te / c))
		if maxX < 1 {
			maxX = 1
		}
		if x > maxX {
			return maxX
		}
	}
	return x
}
