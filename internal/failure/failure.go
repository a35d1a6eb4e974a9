// Package failure models the failure/interruption processes that strike
// cloud tasks: renewal processes over arbitrary interval distributions
// (the paper's distribution-free setting; exponential intervals give the
// Poisson process behind Young's formula), and processes whose
// statistics switch mid-execution (the priority-change scenario of the
// paper's dynamic-versus-static experiment, Figure 14).
//
// A Process produces an increasing sequence of absolute failure times
// measured in wall-clock seconds since the task first started. Failures
// are exogenous (kills, evictions, preemptions), so rollbacks and
// restarts do not reset the process — exactly the cloud semantics the
// paper assumes when arguing that checkpoint dates and failure events
// are independent.
package failure

import (
	"math"

	"repro/internal/dist"
	"repro/internal/simeng"
)

// Process yields the absolute times of failure events for one task.
type Process interface {
	// NextAfter returns the first failure time strictly greater than t,
	// or +Inf if the process generates no further failures.
	NextAfter(t float64) float64
}

// Renewal is a renewal process: failure times are cumulative sums of
// i.i.d. intervals drawn from Dist. The draw sequence is deterministic
// given the RNG seed, so repeated runs (e.g. the same task under two
// policies) see identical failure times.
//
// The process keeps only its last failure time and where that
// interval began. Queries are near-monotone in practice (a task's
// wall-clock only moves forward), and a query at or past the interval's
// start is answered from those two; an earlier one replays the draws
// from the stream's starting state on a copy. So a process holds no
// per-failure memory and never allocates, and its answers do not
// depend on query order.
type Renewal struct {
	dist dist.Distribution
	rng  *simeng.RNG
	// origin is rng's state before the first draw.
	origin simeng.RNG
	// cursor is the last failure time drawn (0 before the first draw)
	// and prev the start of its interval (-Inf before the first draw);
	// n counts the draws.
	prev, cursor float64
	n            int
}

// maxDraws bounds the failures one process generates; past it the
// process reports no further failure.
const maxDraws = 1 << 20

// NewRenewal returns a renewal process over d driven by rng. The
// process owns rng: nothing else may draw from it.
func NewRenewal(d dist.Distribution, rng *simeng.RNG) *Renewal {
	r := &Renewal{}
	r.Reset(d, rng)
	return r
}

// Reset (re)initializes the receiver in place to a fresh renewal
// process over d driven by rng, exactly as NewRenewal would construct
// it. It exists so callers that keep Renewal values in preallocated
// slabs (e.g. the engine's per-task run state) can build processes
// without a heap allocation per task.
func (r *Renewal) Reset(d dist.Distribution, rng *simeng.RNG) {
	if d == nil || rng == nil {
		panic("failure: Renewal requires a distribution and an RNG")
	}
	*r = Renewal{dist: d, rng: rng, origin: *rng, prev: math.Inf(-1)}
}

// NextAfter implements Process.
func (r *Renewal) NextAfter(t float64) float64 {
	if t < r.prev {
		// The answer is an earlier failure: redraw the sequence up to it.
		rng := r.origin
		at := r.draw(&rng)
		for at <= t {
			at += r.draw(&rng)
		}
		return at
	}
	for r.cursor <= t {
		if r.n >= maxDraws {
			return math.Inf(1)
		}
		r.prev = r.cursor
		r.cursor += r.draw(r.rng)
		r.n++
	}
	return r.cursor
}

// draw samples the next interval from rng, flooring it so zero-length
// (or negative) intervals cannot stall the process.
func (r *Renewal) draw(rng *simeng.RNG) float64 {
	iv := r.dist.Sample(rng)
	if iv < 1e-9 {
		iv = 1e-9
	}
	return iv
}

// Switching wraps two processes and a switch time: failures before
// SwitchAt come from Before, failures after come from After (offset so
// the second process starts fresh at the switch). It models a task
// whose priority — and therefore failure distribution — changes at a
// known execution point, the Figure 14 scenario.
type Switching struct {
	Before   Process
	After    Process
	SwitchAt float64
}

// NewSwitching returns a process that follows before until switchAt and
// after (time-shifted to start at switchAt) thereafter.
func NewSwitching(before, after Process, switchAt float64) *Switching {
	if before == nil || after == nil {
		panic("failure: NewSwitching requires both processes")
	}
	if switchAt < 0 {
		panic("failure: NewSwitching requires switchAt >= 0")
	}
	return &Switching{Before: before, After: after, SwitchAt: switchAt}
}

// NextAfter implements Process.
func (s *Switching) NextAfter(t float64) float64 {
	if t < s.SwitchAt {
		next := s.Before.NextAfter(t)
		if next <= s.SwitchAt {
			return next
		}
		// No pre-switch failure remains; fall through to the post-switch
		// process starting at the switch point.
		t = s.SwitchAt
	}
	// The subtraction t-SwitchAt can round down by an ulp, making the
	// post-switch process re-report the failure at exactly t; nudge the
	// query forward until the result strictly progresses.
	u := t - s.SwitchAt
	for {
		next := s.SwitchAt + s.After.NextAfter(u)
		if next > t {
			return next
		}
		u = math.Nextafter(u, math.Inf(1))
	}
}

// CountIn returns the number of failures in the half-open window
// (from, to]; it is a convenience for history estimation.
func CountIn(p Process, from, to float64) int {
	count := 0
	t := from
	for {
		next := p.NextAfter(t)
		if math.IsInf(next, 1) || next > to {
			return count
		}
		count++
		t = next
	}
}

// IntervalsIn returns the completed inter-failure intervals inside
// (0, horizon]: the gaps between consecutive failures, with the leading
// gap from 0 to the first failure included (it is an uninterrupted work
// interval in the paper's sense). The trailing censored segment after
// the last failure is excluded.
func IntervalsIn(p Process, horizon float64) []float64 {
	var out []float64
	prev := 0.0
	t := 0.0
	for {
		next := p.NextAfter(t)
		if math.IsInf(next, 1) || next > horizon {
			return out
		}
		out = append(out, next-prev)
		prev = next
		t = next
	}
}
