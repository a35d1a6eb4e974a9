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
type Renewal struct {
	dist   dist.Distribution
	rng    *simeng.RNG
	times  []float64
	cursor float64
	maxGen int
	// hint caches the index NextAfter last returned from. Queries are
	// near-monotone in practice (a task's wall-clock only moves forward),
	// so the next answer is almost always at or just past the hint,
	// turning the per-call binary search into one or two comparisons.
	hint int
}

// NewRenewal returns a renewal process over d driven by rng.
func NewRenewal(d dist.Distribution, rng *simeng.RNG) *Renewal {
	r := &Renewal{}
	r.Reset(d, rng)
	return r
}

// Reset (re)initializes the receiver in place to a fresh renewal
// process over d driven by rng, exactly as NewRenewal would construct
// it. It exists so callers that keep Renewal values in preallocated
// slabs (e.g. the engine's per-task columnar state) can build processes
// without a heap allocation per task; the recorded-times backing array
// is reused when present.
func (r *Renewal) Reset(d dist.Distribution, rng *simeng.RNG) {
	if d == nil || rng == nil {
		panic("failure: Renewal requires a distribution and an RNG")
	}
	if r.times == nil {
		// Every consumer draws at least a few times; seeding the
		// capacity skips the first rounds of append growth.
		r.times = make([]float64, 0, 8)
	} else {
		r.times = r.times[:0]
	}
	r.dist, r.rng, r.cursor, r.maxGen = d, rng, 0, 1<<20
	r.hint = 0
}

// DetachTimes returns the recorded-times backing array, emptied, and
// leaves the receiver without one, so a caller that zeroes Renewal
// values can pass the array on instead of dropping it.
func (r *Renewal) DetachTimes() []float64 {
	times := r.times[:0]
	r.times = nil
	return times
}

// AttachTimes makes times (from DetachTimes) the receiver's
// recorded-times backing; the next Reset reuses it. The draws do not
// depend on the backing, so a process is the same with or without it.
func (r *Renewal) AttachTimes(times []float64) { r.times = times[:0] }

// NextAfter implements Process.
func (r *Renewal) NextAfter(t float64) float64 {
	for r.cursor <= t {
		if len(r.times) >= r.maxGen {
			return math.Inf(1)
		}
		iv := r.dist.Sample(r.rng)
		if iv < 0 {
			iv = 0
		}
		// Guard against zero-length intervals stalling the process.
		if iv < 1e-9 {
			iv = 1e-9
		}
		r.cursor += iv
		r.times = append(r.times, r.cursor)
	}
	// The answer is the first recorded time > t. Start from the cached
	// hint: forward queries (the common case) advance it by at most a
	// step or two; a backward query falls back to a full binary search.
	lo := r.hint
	if lo > len(r.times) {
		lo = len(r.times)
	}
	if lo > 0 && r.times[lo-1] > t {
		lo = 0
		hi := len(r.times)
		for lo < hi {
			mid := (lo + hi) / 2
			if r.times[mid] <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	} else {
		for lo < len(r.times) && r.times[lo] <= t {
			lo++
		}
	}
	r.hint = lo
	if lo < len(r.times) {
		return r.times[lo]
	}
	return r.cursor
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
