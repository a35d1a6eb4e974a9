package trace

import (
	"math"

	"repro/internal/dist"
	"repro/internal/failure"
	"repro/internal/simeng"
)

// Per-priority failure-interval models.
//
// The paper characterizes Google failure intervals as Pareto overall
// (Figure 5a) with an exponential best fit at rate 0.00423445 below
// 1000 s (Figure 5b), and shows (Figure 4, Table 7) that interval scale
// varies strongly — and non-monotonically — with priority: low-priority
// tasks are preempted frequently; priority 10 (Google's monitoring tier)
// restarts extremely often (MTBF ~37 s, MNOF ~12); mid/high production
// priorities fail rarely.
//
// Each priority maps to a Pareto(xm, alpha) interval distribution with
// alpha close to 1 so that the sample mean (MTBF) is dominated by rare
// huge intervals while the bulk of intervals is short — the statistical
// trap for Young's formula that the paper exploits.

// priorityParam holds the Pareto parameters for one priority tier.
type priorityParam struct {
	xm    float64
	alpha float64
}

// priorityParams index 1..12. Scales rise with priority through the
// production tiers (Figure 4: higher priority, longer uninterrupted
// intervals) except priority 10, which is calibrated to the paper's
// Table 7 anomaly (very frequent interruptions).
var priorityParams = [13]priorityParam{
	{},                     // unused (priorities start at 1)
	{xm: 25, alpha: 0.95},  // 1: lowest, heavily preempted
	{xm: 38, alpha: 0.95},  // 2
	{xm: 55, alpha: 1.00},  // 3
	{xm: 75, alpha: 1.00},  // 4
	{xm: 95, alpha: 1.05},  // 5
	{xm: 125, alpha: 1.05}, // 6
	{xm: 50, alpha: 1.00},  // 7: batch tier, still interrupted often
	{xm: 220, alpha: 1.10}, // 8
	{xm: 300, alpha: 1.10}, // 9
	{xm: 11, alpha: 1.15},  // 10: monitoring tier, constant restarts
	{xm: 500, alpha: 1.15}, // 11
	{xm: 800, alpha: 1.15}, // 12: highest, rarely disturbed
}

// Interval scales correlate with task length: long-running Google tasks
// are the stable ones (they would not have survived otherwise), so
// their uninterrupted intervals are proportionally longer. This is the
// structure behind Table 7 — pooled MTBF explodes with the length limit
// (127 s -> 5106 s for priority 1) while MNOF stays within a small
// factor (0.77 -> 3.36) — and it is exactly the statistical trap that
// breaks Young's formula: group-level MTBF is dominated by long tasks'
// huge intervals, while most tasks are short and fail quickly.
const (
	refTaskLength  = 300.0 // seconds; tasks of this length see the base scale
	lengthExponent = 0.9   // near-proportional growth keeps per-task MNOF stable
)

func lengthFactor(lengthSec float64) float64 {
	if lengthSec <= refTaskLength {
		return 1
	}
	return math.Pow(lengthSec/refTaskLength, lengthExponent)
}

// IntervalDistForTask returns the failure-interval distribution of a
// task with the given priority and productive length.
func IntervalDistForTask(priority int, lengthSec float64) dist.Distribution {
	return IntervalParetoForTask(priority, lengthSec)
}

// IntervalParetoForTask is IntervalDistForTask returning the concrete
// Pareto value, so slab-resident callers can store it unboxed and hand
// the interface a pointer into their own storage.
func IntervalParetoForTask(priority int, lengthSec float64) dist.Pareto {
	if priority < 1 || priority > 12 {
		panic("trace: priority outside 1..12")
	}
	p := priorityParams[priority]
	return dist.NewPareto(p.xm*lengthFactor(lengthSec), p.alpha)
}

// NewFailureProcess builds the failure process for a task: a renewal
// process over the task's priority interval distribution, seeded from
// the task's FailureSeed; if the task carries a priority change, the
// process switches distributions at the corresponding point of the
// task's productive timeline (approximated in wall-clock by the same
// offset, as the paper does when flipping priorities mid-run).
func NewFailureProcess(t Task) failure.Process {
	rng := simeng.NewRNG(t.FailureSeed)
	before := failure.NewRenewal(IntervalDistForTask(t.Priority, t.LengthSec), rng.Split())
	if !t.Change.Active() {
		return before
	}
	after := failure.NewRenewal(IntervalDistForTask(t.Change.NewPriority, t.LengthSec), rng.Split())
	switchAt := t.LengthSec * t.Change.AtFraction
	return failure.NewSwitching(before, after, switchAt)
}

// InitFailureProcess is NewFailureProcess building the common-case
// process into caller-provided slab storage, taking the task's fields
// as scalars so columnar callers read them straight from the trace's
// columns: ren becomes the (initial) renewal process,
// driven by rng over the Pareto stored at par, and the draw sequence
// matches NewFailureProcess bit for bit. changePrio is 0 for tasks
// with no mid-run priority change; then the returned Process is ren
// itself and the call performs no heap allocation. Switching tasks
// fall back to heap-allocating the post-switch process.
func InitFailureProcess(priority int, lengthSec float64, seed uint64, changePrio int, changeFrac float64,
	ren *failure.Renewal, rng *simeng.RNG, par *dist.Pareto) failure.Process {
	var root simeng.RNG
	root.Seed(seed)
	root.SplitInto(rng)
	*par = IntervalParetoForTask(priority, lengthSec)
	ren.Reset(par, rng)
	if changePrio == 0 {
		return ren
	}
	after := failure.NewRenewal(IntervalDistForTask(changePrio, lengthSec), root.Split())
	return failure.NewSwitching(ren, after, lengthSec*changeFrac)
}

// PriorityOrder lists the priorities in the order the paper's figures
// present them.
var PriorityOrder = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
