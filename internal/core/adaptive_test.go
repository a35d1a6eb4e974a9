package core

import (
	"fmt"
	"math"
	"testing"
)

// Checkpoints returns the number of checkpoints recorded so far.
func (a *Adaptive) Checkpoints() int { return a.checkpoints }

// OnRollback restores the controller to the state of the last completed
// checkpoint: the remaining work grows back by the productive time lost
// (the owner knows how far past the last checkpoint the task was).
// The plan's spacing is preserved; the interval count is recomputed from
// the restored remaining workload to keep the equidistant invariant.
func (a *Adaptive) OnRollback(lostWork float64) {
	if lostWork < 0 {
		panic("core: OnRollback with negative lost work")
	}
	a.teRemaining += lostWork
	// Re-deriving the count from the preserved spacing keeps checkpoint
	// positions aligned with the pre-failure plan.
	if a.w0 > 0 {
		x := int(math.Round(a.teRemaining / a.w0))
		if x < 1 {
			x = 1
		}
		a.x = x
	}
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

func TestAdaptiveInitialPlanMatchesFormula3(t *testing.T) {
	a := NewAdaptive(18, 2, Estimate{MNOF: 2}, true)
	if a.IntervalCount() != 3 {
		t.Fatalf("X* = %d, want 3", a.IntervalCount())
	}
	if math.Abs(a.NextCheckpointIn()-6) > 1e-12 {
		t.Fatalf("W0 = %v, want 6", a.NextCheckpointIn())
	}
}

// Theorem 2: with unchanged MNOF, each checkpoint decrements the count
// and preserves the spacing — the checkpoint positions never move.
func TestTheorem2CountDecrementsSpacingConstant(t *testing.T) {
	a := NewAdaptive(100, 1, Estimate{MNOF: 2}, true)
	x0 := a.IntervalCount()
	w0 := a.NextCheckpointIn()
	for k := 0; k < x0-1; k++ {
		if got := a.IntervalCount(); got != x0-k {
			t.Fatalf("after %d checkpoints X = %d, want %d", k, got, x0-k)
		}
		if math.Abs(a.NextCheckpointIn()-w0) > 1e-9 {
			t.Fatalf("spacing drifted to %v after %d checkpoints", a.NextCheckpointIn(), k)
		}
		a.OnCheckpoint()
	}
	if a.IntervalCount() != 1 {
		t.Fatalf("final X = %d, want 1", a.IntervalCount())
	}
	if a.ShouldCheckpoint() {
		t.Fatal("controller still wants to checkpoint after last interval")
	}
}

// nextIntervalAfterCheckpoint is the Theorem 2 recurrence, the reference
// TestTheorem2ClosedForm checks Formula 3 against: under an unchanged
// MNOF, the optimal interval count for the remaining work
// after the k-th checkpoint is exactly X*-1 where X* was the count at
// the k-th checkpoint. The function recomputes Formula 3 on the remaining
// workload and remaining expected failures; Theorem 2 guarantees the
// result equals xPrev-1 when MNOF is unchanged.
//
// trK is the remaining execution length at the previous checkpoint,
// ekY the expected failures over trK, and xPrev the interval count
// computed there.
func nextIntervalAfterCheckpoint(trK, ekY, c float64, xPrev float64) float64 {
	if xPrev < 1 {
		panic("core: nextIntervalAfterCheckpoint requires xPrev >= 1")
	}
	trK1 := trK * (xPrev - 1) / xPrev
	ekY1 := ekY * (xPrev - 1) / xPrev
	return OptimalIntervals(trK1, ekY1, c)
}

// The closed-form Theorem 2 identity: X(*) computed from the remaining
// workload equals X*-1 exactly when MNOF is unchanged.
func TestTheorem2ClosedForm(t *testing.T) {
	for _, tc := range []struct{ tr, ey, c float64 }{
		{100, 2, 1}, {441, 2, 1}, {1000, 5, 2}, {50, 1, 0.5},
	} {
		xPrev := OptimalIntervals(tc.tr, tc.ey, tc.c)
		if xPrev <= 1 {
			continue
		}
		xNext := nextIntervalAfterCheckpoint(tc.tr, tc.ey, tc.c, xPrev)
		if math.Abs(xNext-(xPrev-1)) > 1e-9 {
			t.Errorf("Tr=%v E=%v C=%v: X(*) = %v, want X*-1 = %v",
				tc.tr, tc.ey, tc.c, xNext, xPrev-1)
		}
	}
}

// Conversely, a changed MNOF breaks the identity (the "if and only if").
func TestTheorem2ChangedMNOFChangesPlan(t *testing.T) {
	tr, ey, c := 400.0, 4.0, 1.0
	xPrev := OptimalIntervals(tr, ey, c)
	// Recompute with doubled failure expectation on the remaining work.
	tr1 := tr * (xPrev - 1) / xPrev
	eyChanged := 2 * ey * (xPrev - 1) / xPrev
	xNext := OptimalIntervals(tr1, eyChanged, c)
	if math.Abs(xNext-(xPrev-1)) < 0.1 {
		t.Fatalf("changed MNOF still yields X*-1 (%v vs %v)", xNext, xPrev-1)
	}
}

func TestAdaptiveRecomputesOnlyOnMNOFChange(t *testing.T) {
	a := NewAdaptive(1000, 1, Estimate{MNOF: 4}, true)
	before := a.Recomputes()
	for i := 0; i < 5; i++ {
		a.OnCheckpoint()
	}
	if a.Recomputes() != before {
		t.Fatalf("checkpoints triggered %d recomputations", a.Recomputes()-before)
	}
	a.OnMNOFChange(8)
	if a.Recomputes() != before+1 {
		t.Fatalf("MNOF change triggered %d recomputations, want 1", a.Recomputes()-before)
	}
}

func TestAdaptiveDynamicReactsToMNOFIncrease(t *testing.T) {
	a := NewAdaptive(1000, 1, Estimate{MNOF: 1}, true)
	w0 := a.NextCheckpointIn()
	a.OnMNOFChange(16) // much more failure-prone now
	if a.NextCheckpointIn() >= w0 {
		t.Fatalf("interval did not shrink after MNOF increase: %v -> %v", w0, a.NextCheckpointIn())
	}
}

func TestAdaptiveStaticIgnoresMNOFChange(t *testing.T) {
	a := NewAdaptive(1000, 1, Estimate{MNOF: 1}, false)
	w0 := a.NextCheckpointIn()
	x0 := a.IntervalCount()
	a.OnMNOFChange(100)
	if a.NextCheckpointIn() != w0 || a.IntervalCount() != x0 {
		t.Fatal("static controller reacted to MNOF change")
	}
}

func TestAdaptiveRollbackRestoresWork(t *testing.T) {
	a := NewAdaptive(100, 1, Estimate{MNOF: 4}, true)
	w0 := a.NextCheckpointIn()
	a.OnCheckpoint()
	remAfterCkpt := a.Remaining()
	// Task fails 3 seconds past the checkpoint; the engine rolls it back.
	a.OnRollback(0) // nothing past the checkpoint is lost from the plan view
	if a.Remaining() != remAfterCkpt {
		t.Fatalf("rollback with no lost work changed remaining: %v", a.Remaining())
	}
	// Failure before reaching the next checkpoint with 3s un-checkpointed
	// progress: plan must re-absorb it.
	a.OnRollback(3)
	if math.Abs(a.Remaining()-(remAfterCkpt+3)) > 1e-12 {
		t.Fatalf("remaining = %v, want %v", a.Remaining(), remAfterCkpt+3)
	}
	_ = w0
}

func TestAdaptiveRollbackPreservesSpacing(t *testing.T) {
	a := NewAdaptive(100, 1, Estimate{MNOF: 4}, true)
	w0 := a.NextCheckpointIn()
	a.OnCheckpoint()
	a.OnRollback(w0 / 2)
	if math.Abs(a.NextCheckpointIn()-w0) > 1e-9 {
		t.Fatalf("spacing after rollback = %v, want %v", a.NextCheckpointIn(), w0)
	}
}

func TestAdaptiveNoFailuresMeansNoCheckpoints(t *testing.T) {
	a := NewAdaptive(100, 1, Estimate{MNOF: 0}, true)
	if a.IntervalCount() != 1 || a.ShouldCheckpoint() {
		t.Fatalf("failure-free task plans %d intervals", a.IntervalCount())
	}
}

func TestAdaptiveClampsAbsurdEstimates(t *testing.T) {
	// MNOF so large that x* would exceed te/c: must clamp so checkpoint
	// overhead cannot exceed the task itself.
	a := NewAdaptive(10, 1, Estimate{MNOF: 1e6}, true)
	if a.IntervalCount() > 10 {
		t.Fatalf("X = %d exceeds te/c = 10", a.IntervalCount())
	}
}

func TestAdaptiveCheckpointCountTracking(t *testing.T) {
	a := NewAdaptive(100, 1, Estimate{MNOF: 4}, true)
	n := a.IntervalCount()
	for a.ShouldCheckpoint() {
		a.OnCheckpoint()
	}
	if a.Checkpoints() != n-1 {
		t.Fatalf("took %d checkpoints for %d intervals", a.Checkpoints(), n)
	}
}

func TestAdaptivePanics(t *testing.T) {
	cases := []func(){
		func() { NewAdaptive(0, 1, Estimate{}, true) },
		func() { NewAdaptive(10, 0, Estimate{}, true) },
		func() { NewAdaptive(10, 1, Estimate{MNOF: 1}, true).OnRollback(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPolicyIntervals(t *testing.T) {
	est := Estimate{MNOF: 2, MTBF: 236}
	te, c := 1000.0, 2.0

	mnofX := MNOFPolicy{}.Intervals(te, c, est)
	want := OptimalIntervalCount(te, 2, c)
	if mnofX != want {
		t.Errorf("MNOFPolicy = %d, want %d", mnofX, want)
	}

	youngX := YoungPolicy{}.Intervals(te, c, est)
	wantY := IntervalsFromLength(te, YoungInterval(c, 236))
	if youngX != wantY {
		t.Errorf("YoungPolicy = %d, want %d", youngX, wantY)
	}

	dalyX := DalyPolicy{}.Intervals(te, c, est)
	if dalyX < 1 {
		t.Errorf("DalyPolicy = %d", dalyX)
	}

	if got := (NoCheckpointPolicy{}).Intervals(te, c, est); got != 1 {
		t.Errorf("NoCheckpointPolicy = %d", got)
	}
	if got := (FixedIntervalPolicy{Interval: 100}).Intervals(te, c, est); got != 10 {
		t.Errorf("FixedIntervalPolicy = %d, want 10", got)
	}
}

func TestRandomPolicyProperties(t *testing.T) {
	p := RandomPolicy{}
	est := Estimate{MNOF: 3}
	// Deterministic per task parameters.
	if p.Intervals(500, 1, est) != p.Intervals(500, 1, est) {
		t.Fatal("RandomPolicy not deterministic for identical inputs")
	}
	// Varies across tasks, stays >= 1, and averages near the optimum.
	var sum, count float64
	distinct := make(map[int]bool)
	for te := 100.0; te <= 2000; te += 7 {
		x := p.Intervals(te, 1, est)
		if x < 1 {
			t.Fatalf("Intervals(%v) = %d", te, x)
		}
		opt := OptimalIntervals(te, est.MNOF, 1)
		sum += float64(x) / opt
		count++
		distinct[x] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("RandomPolicy produced only %d distinct counts", len(distinct))
	}
	meanRatio := sum / count
	if meanRatio < 0.6 || meanRatio > 1.8 {
		t.Fatalf("mean ratio to optimum = %v, want near 1", meanRatio)
	}
	// Degenerate estimates degrade to one interval.
	if p.Intervals(100, 1, Estimate{}) != 1 {
		t.Fatal("zero MNOF should yield 1 interval")
	}
	if p.Name() != "Random" {
		t.Fatal("name")
	}
}

func TestPolicyDegenerateEstimates(t *testing.T) {
	// Unknown statistics must degrade to "no checkpoints", never panic.
	zero := Estimate{}
	for _, p := range []Policy{MNOFPolicy{}, YoungPolicy{}, DalyPolicy{}} {
		if got := p.Intervals(100, 1, zero); got != 1 {
			t.Errorf("%s with zero estimate = %d, want 1", p.Name(), got)
		}
		if got := p.Intervals(0, 1, Estimate{MNOF: 5, MTBF: 5}); got != 1 {
			t.Errorf("%s with zero-length task = %d, want 1", p.Name(), got)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"Formula(3)": MNOFPolicy{},
		"Young":      YoungPolicy{},
		"Daly":       DalyPolicy{},
		"None":       NoCheckpointPolicy{},
		"Fixed(60s)": FixedIntervalPolicy{Interval: 60},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}

func TestFixedPolicyPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FixedIntervalPolicy{0} did not panic")
			}
		}()
		FixedIntervalPolicy{}.Intervals(10, 1, Estimate{})
	}()
}
