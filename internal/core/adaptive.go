package core

import (
	"fmt"
	"math"
)

// Adaptive is the runtime checkpointing controller of Algorithm 1. It
// tracks the remaining productive workload of one task, schedules the
// next checkpoint W0 = TeRemaining/X* seconds of productive progress
// ahead, and recomputes X* from Formula 3 only when the task's MNOF
// changes (Theorem 2 guarantees that recomputation is otherwise
// redundant: the count simply decrements at each checkpoint).
//
// The controller is driven by its owner via OnCheckpoint and
// OnMNOFChange rather than by a polling loop; the countdown of
// Algorithm 1 lines 13-14 corresponds to the owner advancing productive
// time until NextCheckpointIn elapses.
type Adaptive struct {
	c           float64 // per-checkpoint cost
	teRemaining float64 // remaining productive time to the task end
	mnof        float64 // expected failures over the remaining time
	teAtEstim   float64 // remaining time when mnof was last set
	x           int     // interval count for the remaining time
	w0          float64 // current interval length (productive seconds)
	dynamic     bool    // false = static variant (never re-reads MNOF)
	checkpoints int     // checkpoints taken so far
	recomputes  int     // number of Formula 3 recomputations
}

// NewAdaptive creates a controller for a task of productive length te
// with per-checkpoint cost c and initial failure estimate est
// (est.MNOF is the expected failures over the whole task). If dynamic
// is false the controller behaves like the paper's "static algorithm":
// it ignores OnMNOFChange notifications.
func NewAdaptive(te, c float64, est Estimate, dynamic bool) *Adaptive {
	if !(te > 0) {
		panic(fmt.Sprintf("core: NewAdaptive requires Te > 0, got %v", te))
	}
	if !(c > 0) {
		panic(fmt.Sprintf("core: NewAdaptive requires C > 0, got %v", c))
	}
	a := &Adaptive{
		c:           c,
		teRemaining: te,
		mnof:        math.Max(est.MNOF, 0),
		teAtEstim:   te,
		dynamic:     dynamic,
	}
	a.replan()
	return a
}

// replan recomputes X* for the remaining workload (Algorithm 1 lines
// 3-4 and 9-12) and resets the interval length W0.
func (a *Adaptive) replan() {
	remMNOF := a.remainingMNOF()
	x := 1
	if a.teRemaining > 0 && remMNOF > 0 {
		x = OptimalIntervalCount(a.teRemaining, remMNOF, a.c)
	}
	x = ClampIntervals(x, a.teRemaining, a.c)
	a.x = x
	if a.teRemaining > 0 {
		a.w0 = a.teRemaining / float64(x)
	} else {
		a.w0 = 0
	}
	a.recomputes++
}

// remainingMNOF scales the task-level MNOF to the remaining workload,
// mirroring Ek(Y) = Tr(k)/Tr(0) * MNOF in the proof of Theorem 2.
func (a *Adaptive) remainingMNOF() float64 {
	if a.teAtEstim <= 0 {
		return 0
	}
	return a.mnof * a.teRemaining / a.teAtEstim
}

// NextCheckpointIn returns the productive time until the next checkpoint
// should be taken. A value >= Remaining() means the task will finish
// before the next checkpoint (no more checkpoints are planned).
func (a *Adaptive) NextCheckpointIn() float64 { return a.w0 }

// Remaining returns the remaining productive time of the task.
func (a *Adaptive) Remaining() float64 { return a.teRemaining }

// IntervalCount returns the current planned interval count X*.
func (a *Adaptive) IntervalCount() int { return a.x }

// Recomputes returns how many times Formula 3 was evaluated, exposing
// the Theorem 2 saving (the dynamic algorithm only recomputes on MNOF
// changes; a naive implementation recomputes at every checkpoint).
func (a *Adaptive) Recomputes() int { return a.recomputes }

// ShouldCheckpoint reports whether another checkpoint is planned before
// the task completes.
func (a *Adaptive) ShouldCheckpoint() bool {
	return a.x > 1 && a.teRemaining > a.w0+1e-12
}

// OnCheckpoint records that a checkpoint completed after w0 productive
// seconds (Algorithm 1 lines 6-8). Per Theorem 2 the interval count
// decrements and the interval length stays the same — no recomputation.
func (a *Adaptive) OnCheckpoint() {
	a.teRemaining -= a.w0
	if a.teRemaining < 0 {
		a.teRemaining = 0
	}
	a.checkpoints++
	if a.x > 1 {
		a.x--
	}
	// W0 is unchanged (Theorem 2): equidistant plan, same spacing.
}

// OnMNOFChange installs a new task-level MNOF estimate scaled to the
// remaining workload and recomputes the plan (Algorithm 1 lines 9-12).
// The static variant ignores the notification, which is exactly the
// "static algorithm" the paper compares against in Figure 14.
func (a *Adaptive) OnMNOFChange(newMNOF float64) {
	if !a.dynamic {
		return
	}
	a.mnof = math.Max(newMNOF, 0)
	a.teAtEstim = a.teRemaining
	a.replan()
}
