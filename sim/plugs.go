package sim

import (
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/trace"
)

// Task mirrors the trace's task record. It is the input to
// NewTraceFailureProcess, which derives the task's failure process from
// its priority, length, failure seed and priority change.
type Task struct {
	ID    string
	JobID string
	// Index is the task's position within its job.
	Index int
	// Priority is the Google-trace priority, 1 (lowest) to 12.
	Priority int
	// LengthSec is the productive execution length Te in seconds,
	// excluding all fault-tolerance overheads.
	LengthSec float64
	// MemMB is the memory footprint deciding checkpoint/restart costs.
	MemMB float64
	// InputUnits is the input-size feature the job parser feeds to
	// workload predictors; 0 means unknown.
	InputUnits float64
	// FailureSeed seeds the task's failure process.
	FailureSeed uint64
	// ChangeAtFraction / ChangeNewPriority describe a mid-execution
	// priority flip (the paper's Figure 14 scenario); a zero
	// ChangeNewPriority means no change.
	ChangeAtFraction  float64
	ChangeNewPriority int
}

func (t Task) toTrace() trace.Task {
	return trace.Task{
		ID:          t.ID,
		JobID:       t.JobID,
		Index:       t.Index,
		Priority:    t.Priority,
		LengthSec:   t.LengthSec,
		MemMB:       t.MemMB,
		InputUnits:  t.InputUnits,
		FailureSeed: t.FailureSeed,
		Change: trace.PriorityChange{
			AtFraction:  t.ChangeAtFraction,
			NewPriority: t.ChangeNewPriority,
		},
	}
}

// Estimate carries the failure statistics a Policy consults for one
// task: the expected number of failures over the task's lifetime (MNOF,
// the statistic Formula 3 consumes) and the mean time between failures
// (MTBF, the statistic Young's and Daly's formulas consume). Zero
// values mean "unknown"; policies treat them as failure-free.
type Estimate = core.Estimate

// Policy decides how many equidistant checkpointing intervals a task
// uses, given its predicted productive length te (seconds), the
// per-checkpoint cost c (seconds), and its failure statistics.
// Implementations must return a count >= 1 (1 = no checkpoints) and be
// deterministic: paired runs rely on identical decisions.
type Policy = core.Policy

// Formula3 returns the paper's policy (Theorem 1, Formula 3):
// x* = sqrt(Te*MNOF/(2C)), rounded to the integer minimizer of the
// expected wall-clock (Equation 4).
func Formula3() Policy { return core.MNOFPolicy{} }

// Young returns the classical MTBF baseline: interval length
// Tc = sqrt(2*C*MTBF).
func Young() Policy { return core.YoungPolicy{} }

// FailureProcess yields the absolute times of failure events for one
// task, in wall-clock seconds since the task first started. NextAfter
// returns the first failure time strictly greater than t, or +Inf when
// the process generates no further failures. Failures are exogenous:
// rollbacks and restarts do not reset the process.
type FailureProcess = failure.Process

// NewTraceFailureProcess returns the built-in failure process for a
// task: the paper's per-priority renewal process (Pareto-bodied, with
// the exponential short-interval regime), switching distributions at
// the task's priority-change point when one is set.
func NewTraceFailureProcess(t Task) FailureProcess {
	return trace.NewFailureProcess(t.toTrace())
}

// CountFailures returns the number of failures a process generates in
// the half-open window (from, to].
func CountFailures(p FailureProcess, from, to float64) int {
	return failure.CountIn(p, from, to)
}
