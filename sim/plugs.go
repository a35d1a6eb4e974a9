package sim

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/scenario"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Task is the public, read-only view of one unit of execution that
// plugged-in implementations (Policy statistics sources, predictors,
// failure models) receive. It mirrors the trace's task record.
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

func taskView(t trace.Task) Task {
	return Task{
		ID:                t.ID,
		JobID:             t.JobID,
		Index:             t.Index,
		Priority:          t.Priority,
		LengthSec:         t.LengthSec,
		MemMB:             t.MemMB,
		InputUnits:        t.InputUnits,
		FailureSeed:       t.FailureSeed,
		ChangeAtFraction:  t.Change.AtFraction,
		ChangeNewPriority: t.Change.NewPriority,
	}
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
type Estimate struct {
	MNOF float64
	MTBF float64
}

// Policy decides how many equidistant checkpointing intervals a task
// uses, given its predicted productive length te (seconds), the
// per-checkpoint cost c (seconds), and its failure statistics.
// Implementations must return a count >= 1 (1 = no checkpoints) and be
// deterministic: paired runs rely on identical decisions.
type Policy interface {
	Name() string
	Intervals(te, c float64, est Estimate) int
}

// corePolicy adapts a public Policy onto the internal planner seam.
type corePolicy struct{ p Policy }

func (a corePolicy) Name() string { return a.p.Name() }
func (a corePolicy) Intervals(te, c float64, est core.Estimate) int {
	return a.p.Intervals(te, c, Estimate(est))
}

// builtinPolicy exposes an internal policy through the public interface.
type builtinPolicy struct{ p core.Policy }

func (b builtinPolicy) Name() string { return b.p.Name() }
func (b builtinPolicy) Intervals(te, c float64, est Estimate) int {
	return b.p.Intervals(te, c, core.Estimate(est))
}

// Formula3 returns the paper's policy (Theorem 1, Formula 3):
// x* = sqrt(Te*MNOF/(2C)), rounded to the integer minimizer of the
// expected wall-clock (Equation 4).
func Formula3() Policy { return builtinPolicy{core.MNOFPolicy{}} }

// Young returns the classical MTBF baseline: interval length
// Tc = sqrt(2*C*MTBF).
func Young() Policy { return builtinPolicy{core.YoungPolicy{}} }

// Daly returns Daly's higher-order refinement of Young's formula.
func Daly() Policy { return builtinPolicy{core.DalyPolicy{}} }

// NoCheckpoints returns the trivial lower baseline: never checkpoint.
func NoCheckpoints() Policy { return builtinPolicy{core.NoCheckpointPolicy{}} }

// RandomizedPolicy returns the stochastic baseline: the expected
// interval count matches Formula 3's optimum, but each task's count is
// drawn (deterministically from its parameters) around it. spread
// widens the draw; 0 selects the default 0.5.
func RandomizedPolicy(spread float64) Policy {
	return builtinPolicy{core.RandomPolicy{Spread: spread}}
}

// FixedIntervalPolicy checkpoints every interval seconds of productive
// time regardless of statistics.
func FixedIntervalPolicy(interval float64) Policy {
	return builtinPolicy{core.FixedIntervalPolicy{Interval: interval}}
}

// PolicyByName resolves a policy name — "formula3" (aliases "f3",
// "mnof", ""), "young", "daly", "random", or "none" — to its built-in
// implementation.
func PolicyByName(name string) (Policy, error) {
	p, err := scenario.PolicyByName(name)
	if err != nil {
		return nil, err
	}
	return builtinPolicy{p}, nil
}

// Estimator supplies per-task failure statistics to the planner,
// replacing the built-in history/oracle estimators. Implementations
// must be safe for concurrent use when shared across sweep runs and
// deterministic per task.
type Estimator interface {
	Estimate(t Task) Estimate
}

// taskEstimator adapts a public Estimator onto the engine seam.
type taskEstimator struct{ e Estimator }

func (a taskEstimator) EstimateTask(t trace.Task) core.Estimate {
	return core.Estimate(a.e.Estimate(taskView(t)))
}

// FixedEstimator returns an Estimator reporting the same statistics for
// every task — useful for what-if planning and tests.
func FixedEstimator(est Estimate) Estimator { return fixedEstimator{est} }

type fixedEstimator struct{ est Estimate }

func (f fixedEstimator) Estimate(Task) Estimate { return f.est }

// FailureProcess yields the absolute times of failure events for one
// task, in wall-clock seconds since the task first started. NextAfter
// returns the first failure time strictly greater than t, or +Inf when
// the process generates no further failures. Failures are exogenous:
// rollbacks and restarts do not reset the process.
type FailureProcess interface {
	NextAfter(t float64) float64
}

// FailureModel builds the failure process each task runs under,
// replacing the trace-driven Pareto/exponential processes. NewProcess
// must be deterministic given the task: the engine previews a second
// instance for oracle estimation, and paired runs rely on identical
// draws.
type FailureModel interface {
	NewProcess(t Task) FailureProcess
}

func failureModelFunc(m FailureModel) func(trace.Task) failure.Process {
	return func(t trace.Task) failure.Process { return m.NewProcess(taskView(t)) }
}

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
	return failure.CountIn(processAdapter{p}, from, to)
}

// processAdapter lets a public FailureProcess flow through internal
// helpers (the two interfaces are structurally identical).
type processAdapter struct{ p FailureProcess }

func (a processAdapter) NextAfter(t float64) float64 { return a.p.NextAfter(t) }

// Predictor estimates a task's productive length in seconds for
// checkpoint planning — the paper's job-parser workload prediction.
// Execution always uses the true length; only the plan sees the
// prediction.
type Predictor interface {
	Name() string
	Predict(t Task) float64
}

// enginePredictor adapts a public Predictor onto the engine seam.
type enginePredictor struct{ p Predictor }

func (a enginePredictor) Name() string { return a.p.Name() }
func (a enginePredictor) Predict(t trace.Task) float64 {
	return a.p.Predict(taskView(t))
}

// StorageBackend is a pluggable checkpoint storage device. Begin starts
// one checkpoint write of memMB megabytes issued by hostID and returns
// its wall-clock cost plus a release function invoked when the
// operation's time has elapsed; contention-sensitive backends charge
// concurrent operations more.
//
// CheckpointCost and RestartCost are the steady-state planning
// constants C and R the policies consume; RestartCost is also what a
// task pays each time it restarts from an image on this backend.
// SharedAcrossHosts reports whether images written to this backend are
// restorable from any host (shared disk) or only the writing host
// (local ramdisk); it sets TaskOutcome.UsedSharedStorage.
//
// Backends are driven from a single simulation goroutine per run; a
// backend shared across sweep runs must be safe for concurrent use.
type StorageBackend interface {
	CheckpointCost(memMB float64) float64
	RestartCost(memMB float64) float64
	Begin(hostID int, memMB float64) (cost float64, release func())
	SharedAcrossHosts() bool
}

// backendAdapter adapts a public StorageBackend onto the internal
// storage seam, including the CostModel extension so the planner sees
// the backend's own constants.
type backendAdapter struct{ b StorageBackend }

func (a backendAdapter) Kind() storage.Kind {
	if a.b.SharedAcrossHosts() {
		return storage.KindDMNFS
	}
	return storage.KindLocal
}

func (a backendAdapter) Begin(hostID int, memMB float64) (float64, func()) {
	return a.b.Begin(hostID, memMB)
}

func (a backendAdapter) RestartCost(memMB float64) float64 { return a.b.RestartCost(memMB) }

func (a backendAdapter) PlannedCheckpointCost(memMB float64) float64 {
	return a.b.CheckpointCost(memMB)
}

func (a backendAdapter) PlannedRestartCost(memMB float64) float64 {
	return a.b.RestartCost(memMB)
}

// compile-time seam checks
var (
	_ core.Policy          = corePolicy{}
	_ engine.TaskEstimator = taskEstimator{}
	_ engine.Predictor     = enginePredictor{}
	_ storage.Backend      = backendAdapter{}
	_ storage.CostModel    = backendAdapter{}
	_ failure.Process      = processAdapter{}
)
