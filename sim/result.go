package sim

import (
	"repro/internal/engine"
	"repro/internal/stats"
)

// TaskOutcome is one task's execution record, decomposing wall-clock
// time exactly as the paper's Formula 1: productive time, checkpoint
// overhead, rollback and restart losses, and waiting. The engine writes
// each record once, when its task completes.
type TaskOutcome = engine.TaskOutcome

// JobOutcome is one job's execution record; its Tasks are in completion
// order.
type JobOutcome = engine.JobOutcome

// ResultSummary aggregates a run for at-a-glance consumption.
type ResultSummary struct {
	Jobs  int `json:"jobs"`
	Tasks int `json:"tasks"`
	// MeanWPR averages per-job WPR over all jobs; MeanWPRFailing over
	// jobs that experienced at least one failure (the population the
	// paper's WPR plots focus on).
	MeanWPR        float64 `json:"mean_wpr"`
	MeanWPRFailing float64 `json:"mean_wpr_failing"`
	FailingJobs    int     `json:"failing_jobs"`
	Failures       int     `json:"failures"`
	Checkpoints    int     `json:"checkpoints"`
	// CheckpointCostSec sums blocking checkpoint write time across all
	// tasks; RestartCostSec and RollbackLossSec likewise.
	CheckpointCostSec float64 `json:"checkpoint_cost_sec"`
	RestartCostSec    float64 `json:"restart_cost_sec"`
	RollbackLossSec   float64 `json:"rollback_loss_sec"`
}

// Result is the stable outcome of one simulation run. It marshals to
// JSON as-is, so results can feed non-Go tooling directly.
type Result struct {
	// EngineVersion is the sim.Version the run executed under, stamped
	// so archived results declare which engine produced them.
	EngineVersion string `json:"engine_version"`
	// Policy is the planning policy's display name.
	Policy string `json:"policy"`
	// MakespanSec is the simulated time at which all jobs finished.
	MakespanSec float64 `json:"makespan_sec"`
	// Events is the number of simulation events executed.
	Events  uint64        `json:"events"`
	Summary ResultSummary `json:"summary"`
	Jobs    []JobOutcome  `json:"jobs"`
}

// newResult wraps an engine result in the public form. The task
// records are the engine's own: each JobOutcome's Tasks is its job's
// window of the engine's task slab, not a copy.
func newResult(res *engine.Result) *Result {
	out := &Result{
		EngineVersion: Version,
		Policy:        res.PolicyName,
		MakespanSec:   res.MakespanSec,
		Events:        res.Events,
		Jobs:          make([]JobOutcome, len(res.Jobs)),
	}
	s := &out.Summary
	var wprAll, wprFailing float64
	for i, jr := range res.Jobs {
		jo := &out.Jobs[i]
		*jo = JobOutcome{
			ID:         jr.ID,
			Structure:  jr.Structure.String(),
			Priority:   jr.Priority,
			ArrivalSec: jr.ArrivalSec,
			DoneAt:     jr.DoneAt,
			WallSec:    jr.Wall(),
			WPR:        jr.WPR(),
			Failures:   jr.Failures(),
			Tasks:      jr.Tasks,
		}
		for k := range jr.Tasks {
			t := &jr.Tasks[k]
			s.Checkpoints += t.Checkpoints
			s.CheckpointCostSec += t.CheckpointCostSec
			s.RestartCostSec += t.RestartCostSec
			s.RollbackLossSec += t.RollbackLossSec
		}
		s.Tasks += len(jr.Tasks)
		s.Jobs++
		s.Failures += jo.Failures
		wprAll += jo.WPR
		if jo.Failures > 0 {
			s.FailingJobs++
			wprFailing += jo.WPR
		}
	}
	if s.Jobs > 0 {
		s.MeanWPR = wprAll / float64(s.Jobs)
	}
	if s.FailingJobs > 0 {
		s.MeanWPRFailing = wprFailing / float64(s.FailingJobs)
	}
	return out
}

// MeanWPR returns the average per-job WPR over all jobs (0 when the
// run replayed no jobs).
func (r *Result) MeanWPR() float64 { return r.Summary.MeanWPR }

// MeanWPRFailing returns the average per-job WPR over jobs that
// experienced at least one failure.
func (r *Result) MeanWPRFailing() float64 { return r.Summary.MeanWPRFailing }

// Failures returns the run's total failure count.
func (r *Result) Failures() int { return r.Summary.Failures }

// JobWPRs returns the per-job WPR values, optionally restricted to
// jobs that experienced at least one failure.
func (r *Result) JobWPRs(onlyFailing bool) []float64 {
	var out []float64
	for _, j := range r.Jobs {
		if onlyFailing && j.Failures == 0 {
			continue
		}
		out = append(out, j.WPR)
	}
	return out
}

// Summary holds order statistics of a sample (population standard
// deviation).
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Std    float64
	Median float64
	P25    float64
	P75    float64
	P05    float64
	P95    float64
}

// Summarize computes order statistics of a sample; the zero Summary is
// returned for an empty one.
func Summarize(xs []float64) Summary { return Summary(stats.Summarize(xs)) }
