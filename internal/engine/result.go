package engine

import (
	"fmt"

	"repro/internal/jsonenc"
	"repro/internal/simeng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TaskOutcome is one task's execution record, decomposing wall-clock
// time exactly as the paper's Formula 1: productive time, checkpoint
// overhead, rollback and restart losses, and waiting. The engine writes
// each record once, when its task completes; the sim package hands the
// same records out in its public Result.
type TaskOutcome struct {
	ID        string  `json:"id"`
	LengthSec float64 `json:"length_sec"`
	MemMB     float64 `json:"mem_mb"`
	// SubmitAt / StartAt / DoneAt are simulated timestamps (seconds).
	SubmitAt float64 `json:"submit_at"`
	StartAt  float64 `json:"start_at"`
	DoneAt   float64 `json:"done_at"`
	// Failures counts failure events; Checkpoints counts completed
	// checkpoint images.
	Failures    int `json:"failures"`
	Checkpoints int `json:"checkpoints"`
	// RollbackLossSec is productive time lost to rollbacks;
	// CheckpointCostSec is blocking checkpoint write time;
	// HiddenCheckpointCostSec is non-blocking write time overlapped
	// with computation (Algorithm 1 line 7); RestartCostSec is restart
	// time; WaitSec is time spent queued for resources (initial queueing
	// plus queueing before restarts).
	RollbackLossSec         float64 `json:"rollback_loss_sec"`
	CheckpointCostSec       float64 `json:"checkpoint_cost_sec"`
	HiddenCheckpointCostSec float64 `json:"hidden_checkpoint_cost_sec,omitempty"`
	RestartCostSec          float64 `json:"restart_cost_sec"`
	WaitSec                 float64 `json:"wait_sec"`
	// Priority is the trace's 1..12; it shares a word with
	// UsedSharedStorage, which reports whether checkpoints went to the
	// shared backend.
	Priority          int8 `json:"priority"`
	UsedSharedStorage bool `json:"used_shared_storage"`
}

// WallSec is the task's wall-clock time Tw, DoneAt-StartAt.
func (t TaskOutcome) WallSec() float64 { return t.DoneAt - t.StartAt }

// WPR is the task-level workload-processing ratio Te/Tw of Formula 9,
// LengthSec/WallSec.
func (t TaskOutcome) WPR() float64 { return t.LengthSec / t.WallSec() }

// MarshalJSON writes the record as one JSON object, the derived
// wall_sec and wpr after done_at. Its receiver is a value, so a record
// json.Marshal cannot address writes them too.
func (t TaskOutcome) MarshalJSON() ([]byte, error) {
	var e jsonenc.Encoder
	t.appendJSON(&e)
	return e.Buf, e.Err
}

func (t *TaskOutcome) appendJSON(e *jsonenc.Encoder) {
	e.String(`{"id":`, t.ID)
	e.Int(`,"priority":`, int(t.Priority))
	e.Float(`,"length_sec":`, t.LengthSec)
	e.Float(`,"mem_mb":`, t.MemMB)
	e.Float(`,"submit_at":`, t.SubmitAt)
	e.Float(`,"start_at":`, t.StartAt)
	e.Float(`,"done_at":`, t.DoneAt)
	e.Float(`,"wall_sec":`, t.WallSec())
	e.Float(`,"wpr":`, t.WPR())
	e.Int(`,"failures":`, t.Failures)
	e.Int(`,"checkpoints":`, t.Checkpoints)
	e.Float(`,"rollback_loss_sec":`, t.RollbackLossSec)
	e.Float(`,"checkpoint_cost_sec":`, t.CheckpointCostSec)
	if t.HiddenCheckpointCostSec != 0 {
		e.Float(`,"hidden_checkpoint_cost_sec":`, t.HiddenCheckpointCostSec)
	}
	e.Float(`,"restart_cost_sec":`, t.RestartCostSec)
	e.Float(`,"wait_sec":`, t.WaitSec)
	e.Bool(`,"used_shared_storage":`, t.UsedSharedStorage)
	e.Raw(`}`)
}

// JobOutcome is one job's execution record. The engine writes it once,
// when the job's last task completes; the sim package hands the same
// records out in its public Result.
type JobOutcome struct {
	ID string `json:"id"`
	// Structure is "ST" (sequential tasks) or "BoT" (bag of tasks).
	Structure  string  `json:"structure"`
	Priority   int     `json:"priority"`
	ArrivalSec float64 `json:"arrival_sec"`
	DoneAt     float64 `json:"done_at"`
	// WPR is the job's Workload-Processing Ratio (Formula 9 aggregated
	// over tasks).
	WPR      float64       `json:"wpr"`
	Failures int           `json:"failures"`
	Tasks    []TaskOutcome `json:"tasks"`
}

// WallSec is the job's time from submission to final completion,
// DoneAt-ArrivalSec — the denominator of the paper's Formula 9 for
// makespan plots (Figures 12-13).
func (j JobOutcome) WallSec() float64 { return j.DoneAt - j.ArrivalSec }

// MarshalJSON writes the record as one JSON object, the derived
// wall_sec after done_at. Its receiver is a value, so a record
// json.Marshal cannot address writes it too.
func (j JobOutcome) MarshalJSON() ([]byte, error) {
	var e jsonenc.Encoder
	j.appendJSON(&e)
	return e.Buf, e.Err
}

func (j *JobOutcome) appendJSON(e *jsonenc.Encoder) {
	e.String(`{"id":`, j.ID)
	e.String(`,"structure":`, j.Structure)
	e.Int(`,"priority":`, j.Priority)
	e.Float(`,"arrival_sec":`, j.ArrivalSec)
	e.Float(`,"done_at":`, j.DoneAt)
	e.Float(`,"wall_sec":`, j.WallSec())
	e.Float(`,"wpr":`, j.WPR)
	e.Int(`,"failures":`, j.Failures)
	if j.Tasks == nil {
		e.Raw(`,"tasks":null}`)
		return
	}
	e.Raw(`,"tasks":[`)
	for i := range j.Tasks {
		if i > 0 {
			e.Raw(",")
		}
		j.Tasks[i].appendJSON(e)
	}
	e.Raw("]}")
}

// AppendJobsJSON appends jobs as json.Marshal writes the slice: null
// when it is nil, else an array of the records' MarshalJSON documents.
func AppendJobsJSON(e *jsonenc.Encoder, jobs []JobOutcome) {
	if jobs == nil {
		e.Raw("null")
		return
	}
	e.Raw("[")
	for i := range jobs {
		if i > 0 {
			e.Raw(",")
		}
		jobs[i].appendJSON(e)
	}
	e.Raw("]")
}

// finish writes the job's aggregates once its last task has completed
// at now. WPR is the job's processed workload over the wall-clock
// lengths of its tasks,
//
//	WPR(J) = sum_t Te(t) / sum_t Tw(t),
//
// so that a job whose tasks all run failure- and overhead-free scores
// 1.0 regardless of intra-job parallelism. This is Formula 9 evaluated
// per task and aggregated, the natural reading under which the paper's
// BoT WPR values stay below 1. Failures is the tasks' total.
func (j *JobOutcome) finish(now float64) {
	j.DoneAt = now
	var te, tw float64
	for i := range j.Tasks {
		t := &j.Tasks[i]
		te += t.LengthSec
		tw += t.WallSec()
		j.Failures += t.Failures
	}
	j.WPR = 1
	if tw > 0 {
		j.WPR = te / tw
	}
}

// Result is the outcome of a full engine run.
type Result struct {
	PolicyName string
	// Jobs are the replayed jobs' records, in replay order.
	Jobs []JobOutcome
	// MakespanSec is the simulated time at which all jobs finished.
	MakespanSec float64
	// Events is the number of simulation events executed.
	Events uint64
	// Queue reports the event core's internal statistics for the run:
	// peak live queue depth, bucket geometry, worst single-bucket batch,
	// and structural-maintenance counts (see simeng.QueueStats).
	Queue simeng.QueueStats
	// PeakLiveSlots is the most tasks holding run state at once (started
	// and not yet complete); PeakQueuedPlans is the most fresh tasks
	// queued at once, each holding only its checkpoint plan. Both are
	// deterministic, so they size the engine's per-task memory.
	PeakLiveSlots   int
	PeakQueuedPlans int
}

// JobWPRs returns the per-job WPR values, optionally filtered.
func (r *Result) JobWPRs(keep func(*JobOutcome) bool) []float64 {
	var out []float64
	for i := range r.Jobs {
		if j := &r.Jobs[i]; keep == nil || keep(j) {
			out = append(out, j.WPR)
		}
	}
	return out
}

// JobWalls returns the per-job wall-clock lengths, optionally filtered.
func (r *Result) JobWalls(keep func(*JobOutcome) bool) []float64 {
	var out []float64
	for i := range r.Jobs {
		if j := &r.Jobs[i]; keep == nil || keep(j) {
			out = append(out, j.WallSec())
		}
	}
	return out
}

// MeanWPR returns the average per-job WPR, optionally filtered; it
// returns 0 for an empty selection.
func (r *Result) MeanWPR(keep func(*JobOutcome) bool) float64 {
	return stats.Mean(r.JobWPRs(keep))
}

// ByStructure filters jobs by structure.
func ByStructure(s trace.JobStructure) func(*JobOutcome) bool {
	name := s.String()
	return func(j *JobOutcome) bool { return j.Structure == name }
}

// ByPriority filters jobs by priority.
func ByPriority(p int) func(*JobOutcome) bool {
	return func(j *JobOutcome) bool { return j.Priority == p }
}

// WithFailures filters jobs that experienced at least one failure — the
// population the paper's WPR plots focus on ("only jobs half of whose
// tasks at least suffer from a failure event" are selected as samples;
// we keep all failure-affected jobs, the same spirit with a simpler
// membership rule).
func WithFailures(j *JobOutcome) bool { return j.Failures > 0 }

// ByMaxTaskLength filters jobs whose longest task is at most limit
// seconds — the paper's "restricted length" (RL) populations of
// Figures 11-12.
func ByMaxTaskLength(limit float64) func(*JobOutcome) bool {
	return func(j *JobOutcome) bool {
		for i := range j.Tasks {
			if j.Tasks[i].LengthSec > limit {
				return false
			}
		}
		return true
	}
}

// And combines filters conjunctively.
func And(fs ...func(*JobOutcome) bool) func(*JobOutcome) bool {
	return func(j *JobOutcome) bool {
		for _, f := range fs {
			if !f(j) {
				return false
			}
		}
		return true
	}
}

// PairJobs aligns two results from the same trace job-by-job for paired
// comparisons (Figure 13). It errors if the results cover different
// job sets.
func PairJobs(a, b *Result) ([][2]*JobOutcome, error) {
	if len(a.Jobs) != len(b.Jobs) {
		return nil, fmt.Errorf("engine: results cover %d vs %d jobs", len(a.Jobs), len(b.Jobs))
	}
	pairs := make([][2]*JobOutcome, len(a.Jobs))
	for i := range a.Jobs {
		if a.Jobs[i].ID != b.Jobs[i].ID {
			return nil, fmt.Errorf("engine: job order mismatch at %d: %s vs %s",
				i, a.Jobs[i].ID, b.Jobs[i].ID)
		}
		pairs[i] = [2]*JobOutcome{&a.Jobs[i], &b.Jobs[i]}
	}
	return pairs, nil
}
