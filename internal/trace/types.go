package trace

import (
	"encoding/json"
	"fmt"
)

// JobStructure distinguishes the two job shapes in the Google trace.
type JobStructure int

const (
	// Sequential jobs (ST) run their tasks one after another.
	Sequential JobStructure = iota
	// BagOfTasks jobs (BoT) run their tasks in parallel, MapReduce-like.
	BagOfTasks
)

func (s JobStructure) String() string {
	if s == Sequential {
		return "ST"
	}
	return "BoT"
}

// MarshalJSON encodes the structure as its short paper name.
func (s JobStructure) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes "ST" or "BoT".
func (s *JobStructure) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "ST":
		*s = Sequential
	case "BoT":
		*s = BagOfTasks
	default:
		return fmt.Errorf("trace: unknown job structure %q", v)
	}
	return nil
}

// PriorityChange records a mid-execution priority flip: when the task
// has completed AtFraction of its productive work, its priority (and
// hence failure distribution) becomes NewPriority. The zero value means
// "no change".
type PriorityChange struct {
	AtFraction  float64 `json:"at_fraction,omitempty"`
	NewPriority int     `json:"new_priority,omitempty"`
}

// Active reports whether a change is scheduled.
func (pc PriorityChange) Active() bool { return pc.NewPriority != 0 }

// Task is one unit of execution inside a job, as it appears at the
// JSON-lines boundary and in the plug-in hooks. A Trace stores no Task:
// Trace.Task builds one from the columns on demand.
type Task struct {
	ID    string `json:"id"`
	JobID string `json:"job_id"`
	// Index is the task's position within its job.
	Index    int `json:"index"`
	Priority int `json:"priority"` // 1 (lowest) .. 12 (highest)
	// LengthSec is the productive execution time Te in seconds,
	// excluding all fault-tolerance overheads.
	LengthSec float64 `json:"length_sec"`
	// MemMB is the task memory footprint, which determines its
	// checkpoint/restart costs.
	MemMB float64 `json:"mem_mb"`
	// InputUnits is the task's input-size feature, the quantity the
	// paper's job parser feeds to a workload predictor (polynomial
	// regression, ref [22]). The generator derives it so that
	// LengthSec is approximately quadratic in InputUnits with noise;
	// 0 means unknown.
	InputUnits float64 `json:"input_units,omitempty"`
	// FailureSeed seeds the task's failure process so that repeated
	// runs (e.g. under different policies) see identical failures.
	FailureSeed uint64 `json:"failure_seed"`
	// Change optionally flips the task's priority mid-execution.
	Change PriorityChange `json:"change,omitempty"`
}

// Validate checks task invariants.
func (t *Task) Validate() error {
	if t.Priority < 1 || t.Priority > 12 {
		return fmt.Errorf("trace: task %s priority %d outside 1..12", t.ID, t.Priority)
	}
	if !(t.LengthSec > 0) {
		return fmt.Errorf("trace: task %s has non-positive length %v", t.ID, t.LengthSec)
	}
	if !(t.MemMB > 0) {
		return fmt.Errorf("trace: task %s has non-positive memory %v", t.ID, t.MemMB)
	}
	if t.Change.Active() {
		if t.Change.NewPriority < 1 || t.Change.NewPriority > 12 {
			return fmt.Errorf("trace: task %s change priority %d outside 1..12", t.ID, t.Change.NewPriority)
		}
		if t.Change.AtFraction <= 0 || t.Change.AtFraction >= 1 {
			return fmt.Errorf("trace: task %s change fraction %v outside (0,1)", t.ID, t.Change.AtFraction)
		}
	}
	return nil
}

// Job is one line of a JSON-lines trace: a user request consisting of
// one or more tasks. Read decodes each line into a Job and Write encodes
// each job of a Trace through one; no Trace keeps them.
type Job struct {
	ID         string       `json:"id"`
	Structure  JobStructure `json:"structure"`
	ArrivalSec float64      `json:"arrival_sec"`
	Priority   int          `json:"priority"`
	Tasks      []Task       `json:"tasks"`
}

// Validate checks job invariants including all tasks. A task's job_id
// and index are redundant with its place in the trace, so they must
// agree with it.
func (j *Job) Validate() error {
	if len(j.Tasks) == 0 {
		return fmt.Errorf("trace: job %s has no tasks", j.ID)
	}
	if j.ArrivalSec < 0 {
		return fmt.Errorf("trace: job %s has negative arrival %v", j.ID, j.ArrivalSec)
	}
	if j.Priority < 1 || j.Priority > 12 {
		return fmt.Errorf("trace: job %s priority %d outside 1..12", j.ID, j.Priority)
	}
	for k := range j.Tasks {
		t := &j.Tasks[k]
		if t.JobID != j.ID {
			// A null task decodes as a zero Task and fails here.
			return fmt.Errorf("trace: task %d (%q) of job %s claims job %q", k, t.ID, j.ID, t.JobID)
		}
		if t.Index != k {
			return fmt.Errorf("trace: task %s has index %d at position %d of job %s", t.ID, t.Index, k, j.ID)
		}
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}
