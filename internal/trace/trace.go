package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math"
	"strings"
)

// Trace is a workload trace in columnar form, the one copy of it in
// memory. Every job and every task has a dense uint32 handle in trace
// order, so the tasks of job j hold the handles
// [FirstTask[j], FirstTask[j+1]) in task order, and each field is a
// handle-indexed column. Every ID is a substring of one string arena.
//
// Handles are positional: they follow trace order and are never derived
// from the string IDs, so duplicate or arbitrarily named IDs cannot
// collide. The simulation hot path compares and hashes nothing but
// integers; IDs are read only at the serialization and reporting
// boundaries.
//
// A Trace is immutable once Generate or Read returns it. BatchJobs and
// Filter return views that select some of its jobs and share its
// columns, so a handle means the same task in a trace and in all of its
// views. Job and Task values exist only at the JSON-lines boundary and
// in the plug-in hooks (see Task).
type Trace struct {
	// Task columns, indexed by task handle.
	Len        []float64 // LengthSec
	Mem        []float64 // MemMB
	Seed       []uint64  // FailureSeed
	ChangeFrac []float64 // Change.AtFraction (meaningful iff ChangePrio != 0)
	Input      []float64 // InputUnits
	JobOf      []uint32  // owning job handle
	Prio       []int8    // Priority (1..12)
	ChangePrio []int8    // Change.NewPriority; 0 = no mid-run change

	// Job columns, indexed by job handle.
	Arrival []float64 // ArrivalSec
	// FirstTask has one entry per job plus one: job j owns task handles
	// [FirstTask[j], FirstTask[j+1]).
	FirstTask []uint32
	// Sequential reports the job structure (true = ST, false = BoT).
	Sequential []bool
	JobPrio    []int // Priority

	// ids holds every ID in handle order, each job's ID followed by its
	// tasks' IDs: job j's is string FirstTask[j]+j, task h's string
	// h+JobOf[h]+1, and string k is ids[idOff[k]:idOff[k+1]].
	ids   string
	idOff []uint32

	// jobs lists the selected job handles in trace order; nil selects
	// every job. tasks counts the selected jobs' tasks.
	jobs  []uint32
	tasks int
}

// NumJobs returns the number of selected jobs.
func (tr *Trace) NumJobs() int {
	if tr.jobs == nil {
		return len(tr.Arrival)
	}
	return len(tr.jobs)
}

// NumTasks returns the number of tasks of the selected jobs.
func (tr *Trace) NumTasks() int { return tr.tasks }

// Job returns the handle of the i-th selected job.
func (tr *Trace) Job(i int) uint32 {
	if tr.jobs == nil {
		return uint32(i)
	}
	return tr.jobs[i]
}

// Tasks yields the handle of every task of the selected jobs, in trace
// order.
func (tr *Trace) Tasks() iter.Seq[uint32] {
	return func(yield func(uint32) bool) {
		for i := 0; i < tr.NumJobs(); i++ {
			first, limit := tr.TasksOf(tr.Job(i))
			for h := first; h < limit; h++ {
				if !yield(h) {
					return
				}
			}
		}
	}
}

// TasksOf returns the handle range [first, limit) of job j's tasks.
func (tr *Trace) TasksOf(j uint32) (first, limit uint32) {
	return tr.FirstTask[j], tr.FirstTask[j+1]
}

// Structure returns job j's structure.
func (tr *Trace) Structure(j uint32) JobStructure {
	if tr.Sequential[j] {
		return Sequential
	}
	return BagOfTasks
}

// JobID returns job j's ID.
func (tr *Trace) JobID(j uint32) string { return tr.id(tr.FirstTask[j] + j) }

// TaskID returns task h's ID.
func (tr *Trace) TaskID(h uint32) string { return tr.id(h + tr.JobOf[h] + 1) }

func (tr *Trace) id(k uint32) string { return tr.ids[tr.idOff[k]:tr.idOff[k+1]] }

// Task returns task h as a value, the form the plug-in hooks and the
// JSON-lines boundary take; the simulation reads the columns instead.
func (tr *Trace) Task(h uint32) Task {
	j := tr.JobOf[h]
	return Task{
		ID:          tr.TaskID(h),
		JobID:       tr.JobID(j),
		Index:       int(h - tr.FirstTask[j]),
		Priority:    int(tr.Prio[h]),
		LengthSec:   tr.Len[h],
		MemMB:       tr.Mem[h],
		InputUnits:  tr.Input[h],
		FailureSeed: tr.Seed[h],
		Change:      PriorityChange{AtFraction: tr.ChangeFrac[h], NewPriority: int(tr.ChangePrio[h])},
	}
}

// CriticalPath returns job j's failure-free makespan: the sum of its
// task lengths for an ST job, the longest task for a BoT job.
func (tr *Trace) CriticalPath(j uint32) float64 {
	first, limit := tr.TasksOf(j)
	var sum, longest float64
	for _, l := range tr.Len[first:limit] {
		sum += l
		longest = max(longest, l)
	}
	if tr.Sequential[j] {
		return sum
	}
	return longest
}

// MaxMem returns the largest task memory footprint of job j.
func (tr *Trace) MaxMem(j uint32) float64 {
	first, limit := tr.TasksOf(j)
	var m float64
	for _, mem := range tr.Mem[first:limit] {
		m = max(m, mem)
	}
	return m
}

// IsService reports whether job j belongs to the long-running service
// tier (critical path beyond the 6-hour batch ceiling). Service jobs
// feed the failure-history estimator but are not part of the replayed
// experiment workload, mirroring how the paper estimates statistics
// from the full month-long trace while replaying sampled batch jobs.
func (tr *Trace) IsService(j uint32) bool { return tr.CriticalPath(j) > 6*3600 }

// Filter returns a view of the selected jobs satisfying keep, in order.
// The view shares the trace's columns; only its job selection is new.
func (tr *Trace) Filter(keep func(j uint32) bool) *Trace {
	out := *tr
	out.jobs, out.tasks = make([]uint32, 0), 0
	for i := 0; i < tr.NumJobs(); i++ {
		if j := tr.Job(i); keep(j) {
			out.jobs = append(out.jobs, j)
			out.tasks += int(tr.FirstTask[j+1] - tr.FirstTask[j])
		}
	}
	return &out
}

// BatchJobs returns the replayable experiment workload: a view of every
// job that is not a long-running service.
func (tr *Trace) BatchJobs() *Trace {
	return tr.Filter(func(j uint32) bool { return !tr.IsService(j) })
}

// Write serializes the selected jobs as JSON lines, one job per line,
// so large traces stream without holding the full encoding in memory.
func (tr *Trace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	var job Job
	for i := 0; i < tr.NumJobs(); i++ {
		j := tr.Job(i)
		first, limit := tr.TasksOf(j)
		job = Job{
			ID:         tr.JobID(j),
			Structure:  tr.Structure(j),
			ArrivalSec: tr.Arrival[j],
			Priority:   tr.JobPrio[j],
			Tasks:      job.Tasks[:0],
		}
		for h := first; h < limit; h++ {
			job.Tasks = append(job.Tasks, tr.Task(h))
		}
		if err := enc.Encode(&job); err != nil {
			return fmt.Errorf("trace: encode job %s: %w", job.ID, err)
		}
	}
	return nil
}

// Read parses a JSON-lines trace written by Write, validating each job
// and the arrival order as it goes.
func Read(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	tr := &Trace{FirstTask: []uint32{0}, idOff: []uint32{0}}
	var ids strings.Builder
	for {
		// A fresh value per line: decoding into a reused slice would
		// merge each element into the previous line's task.
		var j Job
		if err := dec.Decode(&j); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: decode: %w", err)
		}
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if n := len(tr.Arrival); n > 0 && j.ArrivalSec < tr.Arrival[n-1] {
			return nil, fmt.Errorf("trace: job %s arrives at %v before predecessor at %v", j.ID, j.ArrivalSec, tr.Arrival[n-1])
		}
		if err := tr.add(&j, &ids); err != nil {
			return nil, err
		}
	}
	tr.ids = ids.String()
	tr.tasks = len(tr.Len)
	return tr, nil
}

// add appends a validated job to the columns and its IDs to ids.
func (tr *Trace) add(j *Job, ids *strings.Builder) error {
	idBytes := len(j.ID)
	for k := range j.Tasks {
		idBytes += len(j.Tasks[k].ID)
	}
	if uint64(len(tr.Len)+len(j.Tasks)) > math.MaxUint32 || uint64(ids.Len()+idBytes) > math.MaxUint32 {
		return fmt.Errorf("trace: job %s overflows the 32-bit task handles or ID offsets", j.ID)
	}
	jh := uint32(len(tr.Arrival))
	tr.Arrival = append(tr.Arrival, j.ArrivalSec)
	tr.Sequential = append(tr.Sequential, j.Structure == Sequential)
	tr.JobPrio = append(tr.JobPrio, j.Priority)
	ids.WriteString(j.ID)
	tr.idOff = append(tr.idOff, uint32(ids.Len()))
	for k := range j.Tasks {
		t := &j.Tasks[k]
		tr.Len = append(tr.Len, t.LengthSec)
		tr.Mem = append(tr.Mem, t.MemMB)
		tr.Seed = append(tr.Seed, t.FailureSeed)
		tr.ChangeFrac = append(tr.ChangeFrac, t.Change.AtFraction)
		tr.Input = append(tr.Input, t.InputUnits)
		tr.JobOf = append(tr.JobOf, jh)
		tr.Prio = append(tr.Prio, int8(t.Priority))
		tr.ChangePrio = append(tr.ChangePrio, int8(t.Change.NewPriority))
		ids.WriteString(t.ID)
		tr.idOff = append(tr.idOff, uint32(ids.Len()))
	}
	tr.FirstTask = append(tr.FirstTask, uint32(len(tr.Len)))
	return nil
}
