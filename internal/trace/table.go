package trace

// Table is the columnar, handle-indexed view of a trace that the
// simulation hot path runs on. Building it assigns every task and job a
// dense uint32 handle — tasks in job order, then task order, so the
// tasks of job j occupy the contiguous handle range
// [FirstTask[j], FirstTask[j+1]) — and copies the hot per-task fields
// (length, memory, priority, failure seed, priority-change point) into
// struct-of-arrays columns.
//
// Handles are purely positional: they are assigned by trace position,
// never derived from the string IDs, so duplicate or arbitrarily named
// IDs cannot collide. String IDs live only in the intern tables behind
// Task/Job/TaskID/JobID, which the serialization and reporting
// boundaries consult; the event loop itself compares and hashes nothing
// but integers.
type Table struct {
	// Task columns, indexed by task handle.
	Len        []float64 // LengthSec
	Mem        []float64 // MemMB
	Seed       []uint64  // FailureSeed
	ChangeFrac []float64 // Change.AtFraction (meaningful iff ChangePrio != 0)
	JobOf      []uint32  // owning job handle
	Prio       []int8    // Priority (1..12)
	ChangePrio []int8    // Change.NewPriority; 0 = no mid-run change

	// Job columns, indexed by job handle.
	Arrival []float64 // ArrivalSec
	// FirstTask has NumJobs+1 entries: job j owns task handles
	// [FirstTask[j], FirstTask[j+1]).
	FirstTask []uint32
	// Sequential reports the job structure (true = ST, false = BoT).
	Sequential []bool

	// Intern tables: the boundary back to the pointer/string world.
	tasks []*Task
	jobs  []*Job
}

// BuildTable constructs the columnar view of a trace. The trace is
// shared, not copied: Task/Job return the trace's own objects.
func BuildTable(tr *Trace) *Table {
	nJobs := len(tr.Jobs)
	nTasks := 0
	for _, j := range tr.Jobs {
		nTasks += len(j.Tasks)
	}
	tb := &Table{
		Len:        make([]float64, nTasks),
		Mem:        make([]float64, nTasks),
		Seed:       make([]uint64, nTasks),
		ChangeFrac: make([]float64, nTasks),
		JobOf:      make([]uint32, nTasks),
		Prio:       make([]int8, nTasks),
		ChangePrio: make([]int8, nTasks),
		Arrival:    make([]float64, nJobs),
		FirstTask:  make([]uint32, nJobs+1),
		Sequential: make([]bool, nJobs),
		tasks:      make([]*Task, nTasks),
		jobs:       make([]*Job, nJobs),
	}
	h := uint32(0)
	for ji, job := range tr.Jobs {
		tb.jobs[ji] = job
		tb.Arrival[ji] = job.ArrivalSec
		tb.Sequential[ji] = job.Structure == Sequential
		tb.FirstTask[ji] = h
		for _, t := range job.Tasks {
			tb.tasks[h] = t
			tb.Len[h] = t.LengthSec
			tb.Mem[h] = t.MemMB
			tb.Seed[h] = t.FailureSeed
			tb.Prio[h] = int8(t.Priority)
			if t.Change.Active() {
				tb.ChangePrio[h] = int8(t.Change.NewPriority)
				tb.ChangeFrac[h] = t.Change.AtFraction
			}
			tb.JobOf[h] = uint32(ji)
			h++
		}
	}
	tb.FirstTask[nJobs] = h
	return tb
}

// NumTasks returns the number of task handles (0..NumTasks-1 are valid).
func (tb *Table) NumTasks() int { return len(tb.tasks) }

// NumJobs returns the number of job handles.
func (tb *Table) NumJobs() int { return len(tb.jobs) }

// Task returns the interned task for a handle — the boundary back to
// the string-ID world; hot paths should read the columns instead.
func (tb *Table) Task(h uint32) *Task { return tb.tasks[h] }

// Job returns the interned job for a job handle.
func (tb *Table) Job(j uint32) *Job { return tb.jobs[j] }

// TaskID returns the interned string ID for a task handle.
func (tb *Table) TaskID(h uint32) string { return tb.tasks[h].ID }

// TasksOf returns the handle range [first, limit) of a job's tasks.
func (tb *Table) TasksOf(j uint32) (first, limit uint32) {
	return tb.FirstTask[j], tb.FirstTask[j+1]
}
