package sim

import (
	"fmt"
	"io"

	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/tables"
	"repro/internal/trace"
)

// Workload declares a synthetic Google-like trace as an overlay on the
// paper's defaults: the zero value is the default mix at the caller's
// default scale, and zero fields inherit the generator defaults.
//
//   - Jobs is the trace size; 0 defers to WithJobs / sweep defaults.
//   - ArrivalRate overrides the default 0.12 jobs/s when positive.
//   - BoTFraction overrides the default 0.45 bag-of-tasks share when
//     non-zero; pass a negative value for a pure sequential-task mix.
//   - MaxTaskLengthSec / MinTaskLengthSec bound task lengths (0 keeps
//     the generator defaults of 6 h and 30 s).
//   - MaxTaskMemMB / MinTaskMemMB bound per-task memory demands (0
//     keeps the generator defaults of 1000 and 10 MB).
//   - PriorityChangeFraction is the share of tasks whose priority flips
//     mid-execution (the paper's Figure 14 scenario).
//   - ServiceFraction is the share of long-running service jobs; 0
//     keeps the default 0.06, negative disables services.
type Workload = scenario.Workload

// TraceConfig parameterizes direct trace generation (GenerateTrace).
// Unlike Workload, its fields are absolute: a zero BoTFraction means no
// bag-of-tasks jobs, not "the default share". Zero task-length and
// memory bounds still mean the generator defaults (30 s to 6 h, 10 to
// 1000 MB), and a zero ServiceFraction the default 0.06.
type TraceConfig = trace.GenConfig

// DefaultTraceConfig returns the configuration the headline experiments
// generate from: the paper's Figure 8 mixes and magnitudes.
func DefaultTraceConfig(seed uint64, jobs int) TraceConfig {
	return trace.DefaultGenConfig(seed, jobs)
}

// Trace is an immutable workload trace: jobs of sequential tasks (ST)
// or bags of tasks (BoT) with per-task priority, memory, length, and a
// seeded failure process.
type Trace struct {
	tr *trace.Trace
}

// GenerateTrace produces a synthetic trace per cfg; the result is valid
// by construction. It rejects configurations the generator cannot
// honor (see TraceConfig.Validate) and more than MaxSpecJobs jobs.
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	if err := checkTraceConfig(cfg); err != nil {
		return nil, fmt.Errorf("sim: GenerateTrace: %w", err)
	}
	return &Trace{tr: trace.Generate(cfg)}, nil
}

// checkTraceConfig refuses what the generator would (cfg.Validate) and
// more than MaxSpecJobs jobs.
func checkTraceConfig(cfg TraceConfig) error {
	if err := checkJobs("Jobs", cfg.Jobs); err != nil {
		return err
	}
	return cfg.Validate()
}

// ReadTrace parses a JSON-lines trace written by Write and validates
// it.
func ReadTrace(r io.Reader) (*Trace, error) {
	tr, err := trace.Read(r)
	if err != nil {
		return nil, err
	}
	return &Trace{tr: tr}, nil
}

// Write serializes the trace as JSON lines, one job per line.
func (t *Trace) Write(w io.Writer) error { return t.tr.Write(w) }

// NumJobs returns the number of jobs in the trace.
func (t *Trace) NumJobs() int { return t.tr.NumJobs() }

// NumTasks returns the number of tasks across all jobs.
func (t *Trace) NumTasks() int { return t.tr.NumTasks() }

// FailureIntervals collects uninterrupted work intervals over every
// task's failure process — the sample the paper's Figure 5 distribution
// fits consume. A positive maxIntervalSec keeps only intervals at or
// below it (the paper's short-interval truncation).
func (t *Trace) FailureIntervals(maxIntervalSec float64) []float64 {
	return trace.FailureIntervalSamples(t.tr, maxIntervalSec)
}

// TraceSummary holds a trace's headline statistics (the Figure 8
// calibration view).
type TraceSummary struct {
	Jobs           int     `json:"jobs"`
	Tasks          int     `json:"tasks"`
	SequentialJobs int     `json:"st_jobs"`
	BagOfTasksJobs int     `json:"bot_jobs"`
	TaskLength     Summary `json:"task_length"`
	TaskMemory     Summary `json:"task_memory"`
	// JobsByPriority maps each priority (1 to 12) to its job count;
	// priorities with no jobs are omitted.
	JobsByPriority map[int]int `json:"jobs_by_priority"`
}

// Summary computes the trace's summary statistics.
func (t *Trace) Summary() TraceSummary {
	ts := TraceSummary{JobsByPriority: make(map[int]int)}
	for i := 0; i < t.tr.NumJobs(); i++ {
		j := t.tr.Job(i)
		if t.tr.Sequential[j] {
			ts.SequentialJobs++
		} else {
			ts.BagOfTasksJobs++
		}
		ts.JobsByPriority[t.tr.JobPrio[j]]++
		ts.Jobs++
	}
	lens := make([]float64, 0, t.tr.NumTasks())
	mems := make([]float64, 0, t.tr.NumTasks())
	for h := range t.tr.Tasks() {
		lens = append(lens, t.tr.Len[h])
		mems = append(mems, t.tr.Mem[h])
	}
	ts.Tasks = len(lens)
	ts.TaskLength = stats.Summarize(lens)
	ts.TaskMemory = stats.Summarize(mems)
	return ts
}

// String renders the summary as the tracegen calibration tables.
func (ts TraceSummary) String() string {
	t := &tables.Table{
		Title:   "trace summary",
		Headers: []string{"metric", "value"},
	}
	t.AddRowValues("jobs", ts.Jobs)
	t.AddRowValues("tasks", ts.Tasks)
	t.AddRowValues("ST jobs", ts.SequentialJobs)
	t.AddRowValues("BoT jobs", ts.BagOfTasksJobs)
	t.AddRowValues("task length median (s)", ts.TaskLength.Median)
	t.AddRowValues("task length p95 (s)", ts.TaskLength.P95)
	t.AddRowValues("task memory median (MB)", ts.TaskMemory.Median)
	t.AddRowValues("task memory p95 (MB)", ts.TaskMemory.P95)

	pt := &tables.Table{
		Title:   "jobs by priority",
		Headers: []string{"priority", "jobs"},
	}
	for _, p := range trace.PriorityOrder {
		if ts.JobsByPriority[p] > 0 {
			pt.AddRowValues(p, ts.JobsByPriority[p])
		}
	}
	return t.String() + pt.String()
}

// String identifies the trace briefly.
func (t *Trace) String() string {
	return fmt.Sprintf("trace(%d jobs, %d tasks)", t.NumJobs(), t.NumTasks())
}
