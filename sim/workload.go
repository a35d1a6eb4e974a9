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
type Workload struct {
	// Jobs is the trace size; 0 defers to WithJobs / sweep defaults.
	Jobs int
	// ArrivalRate overrides the default 0.12 jobs/s when positive.
	ArrivalRate float64
	// BoTFraction overrides the default 0.45 bag-of-tasks share when
	// non-zero; pass a negative value for a pure sequential-task mix.
	BoTFraction float64
	// MaxTaskLengthSec / MinTaskLengthSec bound task lengths (0 keeps
	// the generator defaults of 6 h and 30 s).
	MaxTaskLengthSec float64
	MinTaskLengthSec float64
	// MaxTaskMemMB / MinTaskMemMB bound per-task memory demands (0
	// keeps the generator defaults of 1000 and 10 MB).
	MaxTaskMemMB float64
	MinTaskMemMB float64
	// PriorityChangeFraction is the share of tasks whose priority flips
	// mid-execution (the paper's Figure 14 scenario).
	PriorityChangeFraction float64
	// ServiceFraction is the share of long-running service jobs;
	// 0 keeps the default 0.06, negative disables services.
	ServiceFraction float64
}

func (w Workload) toScenario() scenario.Workload {
	return scenario.Workload{
		Jobs:                   w.Jobs,
		ArrivalRate:            w.ArrivalRate,
		BoTFraction:            w.BoTFraction,
		MaxTaskLength:          w.MaxTaskLengthSec,
		MinTaskLength:          w.MinTaskLengthSec,
		MaxTaskMemMB:           w.MaxTaskMemMB,
		MinTaskMemMB:           w.MinTaskMemMB,
		PriorityChangeFraction: w.PriorityChangeFraction,
		ServiceFraction:        w.ServiceFraction,
	}
}

// TraceConfig parameterizes direct trace generation (GenerateTrace).
// Unlike Workload, its fields are absolute: a zero BoTFraction means no
// bag-of-tasks jobs, not "the default share".
type TraceConfig struct {
	// Seed drives all randomness; identical configs produce identical
	// traces.
	Seed uint64
	// Jobs is the number of jobs to generate.
	Jobs int
	// ArrivalRate is the mean Poisson arrival rate in jobs/second.
	ArrivalRate float64
	// BoTFraction is the fraction of bag-of-tasks jobs.
	BoTFraction float64
	// MaxTaskLengthSec truncates task lengths (0 means the 6-hour
	// ceiling); MinTaskLengthSec floors them (0 means 30 s).
	MaxTaskLengthSec float64
	MinTaskLengthSec float64
	// MaxTaskMemMB caps per-task memory demands (0 means the 1000 MB
	// VM limit); MinTaskMemMB floors them (0 means 10 MB).
	MaxTaskMemMB float64
	MinTaskMemMB float64
	// PriorityChangeFraction is the fraction of tasks whose priority
	// flips mid-execution.
	PriorityChangeFraction float64
	// ServiceFraction is the fraction of long-running service jobs;
	// 0 selects the default 0.06, negative disables services.
	ServiceFraction float64
}

// DefaultTraceConfig returns the configuration the headline experiments
// generate from: the paper's Figure 8 mixes and magnitudes.
func DefaultTraceConfig(seed uint64, jobs int) TraceConfig {
	cfg := trace.DefaultGenConfig(seed, jobs)
	return TraceConfig{
		Seed:        cfg.Seed,
		Jobs:        cfg.NumJobs,
		ArrivalRate: cfg.ArrivalRate,
		BoTFraction: cfg.BoTFraction,
	}
}

// Trace is an immutable workload trace: jobs of sequential tasks (ST)
// or bags of tasks (BoT) with per-task priority, memory, length, and a
// seeded failure process.
type Trace struct {
	tr *trace.Trace
}

// GenerateTrace produces a synthetic trace per cfg; the result is valid
// by construction. It rejects configurations the generator cannot
// honor (non-positive Jobs or ArrivalRate, a BoTFraction outside
// [0, 1], inverted task-length bounds).
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	if cfg.Jobs <= 0 {
		return nil, fmt.Errorf("sim: GenerateTrace requires Jobs > 0 (got %d)", cfg.Jobs)
	}
	if err := checkJobs("sim: GenerateTrace: Jobs", cfg.Jobs); err != nil {
		return nil, err
	}
	if cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("sim: GenerateTrace requires ArrivalRate > 0 (got %g); see DefaultTraceConfig", cfg.ArrivalRate)
	}
	if cfg.BoTFraction < 0 || cfg.BoTFraction > 1 {
		return nil, fmt.Errorf("sim: GenerateTrace requires BoTFraction in [0,1] (got %g)", cfg.BoTFraction)
	}
	if err := checkLengthBounds(cfg.MinTaskLengthSec, cfg.MaxTaskLengthSec); err != nil {
		return nil, err
	}
	if err := checkMemBounds(cfg.MinTaskMemMB, cfg.MaxTaskMemMB); err != nil {
		return nil, err
	}
	return &Trace{tr: trace.Generate(trace.GenConfig{
		Seed:                   cfg.Seed,
		NumJobs:                cfg.Jobs,
		ArrivalRate:            cfg.ArrivalRate,
		BoTFraction:            cfg.BoTFraction,
		MaxTaskLength:          cfg.MaxTaskLengthSec,
		MinTaskLength:          cfg.MinTaskLengthSec,
		MaxTaskMemMB:           cfg.MaxTaskMemMB,
		MinTaskMemMB:           cfg.MinTaskMemMB,
		PriorityChangeFraction: cfg.PriorityChangeFraction,
		ServiceFraction:        cfg.ServiceFraction,
	})}, nil
}

// checkLengthBounds validates task-length bounds after applying the
// generator defaults (30 s floor, 6 h ceiling) for zero values.
func checkLengthBounds(minSec, maxSec float64) error {
	effMin, effMax := minSec, maxSec
	if effMin <= 0 {
		effMin = trace.DefaultMinTaskLengthSec
	}
	if effMax <= 0 {
		effMax = trace.DefaultMaxTaskLengthSec
	}
	if effMax <= effMin {
		return fmt.Errorf("sim: task-length bounds inverted (min %g s, max %g s)", effMin, effMax)
	}
	return nil
}

// checkMemBounds validates task-memory bounds after applying the
// generator defaults (10 MB floor, 1000 MB ceiling) for zero values.
func checkMemBounds(minMB, maxMB float64) error {
	effMin, effMax := minMB, maxMB
	if effMin <= 0 {
		effMin = trace.DefaultMinTaskMemMB
	}
	if effMax <= 0 {
		effMax = trace.DefaultMaxTaskMemMB
	}
	if effMax <= effMin {
		return fmt.Errorf("sim: task-memory bounds inverted (min %g MB, max %g MB)", effMin, effMax)
	}
	return nil
}

// validate rejects workload overlays the generator would panic on once
// materialized inside a sweep worker.
func (w Workload) validate() error {
	if w.Jobs < 0 {
		return fmt.Errorf("sim: Workload.Jobs is negative (%d)", w.Jobs)
	}
	if err := checkJobs("sim: Workload.Jobs", w.Jobs); err != nil {
		return err
	}
	if w.BoTFraction > 1 {
		return fmt.Errorf("sim: Workload.BoTFraction %g exceeds 1", w.BoTFraction)
	}
	if err := checkLengthBounds(w.MinTaskLengthSec, w.MaxTaskLengthSec); err != nil {
		return err
	}
	return checkMemBounds(w.MinTaskMemMB, w.MaxTaskMemMB)
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

// Tasks returns public views of every task in job order.
func (t *Trace) Tasks() []Task {
	out := make([]Task, 0, t.tr.NumTasks())
	for h := range t.tr.Tasks() {
		out = append(out, taskView(t.tr.Task(h)))
	}
	return out
}

// BatchJobs returns the replayable batch workload: every job that is
// not a long-running service.
func (t *Trace) BatchJobs() *Trace { return &Trace{tr: t.tr.BatchJobs()} }

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
	ts.TaskLength = Summary(stats.Summarize(lens))
	ts.TaskMemory = Summary(stats.Summarize(mems))
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
