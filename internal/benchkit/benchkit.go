// Package benchkit is the simulator's performance-measurement
// subsystem: it runs a fixed matrix of registered scenarios at multiple
// trace scales, measures wall-clock, allocation, and event-throughput
// statistics for each cell, and renders the whole matrix as a
// schema-stable JSON report (the BENCH_<date>.json files at the repo
// root). Every PR that touches the hot path extends the same trajectory
// by re-running `simbench` and committing the refreshed report, and CI
// runs a smoke-scale matrix on every push so the report format — and
// the engine's allocation budget — cannot silently rot.
//
// Methodology: each cell generates the scenario's workload for the
// report seed, builds the history estimator when the scenario uses one,
// and then measures only the engine replay (trace generation is timed
// separately and reported as trace_gen_ns). Allocation counts come from
// runtime.MemStats deltas around the replay; peak heap is sampled from
// the engine's progress hook. The engine is deterministic, so events,
// makespan, and mean WPR double as drift anchors: a report whose
// anchors moved is measuring a different simulation, not a faster one.
package benchkit

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// SchemaVersion identifies the report layout. Consumers should reject
// reports with a version they do not understand; fields are only ever
// added, never renamed, within a version.
const SchemaVersion = 1

// The pre-PR allocation baseline: the engine hot path measured at the
// last commit before the PR-3 performance overhaul (BenchmarkRun10k,
// default workload, batch tier replayed under Formula 3 with
// priority-based estimates, seed 7). Recorded here so every future
// report carries the trajectory's origin.
const (
	// BaselineJobs is the trace scale the allocation budget is pinned at.
	BaselineJobs = 10000
	// BaselineScenario is the registry scenario the budget replays.
	BaselineScenario = "baseline-f3"
	// BaselineSeed reproduces the pre-PR measurement's trace.
	BaselineSeed = 7
	// PrePRAllocsPerOp and PrePRNsPerOp are the measured pre-overhaul
	// numbers (Intel Xeon @ 2.10GHz reference container, go1.24).
	PrePRAllocsPerOp = 15452471
	PrePRNsPerOp     = 7828617839
)

// Config selects the benchmark matrix.
type Config struct {
	// Scenarios are registry names (scenario.Get); empty selects
	// DefaultScenarios.
	Scenarios []string
	// Scales are trace sizes in jobs; empty selects DefaultScales.
	Scales []int
	// Seed drives workload generation for every cell (default 20130601).
	Seed uint64
	// Runs is the number of repetitions per cell; the report keeps the
	// fastest (0 means 1). Allocation counts are deterministic across
	// repetitions, wall-clock is not.
	Runs int
	// SkipBaseline skips the dedicated 10k-job allocation-budget cell
	// (it still runs implicitly when the matrix covers BaselineScenario
	// at BaselineJobs).
	SkipBaseline bool
	// ExtraCells are additional (scenario, jobs) cells measured after
	// the scenario x scale matrix. They exist for cells too expensive to
	// run as a full matrix tier — e.g. a single 1M-job cell — and feed
	// the derived metrics like any matrix cell.
	ExtraCells []Cell
	// CPUProfileDir, when non-empty, names an existing directory that
	// receives one CPU profile per cell, covering the cell's timed
	// replays: <scenario>@<jobs>.pprof, and
	// <scenario>@<jobs>-seed<seed>.pprof for the allocation-budget cell
	// when it runs at its own seed. A cell measured twice keeps the
	// later profile.
	CPUProfileDir string
	// Progress, when non-nil, is invoked before each cell with a
	// human-readable label — simbench points it at stderr.
	Progress func(label string)
}

// Cell names one (scenario, jobs) measurement outside the matrix.
type Cell struct {
	Scenario string `json:"scenario"`
	Jobs     int    `json:"jobs"`
}

// DefaultScenarios is the matrix the committed BENCH reports cover: the
// paper's headline setups plus the cloud workloads that stress distinct
// engine paths (host crashes, non-blocking writes, burst arrivals, and
// the two dispatch-stress regimes the indexed dispatch path is
// accountable to — a saturated flood of short tasks and a big-memory
// head-of-line mix).
func DefaultScenarios() []string {
	return []string{
		"baseline-f3",
		"baseline-young",
		"no-checkpoint",
		"short-tasks-f3",
		"nonblocking-f3",
		"hostfail-storm",
		"spot-market",
		"mapreduce-burst",
		"dispatch-storm",
		"bigmem-headofline",
	}
}

// DefaultScales are the committed-report trace sizes.
func DefaultScales() []int { return []int{1000, 10000} }

// FullScales adds the 100k-job tier — the scale the indexed dispatch
// path unlocked; the pre-index engine's quadratic dispatch made
// saturated cells impractical there.
func FullScales() []int { return append(DefaultScales(), 100000) }

// XLScales adds the 1M-job tier — the scale the columnar memory layout
// (integer task handles + slab state) unlocked; the pointer-graph
// engine's working set made it memory-infeasible. A full scenario
// matrix at this tier is hours of wall-clock: prefer a restricted
// -scenarios list or Config.ExtraCells.
func XLScales() []int { return append(FullScales(), 1000000) }

// SmokeScales are the CI trace sizes: small enough for every push.
func SmokeScales() []int { return []int{200, 1000} }

// Measurement is one (scenario, scale) cell of the matrix.
type Measurement struct {
	Scenario     string `json:"scenario"`
	Jobs         int    `json:"jobs"`
	JobsReplayed int    `json:"jobs_replayed"`
	Tasks        int    `json:"tasks_replayed"`
	// Events counts fired simulation events; with NsPerOp it yields
	// EventsPerSec, the engine's headline throughput.
	Events       uint64  `json:"events"`
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  uint64  `json:"allocs_per_op"`
	BytesPerOp   uint64  `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	// PeakHeapBytes is the largest live heap sampled during the replay.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// TraceGenNs times workload generation (excluded from NsPerOp).
	TraceGenNs int64 `json:"trace_gen_ns"`
	// GCCycles and GCPauseNs are the garbage-collection cycles and total
	// stop-the-world pause accumulated during the measured replay, so
	// memory-layout wins are separable from GC tuning.
	GCCycles  uint32 `json:"gc_cycles"`
	GCPauseNs int64  `json:"gc_pause_ns"`
	// MakespanSec and MeanWPR anchor the measurement to the simulated
	// outcome: identical code must reproduce them bit-for-bit.
	MakespanSec float64 `json:"makespan_sec"`
	MeanWPR     float64 `json:"mean_wpr"`
	// Event-core queue shape (see simeng.QueueStats): peak live queue
	// depth, the fine bucket count/width last tuned, the largest bucket
	// sorted whole, and redistribution/compaction counts.
	QueuePeakPending int     `json:"queue_peak_pending"`
	QueueBuckets     int     `json:"queue_buckets"`
	QueueWidthSec    float64 `json:"queue_width_sec"`
	QueuePeakBucket  int     `json:"queue_peak_bucket"`
	QueueRebuilds    uint64  `json:"queue_rebuilds"`
	QueueCompactions uint64  `json:"queue_compactions"`
	// Event-core queue work: rung-bucket appends, top appends, entries
	// moved by redistributions, spill-heap pushes and entries sorted.
	// Divided by Events they give the per-event cost of each path.
	QueueBucketAppends uint64 `json:"queue_bucket_appends"`
	QueueTopAppends    uint64 `json:"queue_top_appends"`
	QueueReplaced      uint64 `json:"queue_replaced"`
	QueueSpillPushes   uint64 `json:"queue_spill_pushes"`
	QueueSorted        uint64 `json:"queue_sorted"`
	// PeakLiveSlots and PeakQueuedPlans are the engine's run-state peaks
	// (see engine.Result): the most started, unfinished tasks, and the
	// most fresh tasks queued with only their plans.
	PeakLiveSlots   int    `json:"peak_live_slots"`
	PeakQueuedPlans int    `json:"peak_queued_plans"`
	Error           string `json:"error,omitempty"`
}

// AllocBaseline records the allocation-budget comparison at the pinned
// scale: the pre-overhaul numbers (constants above) next to the ones
// measured by this report's run.
type AllocBaseline struct {
	Scenario          string `json:"scenario"`
	Jobs              int    `json:"jobs"`
	Seed              uint64 `json:"seed"`
	PrePRAllocsPerOp  uint64 `json:"pre_pr_allocs_per_op"`
	PrePRNsPerOp      int64  `json:"pre_pr_ns_per_op"`
	PostPRAllocsPerOp uint64 `json:"post_pr_allocs_per_op"`
	PostPRNsPerOp     int64  `json:"post_pr_ns_per_op"`
	// AllocReductionPct is 100 * (1 - post/pre).
	AllocReductionPct float64 `json:"alloc_reduction_pct"`
}

// ScaleSlowdown is the per-scenario throughput ratio between two
// adjacent matrix scales: events_per_sec at FromJobs over events_per_sec
// at ToJobs. A factor near the trace-size ratio means per-event cost
// grew with scale (the cache-cliff signature); a factor near 1.0 means
// per-event cost is scale-independent.
type ScaleSlowdown struct {
	Scenario string  `json:"scenario"`
	FromJobs int     `json:"from_jobs"`
	ToJobs   int     `json:"to_jobs"`
	Factor   float64 `json:"factor"`
}

// SaturationRatio is events_per_sec of the saturated dispatch regime
// over the unsaturated baseline at one scale. The indexed dispatch
// path's health check: the ratio staying flat across scales means
// dispatch cost is still O(log queue) at 10x the queue depth.
type SaturationRatio struct {
	Jobs        int     `json:"jobs"`
	Saturated   string  `json:"saturated"`
	Unsaturated string  `json:"unsaturated"`
	Ratio       float64 `json:"ratio"`
}

// Derived are health metrics computed from the raw cells — the
// comparisons previously done by hand when reading a report.
type Derived struct {
	ScaleSlowdowns   []ScaleSlowdown   `json:"scale_slowdowns,omitempty"`
	SaturationRatios []SaturationRatio `json:"saturation_ratios,omitempty"`
}

// The scenario pair the saturation-ratio health metric compares.
const (
	SaturatedScenario   = "dispatch-storm"
	UnsaturatedScenario = "baseline-f3"
)

// Report is the schema-stable output of a matrix run.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at"` // RFC3339, supplied by the caller
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	CPUs          int    `json:"cpus"`
	Seed          uint64 `json:"seed"`
	Runs          int    `json:"runs"`
	Scales        []int  `json:"scales"`
	// GOGC and MemLimitBytes record the GC tuning in effect for the run
	// (the GOGC and GOMEMLIMIT environment variables, or
	// debug.SetGCPercent and debug.SetMemoryLimit), so memory-layout wins
	// can be told from GC tuning. Each is absent at its runtime default
	// (100, no limit) and present at any other value, 0 included;
	// GOGC=off records -1.
	GOGC          *int   `json:"gogc,omitempty"`
	MemLimitBytes *int64 `json:"mem_limit_bytes,omitempty"`
	// Baseline is present unless Config.SkipBaseline suppressed it and
	// the matrix did not cover the pinned cell.
	Baseline *AllocBaseline `json:"alloc_baseline,omitempty"`
	Results  []Measurement  `json:"results"`
	// Derived holds the report's health metrics (see Derived).
	Derived *Derived `json:"derived,omitempty"`
}

// gcSettings reads the GC percent and memory limit in effect, each nil
// at its runtime default.
func gcSettings() (gogc *int, memLimit *int64) {
	gc := []metrics.Sample{{Name: "/gc/gogc:percent"}, {Name: "/gc/gomemlimit:bytes"}}
	metrics.Read(gc)
	if v := int(int64(gc[0].Value.Uint64())); v != 100 {
		gogc = &v
	}
	if v := int64(gc[1].Value.Uint64()); v != math.MaxInt64 {
		memLimit = &v
	}
	return gogc, memLimit
}

// Run executes the matrix and assembles the report. Individual cell
// failures are recorded in their Measurement (and do not abort the
// matrix); only an unknown scenario name fails the whole run, because
// it means the requested matrix cannot exist.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	names := cfg.Scenarios
	if len(names) == 0 {
		names = DefaultScenarios()
	}
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = DefaultScales()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 20130601
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}

	scs := make([]scenario.Scenario, len(names))
	for i, name := range names {
		sc, ok := scenario.Get(name)
		if !ok {
			return nil, fmt.Errorf("benchkit: unknown scenario %q", name)
		}
		scs[i] = sc
	}

	rep := &Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		Seed:          seed,
		Runs:          runs,
		Scales:        scales,
		Results:       make([]Measurement, 0, len(scs)*len(scales)+len(cfg.ExtraCells)),
	}
	rep.GOGC, rep.MemLimitBytes = gcSettings()

	// budgetIdx indexes the allocation-budget cell in rep.Results (-1 =
	// none yet); an index stays valid across the later appends, where a
	// pointer would dangle if an append ever reallocated the backing.
	budgetIdx := -1
	for _, jobs := range scales {
		for i, sc := range scs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if cfg.Progress != nil {
				cfg.Progress(fmt.Sprintf("%s @ %d jobs", names[i], jobs))
			}
			m := measure(ctx, sc, names[i], jobs, seed, runs, cfg.profilePath(names[i], jobs, seed, seed))
			rep.Results = append(rep.Results, m)
			if names[i] == BaselineScenario && jobs == BaselineJobs && seed == BaselineSeed && m.Error == "" {
				budgetIdx = len(rep.Results) - 1
			}
		}
	}

	for _, cell := range cfg.ExtraCells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sc, ok := scenario.Get(cell.Scenario)
		if !ok {
			return nil, fmt.Errorf("benchkit: unknown scenario %q", cell.Scenario)
		}
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("%s @ %d jobs (extra)", cell.Scenario, cell.Jobs))
		}
		rep.Results = append(rep.Results, measure(ctx, sc, cell.Scenario, cell.Jobs, seed, runs,
			cfg.profilePath(cell.Scenario, cell.Jobs, seed, seed)))
	}

	// Cells so far (matrix + extras) share the report seed; the
	// fallback budget cell below runs at BaselineSeed, so the derived
	// metrics must not compare against it.
	sameSeed := len(rep.Results)

	if budgetIdx < 0 && !cfg.SkipBaseline {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("alloc budget: %s @ %d jobs", BaselineScenario, BaselineJobs))
		}
		sc, _ := scenario.Get(BaselineScenario)
		m := measure(ctx, sc, BaselineScenario, BaselineJobs, BaselineSeed, runs,
			cfg.profilePath(BaselineScenario, BaselineJobs, BaselineSeed, seed))
		// The budget cell joins Results either way: a failing cell must
		// surface in the report (and fail simbench/CI), not silently
		// drop the alloc_baseline section.
		rep.Results = append(rep.Results, m)
		if m.Error == "" {
			budgetIdx = len(rep.Results) - 1
		}
	}
	if budgetIdx >= 0 {
		budget := &rep.Results[budgetIdx]
		rep.Baseline = &AllocBaseline{
			Scenario:          BaselineScenario,
			Jobs:              BaselineJobs,
			Seed:              BaselineSeed,
			PrePRAllocsPerOp:  PrePRAllocsPerOp,
			PrePRNsPerOp:      PrePRNsPerOp,
			PostPRAllocsPerOp: budget.AllocsPerOp,
			PostPRNsPerOp:     budget.NsPerOp,
			AllocReductionPct: 100 * (1 - float64(budget.AllocsPerOp)/float64(PrePRAllocsPerOp)),
		}
	}
	rep.Derived = deriveMetrics(rep.Results[:sameSeed])
	return rep, nil
}

// profilePath names a cell's CPU profile ("" when profiling is off); a
// cell run at a seed other than the report's carries it in the name.
func (cfg Config) profilePath(name string, jobs int, seed, reportSeed uint64) string {
	if cfg.CPUProfileDir == "" {
		return ""
	}
	file := fmt.Sprintf("%s@%d.pprof", name, jobs)
	if seed != reportSeed {
		file = fmt.Sprintf("%s@%d-seed%d.pprof", name, jobs, seed)
	}
	return filepath.Join(cfg.CPUProfileDir, file)
}

// deriveMetrics computes the report's health metrics from the raw
// cells: per-scenario slowdown factors between adjacent measured scales
// (e.g. the 100k:10k factor that exposes cache-cliff regressions) and
// the saturated:unsaturated events/s ratio per scale (the dispatch
// health check). Failed cells contribute nothing; only the first
// measurement of a (scenario, jobs) pair counts. The caller passes
// same-seed cells only — the fallback budget cell runs at BaselineSeed
// and is excluded, so factors never compare across seeds.
func deriveMetrics(results []Measurement) *Derived {
	type key struct {
		scenario string
		jobs     int
	}
	cells := make(map[key]*Measurement, len(results))
	var scenarios []string
	jobsOf := make(map[string][]int)
	for i := range results {
		m := &results[i]
		if m.Error != "" {
			continue
		}
		k := key{m.Scenario, m.Jobs}
		if _, dup := cells[k]; dup {
			continue
		}
		cells[k] = m
		if _, seen := jobsOf[m.Scenario]; !seen {
			scenarios = append(scenarios, m.Scenario)
		}
		jobsOf[m.Scenario] = append(jobsOf[m.Scenario], m.Jobs)
	}

	d := &Derived{}
	for _, sc := range scenarios {
		jobs := jobsOf[sc]
		sort.Ints(jobs)
		for i := 1; i < len(jobs); i++ {
			from, to := cells[key{sc, jobs[i-1]}], cells[key{sc, jobs[i]}]
			if from.EventsPerSec <= 0 || to.EventsPerSec <= 0 {
				continue
			}
			d.ScaleSlowdowns = append(d.ScaleSlowdowns, ScaleSlowdown{
				Scenario: sc,
				FromJobs: jobs[i-1],
				ToJobs:   jobs[i],
				Factor:   from.EventsPerSec / to.EventsPerSec,
			})
		}
	}
	allJobs := jobsOf[SaturatedScenario]
	sort.Ints(allJobs)
	for _, jobs := range allJobs {
		sat, unsat := cells[key{SaturatedScenario, jobs}], cells[key{UnsaturatedScenario, jobs}]
		if sat == nil || unsat == nil || unsat.EventsPerSec <= 0 {
			continue
		}
		d.SaturationRatios = append(d.SaturationRatios, SaturationRatio{
			Jobs:        jobs,
			Saturated:   SaturatedScenario,
			Unsaturated: UnsaturatedScenario,
			Ratio:       sat.EventsPerSec / unsat.EventsPerSec,
		})
	}
	if len(d.ScaleSlowdowns) == 0 && len(d.SaturationRatios) == 0 {
		return nil
	}
	return d
}

// heapSampleEvery is the fired-event stride between peak-heap samples;
// runtime.ReadMemStats stops the world, so the stride is kept coarse.
const heapSampleEvery = 1 << 18

// measure runs one cell: generate, then replay `runs` times keeping
// the fastest repetition (allocation counts are deterministic, so any
// repetition reports the same budget). A non-empty profile path
// receives a CPU profile of the replays.
func measure(ctx context.Context, sc scenario.Scenario, name string, jobs int, seed uint64, runs int, profile string) (m Measurement) {
	m = Measurement{Scenario: name, Jobs: jobs}

	genStart := time.Now()
	tr := sc.Workload.Materialize(seed, jobs)
	m.TraceGenNs = time.Since(genStart).Nanoseconds()

	replay := tr
	if !sc.ReplayAll {
		replay = tr.BatchJobs()
	}
	m.JobsReplayed = replay.NumJobs()
	m.Tasks = replay.NumTasks()

	cfg, err := sc.EngineConfig(seed)
	if err != nil {
		m.Error = err.Error()
		return m
	}
	var est *core.HistoryEstimator
	if cfg.NeedsHistory() {
		est = trace.BuildEstimator(tr, sc.EffectiveLimits())
	}

	var peak uint64
	var ms runtime.MemStats
	cfg.ProgressEvery = heapSampleEvery
	cfg.Progress = func(events uint64, simNow float64) {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}

	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			m.Error = fmt.Sprintf("cpu profile: %v", err)
			return m
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			m.Error = fmt.Sprintf("cpu profile: %v", err)
			return m
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil && m.Error == "" {
				m.Error = fmt.Sprintf("cpu profile: %v", err)
			}
		}()
	}
	for rep := 0; rep < runs; rep++ {
		if err := ctx.Err(); err != nil {
			m.Error = err.Error()
			return m
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err := engine.RunWithEstimatorContext(ctx, cfg, replay, est)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			m.Error = err.Error()
			return m
		}
		if rep == 0 || elapsed.Nanoseconds() < m.NsPerOp {
			m.NsPerOp = elapsed.Nanoseconds()
		}
		if rep == 0 {
			m.AllocsPerOp = after.Mallocs - before.Mallocs
			m.BytesPerOp = after.TotalAlloc - before.TotalAlloc
			m.GCCycles = after.NumGC - before.NumGC
			m.GCPauseNs = int64(after.PauseTotalNs - before.PauseTotalNs)
			m.Events = res.Events
			m.MakespanSec = res.MakespanSec
			m.MeanWPR = res.MeanWPR(nil)
			m.QueuePeakPending = res.Queue.PeakPending
			m.QueueBuckets = res.Queue.Buckets
			m.QueueWidthSec = res.Queue.Width
			m.QueuePeakBucket = res.Queue.PeakBucket
			m.QueueRebuilds = res.Queue.Rebuilds
			m.QueueCompactions = res.Queue.Compactions
			m.QueueBucketAppends = res.Queue.BucketAppends
			m.QueueTopAppends = res.Queue.TopAppends
			m.QueueReplaced = res.Queue.Replaced
			m.QueueSpillPushes = res.Queue.SpillPushes
			m.QueueSorted = res.Queue.Sorted
			m.PeakLiveSlots = res.PeakLiveSlots
			m.PeakQueuedPlans = res.PeakQueuedPlans
		}
	}
	if m.NsPerOp > 0 {
		m.EventsPerSec = float64(m.Events) / (float64(m.NsPerOp) / 1e9)
	}
	m.PeakHeapBytes = peak
	return m
}
