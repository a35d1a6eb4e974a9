package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/predict"
	"repro/internal/simeng"
	"repro/internal/storage"
	"repro/internal/trace"
)

// StorageMode selects how each task's checkpoint storage is chosen.
type StorageMode int

const (
	// StorageAuto applies the Section 4.2.2 rule per task: compare the
	// expected total overheads of local-ramdisk and shared-disk
	// checkpointing and pick the cheaper.
	StorageAuto StorageMode = iota
	// StorageLocal forces local-ramdisk checkpoints (migration type A).
	StorageLocal
	// StorageShared forces shared-disk checkpoints (migration type B).
	StorageShared
)

// EstimateMode selects where per-task failure statistics come from.
type EstimateMode int

const (
	// EstimatePriority uses history grouped by priority and task-length
	// limit — the paper's practical estimator (Table 7, Figures 9-13).
	EstimatePriority EstimateMode = iota
	// EstimateOracle feeds each task its own realized failure statistics
	// — the paper's "precise prediction" scenario (Table 6).
	EstimateOracle
)

// Config parameterizes an engine run.
type Config struct {
	// Seed drives scheduling-independent randomness (storage jitter).
	Seed uint64
	// Hosts and HostMemMB size the cluster. Defaults: 32 hosts, 7168 MB
	// of VM-backing memory each (7 x 1 GB VMs per host in the paper).
	Hosts     int
	HostMemMB float64
	// Policy decides checkpoint interval counts. Required.
	Policy core.Policy
	// Dynamic enables Algorithm 1's adaptive MNOF handling on priority
	// changes; when false the initial plan is kept (the paper's static
	// baseline in Figure 14).
	Dynamic bool
	// Mode selects checkpoint storage (see StorageMode).
	Mode StorageMode
	// SharedKind selects the shared backend: storage.KindNFS or
	// storage.KindDMNFS (the paper's default testbed uses DM-NFS).
	SharedKind storage.Kind
	// Estimates selects the statistics source (see EstimateMode).
	Estimates EstimateMode
	// Limits are the task-length limits for priority-based estimation;
	// nil means trace.DefaultLengthLimits.
	Limits []float64
	// DetectionDelay is the failure-detection latency of the liveness
	// polling threads (seconds).
	DetectionDelay float64
	// ScheduleDelay is the dispatch overhead from queue head to running
	// task (seconds).
	ScheduleDelay float64
	// MaxSimSeconds aborts runaway simulations; 0 means no limit.
	MaxSimSeconds float64
	// HostMTBF enables whole-host failures: the cluster experiences one
	// host crash on average every HostMTBF seconds (exponential
	// inter-crash times, uniformly chosen victim). All tasks on the
	// crashed host are immediately restarted on other hosts from their
	// most recent checkpoints, per the paper's liveness-thread design.
	// 0 disables host failures.
	HostMTBF float64
	// HostRepair is the downtime before a crashed host rejoins
	// (default 600 s).
	HostRepair float64
	// Predictor supplies the planned productive length per task (the
	// paper's job-parser workload prediction). nil means exact lengths.
	// Execution always uses the true length; only the checkpoint plan
	// sees the prediction.
	Predictor predict.Predictor
	// NonBlockingCheckpoints performs checkpoint writes in a separate
	// thread (Algorithm 1 line 7): the task keeps computing while the
	// image is written, so the write cost is hidden from the task's
	// wall-clock; the saved position lags until the write completes, and
	// a failure mid-write rolls back to the previous completed image.
	NonBlockingCheckpoints bool
	// CustomEstimator, when non-nil, supersedes the Estimates mode: every
	// per-task failure estimate is delegated to it. No scenario sets it;
	// it is a seam for tests that feed the planner fixed statistics, and
	// perfbench reads it to decide whether a run needs a history
	// estimator.
	CustomEstimator TaskEstimator
	// FailureModel, when non-nil, replaces the trace-driven failure
	// process for every task. The returned process must be deterministic
	// given the task (the oracle estimator previews a second instance and
	// paired runs rely on identical draws).
	FailureModel func(t trace.Task) failure.Process
	// LocalBackend / SharedBackend, when non-nil, replace the built-in
	// checkpoint storage devices (Mode still decides which one each task
	// uses). Backends are driven from the simulation goroutine only.
	LocalBackend  storage.Backend
	SharedBackend storage.Backend
	// Progress, when non-nil, is invoked from the simulation goroutine
	// roughly every ProgressEvery fired events (and once at completion)
	// with the running event count and the simulated clock. It must not
	// mutate simulation state.
	Progress func(events uint64, simNow float64)
	// ProgressEvery is the event stride between Progress calls
	// (0 means 65536).
	ProgressEvery uint64
}

// TaskEstimator supplies per-task failure statistics to the planner,
// superseding the built-in history/oracle estimators when set.
type TaskEstimator interface {
	EstimateTask(t trace.Task) core.Estimate
}

// NeedsHistory reports whether a run under c plans from a history
// estimator: priority-grouped estimates with no CustomEstimator. Callers
// build it with trace.BuildEstimator over the run's length limits and
// pass it to RunWithEstimatorContext.
func (c Config) NeedsHistory() bool {
	return c.Estimates == EstimatePriority && c.CustomEstimator == nil
}

// withDefaults fills zero fields with the paper's testbed values.
func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 32
	}
	if c.HostMemMB == 0 {
		c.HostMemMB = 7 * 1024
	}
	if c.SharedKind == storage.KindLocal {
		c.SharedKind = storage.KindDMNFS
	}
	if c.Limits == nil {
		c.Limits = trace.DefaultLengthLimits
	}
	if c.DetectionDelay == 0 {
		c.DetectionDelay = 0.5
	}
	if c.ScheduleDelay == 0 {
		c.ScheduleDelay = 0.2
	}
	if c.HostRepair == 0 {
		c.HostRepair = 600
	}
	return c
}

// RunWithEstimatorContext executes the trace under the configuration and
// returns per-job results. est is the history estimator the planner
// reads when cfg.NeedsHistory(); the caller builds it, usually from the
// replayed trace itself (the paper estimates MNOF/MTBF from the trace it
// replays), though it may come from a different (training) trace or be
// shared across runs. The run replays the jobs tr selects (a view such
// as tr.BatchJobs() replays only those).
//
// Cancellation is cooperative: the event loop polls ctx between event
// chunks and returns ctx.Err() (with a nil Result) as soon as the
// context is done. The simulation runs entirely on the calling
// goroutine, so cancellation leaks nothing.
func RunWithEstimatorContext(ctx context.Context, cfg Config, tr *trace.Trace, est *core.HistoryEstimator) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Policy == nil {
		return nil, fmt.Errorf("engine: Config.Policy is required")
	}
	return runWithEstimator(ctx, cfg, tr, est)
}

// The engine's working state is columnar: it reads the trace's own
// handle-indexed columns, and all hot per-task state lives in
// handle-indexed taskRun entries, in fixed-size chunks that materialize
// on first submission and free when their last task completes. Results
// are written once, at completion: each task's TaskOutcome goes into
// its job's next slot of one run-long slab, so every job's records sit
// in completion order, and the job's JobOutcome aggregates are written
// when its last task completes. The event loop, dispatch queue, and
// simulator callbacks carry only handles; string task/job IDs are never
// hashed or compared, and are read only into the result records.
const (
	runChunkShift = 12
	runChunkSize  = 1 << runChunkShift
	runChunkMask  = runChunkSize - 1
)

type engineState struct {
	cfg    Config
	sim    *simeng.Simulator
	cl     *cluster.Cluster
	local  storage.Backend
	shared storage.Backend
	est    *core.HistoryEstimator
	tr     *trace.Trace
	queue  cluster.PendingQueue[uint32]
	result *Result

	// runChunks[h>>runChunkShift][h&runChunkMask] is task h's run state;
	// chunkLive counts the submitted-but-unfinished runs per chunk so a
	// drained chunk's backing is reclaimed mid-run. Drained chunks are
	// all-zero (entries are zeroed at completion, untouched entries were
	// never written), so freeChunks recycles them: steady-state run
	// state costs O(max concurrent chunks) allocations, not O(trace).
	runChunks  [][]taskRun
	chunkLive  []int32
	freeChunks [][]taskRun
	// chunkLen is the length of every run chunk: runChunkSize, or the
	// task count when the whole run fits one chunk, so a small run does
	// not allocate and zero a full chunk.
	chunkLen int
	// freeTimes holds the recorded-times backings of completed tasks'
	// renewal processes, handed to the next task that starts, so the
	// failure draws of a run allocate O(max concurrent tasks) backings,
	// not one per task.
	freeTimes [][]float64
	// jobSlot maps a replayed job's handle to its record's index in
	// result.Jobs.
	jobSlot []uint32

	// writes is the slab of in-flight non-blocking checkpoint records,
	// linked per task through inflightWrite.next and recycled through
	// freeWrites.
	writes     []inflightWrite
	freeWrites []int32

	// dispatchPending coalesces dispatch passes within one event time.
	dispatchPending bool
	// hostRNG drives host-crash victim selection and inter-crash times.
	hostRNG *simeng.RNG

	// The callbacks below are bound once per run; every steady-state
	// event in the simulator carries one of them plus a handle, so the
	// event loop schedules without allocating closures.
	dispatchFn  func()
	fitsFn      func(uint32) bool
	arriveFn    func(uint32)
	taskFireFn  func(uint32)
	writeFireFn func(uint32)
}

// run returns task h's slab entry; the task must be submitted and not
// yet complete.
func (e *engineState) run(h uint32) *taskRun {
	return &e.runChunks[h>>runChunkShift][h&runChunkMask]
}

// armHostFailure schedules the next whole-host crash. The chain
// re-arms only while other simulation work remains, so the simulation
// still terminates.
func (e *engineState) armHostFailure() {
	gap := e.hostRNG.ExpFloat64() * e.cfg.HostMTBF
	e.sim.Schedule(e.sim.Now()+gap, func() {
		// Pending counts live events only (canceled tombstones are
		// excluded), so a queue holding nothing but canceled entries
		// correctly reads as a finished workload here.
		if e.sim.Pending() == 0 {
			return // all workload finished; let the simulation drain
		}
		victim := e.hostRNG.Intn(e.cl.Hosts())
		e.crashHost(victim)
		e.armHostFailure()
	})
}

// crashHost marks a host down, interrupts every task placed on it, and
// schedules the repair.
func (e *engineState) crashHost(hostID int) {
	e.cl.SetAlive(hostID, false)
	now := e.sim.Now()
	// Collect first: interrupt mutates placements via requeueing. Host
	// crashes are rare, so the scan over live run chunks is off the hot
	// path.
	var victims []uint32
	for _, chunk := range e.runChunks {
		for i := range chunk {
			r := &chunk[i]
			if r.placement.Active() && r.placement.HostID == hostID {
				victims = append(victims, r.h)
			}
		}
	}
	// Deterministic order, matching the pre-columnar engine: victims
	// sorted by their task ID.
	sort.Slice(victims, func(i, j int) bool {
		return e.tr.TaskID(victims[i]) < e.tr.TaskID(victims[j])
	})
	for _, h := range victims {
		e.interrupt(e.run(h), now)
	}
	e.sim.Schedule(now+e.cfg.HostRepair, func() {
		e.cl.SetAlive(hostID, true)
		e.scheduleDispatch()
	})
}

func runWithEstimator(ctx context.Context, cfg Config, tr *trace.Trace, est *core.HistoryEstimator) (*Result, error) {
	rng := simeng.NewRNG(cfg.Seed)
	// Run state is indexed by handle, so it spans every task of the
	// columns; chunks of unselected tasks are never materialized.
	handles := len(tr.Len)
	nChunks := (handles + runChunkSize - 1) / runChunkSize
	nJobs := tr.NumJobs()
	e := &engineState{
		cfg:       cfg,
		sim:       simeng.NewSimulator(),
		cl:        cluster.New(cfg.Hosts, cfg.HostMemMB),
		est:       est,
		tr:        tr,
		runChunks: make([][]taskRun, nChunks),
		chunkLive: make([]int32, nChunks),
		chunkLen:  min(runChunkSize, handles),
		jobSlot:   make([]uint32, len(tr.Arrival)),
		result:    &Result{PolicyName: cfg.Policy.Name(), Jobs: make([]JobOutcome, nJobs)},
	}
	// Each job's Tasks is its window of one slab, with the job's task
	// count as capacity: completion fills it in place, and a caller
	// appending to a finished job's slice reallocates instead of
	// overwriting the next job's records.
	outcomes := make([]TaskOutcome, tr.NumTasks())
	next := 0
	for i := range e.result.Jobs {
		j := tr.Job(i)
		first, limit := tr.TasksOf(j)
		n := int(limit - first)
		e.jobSlot[j] = uint32(i)
		e.result.Jobs[i] = JobOutcome{
			ID:         tr.JobID(j),
			Structure:  tr.Structure(j).String(),
			Priority:   tr.JobPrio[j],
			ArrivalSec: tr.Arrival[j],
			Tasks:      outcomes[next : next : next+n],
		}
		next += n
	}
	e.dispatchFn = func() {
		e.dispatchPending = false
		e.dispatch()
	}
	e.fitsFn = func(h uint32) bool {
		return e.cl.AcquirePreview(e.tr.Mem[h], int(e.run(h).excludeHost))
	}
	e.arriveFn = e.jobArrive
	e.taskFireFn = e.taskFire
	e.writeFireFn = e.writeFire
	// The rng.Split() sequence below is part of the deterministic
	// contract: custom backends consume the same splits as the devices
	// they replace, so plugging one in never shifts the other streams.
	if local := rng.Split(); cfg.LocalBackend != nil {
		e.local = cfg.LocalBackend
	} else {
		e.local = storage.NewLocalRamdisk(local)
	}
	shared := rng.Split()
	switch {
	case cfg.SharedBackend != nil:
		e.shared = cfg.SharedBackend
	case cfg.SharedKind == storage.KindNFS:
		e.shared = storage.NewNFS(shared)
	default:
		e.shared = storage.NewDMNFS(shared, cfg.Hosts)
	}

	// Arrivals are scheduled lazily: one pending arrival event walks the
	// arrival-ordered job handles (each firing schedules the next), so
	// the event heap holds O(active) events instead of one per job.
	if nJobs > 0 {
		e.sim.ScheduleIndexed(tr.Arrival[tr.Job(0)], 0, e.arriveFn, 0)
	}

	if cfg.HostMTBF > 0 {
		e.hostRNG = rng.Split()
		e.armHostFailure()
	}

	if err := e.drive(ctx); err != nil {
		return nil, err
	}
	if cfg.MaxSimSeconds > 0 && e.sim.Pending() > 0 {
		return nil, fmt.Errorf("engine: simulation exceeded %v seconds with %d events pending",
			cfg.MaxSimSeconds, e.sim.Pending())
	}

	// Makespan is the last job completion; the raw event clock may run
	// later (host-repair events after the workload drained).
	for i := range e.result.Jobs {
		jo := &e.result.Jobs[i]
		if len(jo.Tasks) != cap(jo.Tasks) {
			return nil, fmt.Errorf("engine: job %s finished %d/%d tasks",
				jo.ID, len(jo.Tasks), cap(jo.Tasks))
		}
		e.result.MakespanSec = max(e.result.MakespanSec, jo.DoneAt)
	}
	e.result.Events = e.sim.Fired()
	e.result.Queue = e.sim.Stats()
	return e.result, nil
}

// drive executes the event loop in chunks, polling ctx and reporting
// progress between chunks. The simulation never leaves the calling
// goroutine: cancellation simply abandons the remaining queue.
func (e *engineState) drive(ctx context.Context) error {
	stride := e.cfg.ProgressEvery
	if stride == 0 {
		stride = 65536
	}
	for {
		var ran uint64
		if e.cfg.MaxSimSeconds > 0 {
			ran = e.sim.RunUntilLimit(e.cfg.MaxSimSeconds, stride)
		} else {
			ran = e.sim.RunLimit(stride)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if ran == 0 {
			return nil
		}
		if e.cfg.Progress != nil {
			e.cfg.Progress(e.sim.Fired(), e.sim.Now())
		}
	}
}

// jobArrive fires the arrival of the i-th replayed job: it chains the
// next job's arrival event and submits the job's initial task set.
func (e *engineState) jobArrive(i uint32) {
	if next := i + 1; int(next) < e.tr.NumJobs() {
		e.sim.ScheduleIndexed(e.tr.Arrival[e.tr.Job(int(next))], 0, e.arriveFn, next)
	}
	j := e.tr.Job(int(i))
	first, limit := e.tr.TasksOf(j)
	if e.tr.Sequential[j] {
		e.submitTask(first)
		return
	}
	for h := first; h < limit; h++ {
		e.submitTask(h)
	}
}

func (e *engineState) submitTask(h uint32) {
	c := h >> runChunkShift
	if e.runChunks[c] == nil {
		if n := len(e.freeChunks); n > 0 {
			e.runChunks[c] = e.freeChunks[n-1]
			e.freeChunks[n-1] = nil
			e.freeChunks = e.freeChunks[:n-1]
		} else {
			e.runChunks[c] = make([]taskRun, e.chunkLen)
		}
	}
	e.chunkLive[c]++
	e.initRun(&e.runChunks[c][h&runChunkMask], h, e.sim.Now())
	e.queue.PushFresh(h, e.tr.Mem[h])
	e.scheduleDispatch()
}

// scheduleDispatch coalesces dispatch work to the end of the current
// event timestamp (priority 10 sorts after regular events at the same
// time), so releases happening "now" are visible before placement.
func (e *engineState) scheduleDispatch() {
	if e.dispatchPending {
		return
	}
	e.dispatchPending = true
	e.sim.SchedulePriority(e.sim.Now(), 10, e.dispatchFn)
}

func (e *engineState) dispatch() {
	for {
		// Saturation early-exit: when even the smallest queued demand
		// exceeds the best host's free memory nothing can place, so the
		// pass costs one comparison — the common case for completions in
		// a saturated cluster, where each finishing task frees too little
		// to admit anything.
		maxFree := e.cl.MaxFreeMem()
		if e.queue.MinDemand() > maxFree {
			return
		}
		// The demand index narrows the scan to tasks that fit the best
		// host; fitsFn re-checks the ones with a host to avoid.
		h, ok := e.queue.PopFitting(maxFree, e.fitsFn)
		if !ok {
			return
		}
		r := e.run(h)
		p := e.cl.AcquireExcluding(e.tr.Mem[h], int(r.excludeHost))
		if p == nil {
			// Lost a race within this dispatch pass; requeue and stop.
			e.queue.PushRestart(h, e.tr.Mem[h])
			return
		}
		e.start(r, p, e.sim.Now()+e.cfg.ScheduleDelay)
	}
}

// onTaskDone writes a completed task's outcome into its job's next
// slot (and the job's aggregates after its last task), frees its run
// slot, advances ST chains, and triggers dispatch.
func (e *engineState) onTaskDone(r *taskRun, now float64) {
	h := r.h
	j := e.tr.JobOf[h]
	jo := &e.result.Jobs[e.jobSlot[j]]
	n := len(jo.Tasks)
	jo.Tasks = jo.Tasks[:n+1]
	e.writeOutcome(&jo.Tasks[n], r, now)
	if n+1 == cap(jo.Tasks) {
		jo.finish(now)
	}

	if e.tr.Sequential[j] {
		// Handles are dense in task order, so the ST successor is h+1.
		if next := h + 1; next < e.tr.FirstTask[j+1] {
			e.submitTask(next)
		}
	}
	// Release the run slot (dropping its process references, but keeping
	// the failure-time backing for the next task to start) and recycle
	// the whole chunk once its last live run completes.
	if times := r.renewal.DetachTimes(); times != nil {
		e.freeTimes = append(e.freeTimes, times)
	}
	*r = taskRun{}
	c := h >> runChunkShift
	if e.chunkLive[c]--; e.chunkLive[c] == 0 {
		e.freeChunks = append(e.freeChunks, e.runChunks[c])
		e.runChunks[c] = nil
	}
	e.scheduleDispatch()
}

// newFailureProcess builds a standalone failure process for task h,
// honoring a plugged-in failure model — the heap-allocating variant
// used for oracle previews (the run's own process lives in its slab
// entry; see start).
func (e *engineState) newFailureProcess(h uint32) failure.Process {
	if e.cfg.FailureModel != nil {
		return e.cfg.FailureModel(e.tr.Task(h))
	}
	return trace.NewFailureProcess(e.tr.Task(h))
}

// estimateFor produces the failure Estimate a policy sees for task h
// at the given priority: its own, or its new one after a mid-run
// change.
func (e *engineState) estimateFor(h uint32, priority int) core.Estimate {
	if e.cfg.CustomEstimator != nil {
		t := e.tr.Task(h)
		t.Priority = priority
		return e.cfg.CustomEstimator.EstimateTask(t)
	}
	if e.cfg.Estimates == EstimateOracle {
		// The oracle knows the task's process, switch included.
		return e.oracleEstimate(h)
	}
	if e.est == nil {
		return core.Estimate{}
	}
	return trace.EstimateFor(e.est, priority, e.tr.Len[h], e.cfg.Limits)
}

// oracleEstimate previews task h's own failure process — which is
// deterministic given its seed — over a horizon slightly beyond its
// productive length, and returns the realized statistics: the paper's
// "precise prediction" of MNOF and MTBF.
func (e *engineState) oracleEstimate(h uint32) core.Estimate {
	proc := e.newFailureProcess(h)
	horizon := e.tr.Len[h]
	var (
		count     int
		sum, prev float64
	)
	cursor := 0.0
	for {
		next := proc.NextAfter(cursor)
		if math.IsInf(next, 1) || next > horizon {
			break
		}
		count++
		sum += next - prev
		prev = next
		cursor = next
	}
	est := core.Estimate{MNOF: float64(count)}
	if count > 0 {
		est.MTBF = sum / float64(count)
	}
	return est
}

// chooseBackend applies the configured storage mode for task h,
// additionally reporting whether the choice is the shared backend (the
// run records the backend as one bit, not an interface).
func (e *engineState) chooseBackend(h uint32, est core.Estimate) (storage.Backend, bool) {
	switch e.cfg.Mode {
	case StorageLocal:
		return e.local, false
	case StorageShared:
		return e.shared, true
	}
	mem, length := e.tr.Mem[h], e.tr.Len[h]
	costs := core.StorageCosts{
		Cl: storage.PlannedCheckpointCost(e.local, mem),
		Rl: storage.PlannedRestartCost(e.local, mem),
		Cs: storage.PlannedCheckpointCost(e.shared, mem),
		Rs: storage.PlannedRestartCost(e.shared, mem),
	}
	mnof := est.MNOF
	if mnof <= 0 && est.MTBF > 0 {
		mnof = core.MNOFFromMTBF(length, est.MTBF)
	}
	if mnof <= 0 {
		// No failure expectation: checkpointing cost dominates; local
		// is never worse.
		return e.local, false
	}
	choice, _, _ := core.CompareStorage(length, mnof, costs)
	if choice == core.ChooseLocal {
		return e.local, false
	}
	return e.shared, true
}
