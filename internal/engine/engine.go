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

// The paper's testbed (Di et al., SC'13): every run uses it.
const (
	// hosts and hostMemMB size the cluster: 32 hosts, each backing
	// 7 x 1 GB VM instances.
	hosts     = 32
	hostMemMB = 7 * 1024
	// detectionDelay is the failure-detection latency of the liveness
	// polling threads (seconds).
	detectionDelay = 0.5
	// scheduleDelay is the dispatch overhead from queue head to running
	// task (seconds).
	scheduleDelay = 0.2
	// hostRepair is the downtime before a crashed host rejoins
	// (seconds).
	hostRepair = 600
)

// Config parameterizes an engine run.
type Config struct {
	// Seed drives scheduling-independent randomness (storage jitter).
	Seed uint64
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
	// HostMTBF enables whole-host failures: the cluster experiences one
	// host crash on average every HostMTBF seconds (exponential
	// inter-crash times, uniformly chosen victim). All tasks on the
	// crashed host are immediately restarted on other hosts from their
	// most recent checkpoints, per the paper's liveness-thread design.
	// 0 disables host failures.
	HostMTBF float64
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
	if c.SharedKind == storage.KindLocal {
		c.SharedKind = storage.KindDMNFS
	}
	if c.Limits == nil {
		c.Limits = trace.DefaultLengthLimits
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
// handle-indexed columns, and per-task state exists only while a task
// is live. A submitted task gets a plan (what submission decides: its
// checkpoint cost, planned length, spacing and interval count), and a
// queued fresh task holds nothing else. At its first start the plan
// moves into a taskRun slot, which the task holds until it completes.
// Plans and slots live in pools of fixed blocks, so run state tracks
// the peak number of queued and running tasks, not the trace, and a
// live slot never moves: it points into itself (proc -> renewal ->
// procRNG, pareto). Task events and in-flight write records carry slot
// indices; pending-queue items are slot indices on the restart lane
// and queuedPlan-tagged plan indices on the fresh lane. Results are
// written once, at completion: each task's TaskOutcome goes into its
// job's next entry of one run-long slab, so every job's records sit in
// completion order, and the job's JobOutcome aggregates are written
// when its last task completes. String task/job IDs are read only
// into the result records and to order host-crash victims; the event
// loop never hashes or compares them.
const (
	poolBlockShift = 8
	poolBlockSize  = 1 << poolBlockShift
	poolBlockMask  = poolBlockSize - 1
)

// queuedPlan tags a fresh-lane queue item as a plan index.
const queuedPlan = 1 << 31

// pool holds entries in fixed blocks that stay put for the whole run,
// and recycles freed entries LIFO, so an entry's index and address stay
// valid while it is held and made counts the peak number held at once.
type pool[T any] struct {
	blocks [][]T
	free   []uint32
	made   uint32
	// blockLen is every block's length: poolBlockSize, or the run's
	// task count when that is smaller, so a small run does not allocate
	// a full block.
	blockLen int
}

func (p *pool[T]) at(i uint32) *T { return &p.blocks[i>>poolBlockShift][i&poolBlockMask] }

// take returns the index of a zeroed entry.
func (p *pool[T]) take() uint32 {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i
	}
	i := p.made
	p.made++
	if int(i>>poolBlockShift) == len(p.blocks) {
		p.blocks = append(p.blocks, make([]T, p.blockLen))
	}
	return i
}

// put zeroes entry i and returns it to the pool.
func (p *pool[T]) put(i uint32) {
	var zero T
	*p.at(i) = zero
	p.free = append(p.free, i)
}

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

	// plans holds queued fresh tasks' plans, slots started tasks' runs.
	plans pool[plan]
	slots pool[taskRun]
	// jobSlot maps a replayed job's handle to its record's index in
	// result.Jobs.
	jobSlot []uint32

	// writes is the slab of in-flight non-blocking checkpoint records,
	// linked per task through inflightWrite.next and recycled through
	// freeWrites.
	writes     []inflightWrite
	freeWrites []int32

	// granted is the placement fitsFn acquired for the task it accepted
	// last; dispatch starts that task on it.
	granted *cluster.Placement
	// dispatchPending coalesces dispatch passes within one event time.
	dispatchPending bool
	// hostRNG drives host-crash victim selection and inter-crash times.
	hostRNG *simeng.RNG

	// The callbacks below are bound once per run; every steady-state
	// event in the simulator carries one of them plus a slot or write
	// index, so the event loop schedules without allocating closures.
	dispatchFn  func()
	fitsFn      func(uint32) bool
	arriveFn    func(uint32)
	taskFireFn  func(uint32)
	writeFireFn func(uint32)
}

// startRun moves plan p into a slot for its task's first start, where
// work begins at `at`: the task's failure process starts there.
func (e *engineState) startRun(p uint32, at float64) *taskRun {
	s := e.slots.take()
	r := e.slots.at(s)
	pl := e.plans.at(p)
	*r = taskRun{
		plan:         *pl,
		remaining:    pl.plannedLen,
		waitingSince: pl.submitAt,
		startAt:      at,
		failRel:      math.Inf(-1),
		slot:         s,
		excludeHost:  -1,
		writeHead:    -1,
		writeTail:    -1,
	}
	r.planNext(0)
	e.plans.put(p)
	h := r.h
	if e.cfg.FailureModel != nil {
		r.proc = e.cfg.FailureModel(e.tr.Task(h))
	} else {
		r.proc = trace.InitFailureProcess(int(e.tr.Prio[h]), e.tr.Len[h], e.tr.Seed[h],
			int(e.tr.ChangePrio[h]), e.tr.ChangeFrac[h], &r.renewal, &r.procRNG, &r.pareto)
		if r.proc == &r.renewal {
			r.flags |= flagRenewal
		}
	}
	return r
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
	// crashes are rare, so the scan over the slots handed out is off the
	// hot path; free slots are zeroed and hold no placement.
	var victims []*taskRun
	for _, block := range e.slots.blocks {
		for i := range block {
			if r := &block[i]; r.placement.Active() && r.placement.HostID == hostID {
				victims = append(victims, r)
			}
		}
	}
	// Deterministic order, matching the pre-columnar engine: victims
	// sorted by their task ID (by handle among duplicate IDs).
	sort.Slice(victims, func(i, j int) bool {
		a, b := victims[i].h, victims[j].h
		if ia, ib := e.tr.TaskID(a), e.tr.TaskID(b); ia != ib {
			return ia < ib
		}
		return a < b
	})
	for _, r := range victims {
		e.interrupt(r, now)
	}
	e.sim.Schedule(now+hostRepair, func() {
		e.cl.SetAlive(hostID, true)
		e.scheduleDispatch()
	})
}

func runWithEstimator(ctx context.Context, cfg Config, tr *trace.Trace, est *core.HistoryEstimator) (*Result, error) {
	rng := simeng.NewRNG(cfg.Seed)
	nJobs := tr.NumJobs()
	blockLen := min(poolBlockSize, tr.NumTasks())
	e := &engineState{
		cfg:     cfg,
		sim:     simeng.NewSimulator(),
		cl:      cluster.New(hosts, hostMemMB),
		est:     est,
		tr:      tr,
		plans:   pool[plan]{blockLen: blockLen},
		slots:   pool[taskRun]{blockLen: blockLen},
		jobSlot: make([]uint32, len(tr.Arrival)),
		result:  &Result{PolicyName: cfg.Policy.Name(), Jobs: make([]JobOutcome, nJobs)},
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
	e.fitsFn = func(v uint32) bool {
		if v&queuedPlan != 0 {
			e.granted = e.cl.AcquireExcluding(e.tr.Mem[e.plans.at(v&^queuedPlan).h], -1)
		} else {
			r := e.slots.at(v)
			e.granted = e.cl.AcquireExcluding(e.tr.Mem[r.h], int(r.excludeHost))
		}
		return e.granted != nil
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
		e.shared = storage.NewDMNFS(shared, hosts)
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
	e.result.PeakLiveSlots = int(e.slots.made)
	e.result.PeakQueuedPlans = int(e.plans.made)
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
		ran := e.sim.RunLimit(stride)
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
	p := e.plans.take()
	e.initPlan(e.plans.at(p), h, e.sim.Now())
	e.queue.PushFresh(p|queuedPlan, e.tr.Mem[h])
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
		// host, and fitsFn places each one it tries: the task popped is
		// the one granted the last placement.
		v, ok := e.queue.PopFitting(maxFree, e.fitsFn)
		if !ok {
			return
		}
		// The fresh lane holds exactly the tasks that never started: a
		// failed task requeues on the restart lane.
		at := e.sim.Now() + scheduleDelay
		var r *taskRun
		if v&queuedPlan != 0 {
			r = e.startRun(v&^queuedPlan, at)
		} else {
			r = e.slots.at(v)
		}
		e.start(r, e.granted, at)
	}
}

// onTaskDone writes a completed task's outcome into its job's next
// record (and the job's aggregates after its last task), frees its
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
	e.slots.put(r.slot)
	e.scheduleDispatch()
}

// newFailureProcess builds a standalone failure process for task h,
// honoring a plugged-in failure model — the heap-allocating variant
// used for oracle previews (the run's own process lives in its slot;
// see start).
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
