package engine

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/failure"
	"repro/internal/simeng"
	"repro/internal/storage"
)

// action names the milestone a task's single pending event will execute
// when it fires. Every task event in the simulator is the engine-wide
// taskFire callback applied to the task's handle; the action code plus
// the param field below carry what a bespoke closure used to capture,
// so the event loop runs without per-task closures entirely.
type action uint8

const (
	// actNone marks a task with no pending action.
	actNone action = iota
	// actStep computes the next milestone (checkpoint, change point,
	// completion, or a failure preempting them) and schedules it.
	actStep
	// actFail ends a productive segment with a failure at param.
	actFail
	// actMilestone ends a productive segment at the planned milestone
	// (param), classified on firing against the task's completion and
	// change points.
	actMilestone
	// actCkptFail aborts an in-progress blocking checkpoint write.
	actCkptFail
	// actCkptDone commits a completed blocking checkpoint write whose
	// wall-clock cost is param.
	actCkptDone
	// actRequeue re-enters the pending queue after the failure-detection
	// delay.
	actRequeue
)

// taskRun flag bits.
const (
	// flagChangeFired: the mid-run priority change already happened.
	flagChangeFired uint8 = 1 << iota
	// flagHasImage: a completed checkpoint image exists.
	flagHasImage
	// flagComputing: the pending event ends a productive segment that
	// started at wall time segWall, so an external interruption can
	// account the partial work correctly.
	flagComputing
	// flagShared: checkpoints go to the engine's shared backend.
	flagShared
	// flagRenewal: proc is the slot-resident renewal process, whose last
	// answer failRel caches (see nextFailureAbs).
	flagRenewal
	// flagUsedShared: the chosen backend's images are restorable from
	// any host (TaskOutcome.UsedSharedStorage). A plugged-in backend
	// decides this for itself, so it can differ from flagShared.
	flagUsedShared
)

// plan is what submission decides for a task (Algorithm 1 lines 3-4):
// its checkpoint backend, the planning constant C, the planned length
// and the first equidistant plan. A queued fresh task holds only its
// plan; its first start moves the plan into a taskRun, where planner
// state keeps evolving.
type plan struct {
	submitAt   float64
	ckptCost   float64 // planning constant C for the chosen backend
	plannedLen float64 // predicted productive length (= LengthSec if exact)
	w0         float64 // current checkpoint spacing (productive seconds)
	h          uint32  // task handle
	intervals  int32   // remaining interval count
	// flags carries flagShared and flagUsedShared in a plan and every
	// flag bit in a taskRun.
	flags uint8
}

// taskRun is the per-task execution state machine, held in one of the
// engine's slots from a task's first start to its completion. Its
// timeline mixes productive progress with fault-tolerance overheads
// exactly as the paper's Formula 1 decomposes wall-clock time:
// productive time, plus C per checkpoint, plus (rollback + R) per
// failure, plus waiting.
//
// Failures are exogenous: the task's failure process generates absolute
// wall-clock offsets since the task first started, independent of what
// the task is doing at those instants (running, checkpointing, or
// restarting).
//
// The entry is deliberately compact and self-contained: trace-constant
// fields (length, memory, change point) are read from the trace's
// columns, the outcome accumulates in tot until completion writes it
// out, and the default failure process lives in the entry itself
// (renewal/procRNG/pareto), so running one task touches a handful of
// adjacent cache lines instead of a scattered object graph. Because
// proc points into the entry, a live slot never moves.
type taskRun struct {
	proc failure.Process
	// cleanup releases an in-flight blocking checkpoint operation if the
	// task is interrupted mid-write.
	cleanup func()
	// pending is the task's next scheduled simulation event; external
	// interruptions (host crashes) cancel it before rolling the task
	// back.
	pending   *simeng.Event
	placement *cluster.Placement

	// planner state (the Algorithm 1 controller, generalized to any
	// Policy; for MNOFPolicy it matches core.Adaptive step for step).
	plan
	remaining float64 // planned productive seconds left to the task end

	progress float64 // productive seconds completed since task entry
	saved    float64 // productive seconds preserved by the last checkpoint

	waitingSince float64
	segWall      float64 // wall time the current productive segment began
	// param carries the pending action's argument: the failure-time
	// progress (actFail), the milestone position (actMilestone), or the
	// completing write's wall-clock cost (actCkptDone).
	param float64
	// nextCkpt is the productive position of the next planned
	// checkpoint (+Inf when none).
	nextCkpt float64
	// startAt is the wall time the task first started (its failure
	// process's origin); failRel is the renewal process's last answer,
	// relative to startAt.
	startAt float64
	failRel float64

	slot        uint32 // own slot index
	excludeHost int32  // host to avoid on (re)placement, -1 = none
	// writeHead/writeTail delimit the task's in-flight non-blocking
	// checkpoint records in the engine's write slab (-1 = none).
	writeHead, writeTail int32
	act                  action

	// Slot-resident storage for the default failure process: proc points
	// at renewal (a renewal process over pareto driven by procRNG), so
	// starting a task allocates nothing. Switching processes and
	// plugged-in failure models fall back to the heap.
	renewal failure.Renewal
	procRNG simeng.RNG
	pareto  dist.Pareto

	// tot is last: it is written on a few events of a task's life, not
	// on every one.
	tot outcomeTotals
}

// outcomeTotals are a task's running TaskOutcome figures; the submit
// and start times are plan.submitAt and taskRun.startAt, and the
// shared-storage bit flagUsedShared.
type outcomeTotals struct {
	wait         float64
	rollbackLoss float64
	ckptCost     float64 // blocking writes
	hiddenCost   float64 // non-blocking writes
	restartCost  float64
	failures     int32
	checkpoints  int32
}

// writeOutcome fills o with the finished task's record.
func (e *engineState) writeOutcome(o *TaskOutcome, r *taskRun, now float64) {
	h := r.h
	length := e.tr.Len[h]
	// wall > 0: the task computed its positive length since startAt.
	wall := now - r.startAt
	*o = TaskOutcome{
		ID:                      e.tr.TaskID(h),
		Priority:                int(e.tr.Prio[h]),
		LengthSec:               length,
		MemMB:                   e.tr.Mem[h],
		SubmitAt:                r.submitAt,
		StartAt:                 r.startAt,
		DoneAt:                  now,
		WallSec:                 wall,
		WPR:                     length / wall,
		Failures:                int(r.tot.failures),
		Checkpoints:             int(r.tot.checkpoints),
		RollbackLossSec:         r.tot.rollbackLoss,
		CheckpointCostSec:       r.tot.ckptCost,
		HiddenCheckpointCostSec: r.tot.hiddenCost,
		RestartCostSec:          r.tot.restartCost,
		WaitSec:                 r.tot.wait,
		UsedSharedStorage:       r.flags&flagUsedShared != 0,
	}
}

// inflightWrite is a checkpoint image being written concurrently with
// computation (Algorithm 1 line 7). Records live in the engine's write
// slab, linked per task via next and recycled through the engine's
// free list, so the async path allocates only on its high-water mark.
type inflightWrite struct {
	release    func()
	event      *simeng.Event
	progressAt float64
	cost       float64
	slot       uint32 // the writing task's slot
	next       int32
	done       bool
}

// allocWrite returns a recycled write-slab index or grows the slab.
func (e *engineState) allocWrite() int32 {
	if n := len(e.freeWrites); n > 0 {
		idx := e.freeWrites[n-1]
		e.freeWrites = e.freeWrites[:n-1]
		return idx
	}
	e.writes = append(e.writes, inflightWrite{})
	return int32(len(e.writes) - 1)
}

// writeFire commits a completed non-blocking checkpoint image.
func (e *engineState) writeFire(idx uint32) {
	w := &e.writes[idx]
	w.done = true
	w.release()
	r := e.slots.at(w.slot)
	if w.progressAt > r.saved {
		r.saved = w.progressAt
		r.flags |= flagHasImage
	}
	r.tot.checkpoints++
	r.tot.hiddenCost += w.cost
	r.remaining = r.plannedLen - r.saved
	if r.remaining < 0 {
		r.remaining = r.w0
	}
}

// cancelWrites aborts all in-flight non-blocking writes (failure or
// host crash): their images never complete. Every record — aborted or
// already done — returns to the free list, in write order, matching the
// release order of the pre-slab engine.
func (e *engineState) cancelWrites(r *taskRun) {
	for idx := r.writeHead; idx >= 0; {
		w := &e.writes[idx]
		next := w.next
		if !w.done {
			w.event.Cancel()
			w.release()
		}
		*w = inflightWrite{}
		e.freeWrites = append(e.freeWrites, idx)
		idx = next
	}
	r.writeHead, r.writeTail = -1, -1
}

// purgeDoneWrites unlinks completed records from a task's write list,
// returning them to the free list while preserving the order of the
// still-pending ones.
func (e *engineState) purgeDoneWrites(r *taskRun) {
	prev := int32(-1)
	for idx := r.writeHead; idx >= 0; {
		w := &e.writes[idx]
		next := w.next
		if w.done {
			if prev >= 0 {
				e.writes[prev].next = next
			} else {
				r.writeHead = next
			}
			if r.writeTail == idx {
				r.writeTail = prev
			}
			*w = inflightWrite{}
			e.freeWrites = append(e.freeWrites, idx)
		} else {
			prev = idx
		}
		idx = next
	}
}

// backendOf returns the checkpoint backend chosen for the task at
// submission.
func (e *engineState) backendOf(r *taskRun) storage.Backend {
	if r.flags&flagShared != 0 {
		return e.shared
	}
	return e.local
}

// scheduleTask registers the task's single next action, remembering the
// event so an external interruption can cancel it.
func (e *engineState) scheduleTask(r *taskRun, at float64, act action) {
	r.act = act
	r.pending = e.sim.ScheduleIndexed(at, 0, e.taskFireFn, r.slot)
}

// taskFire executes the pending action of the task in slot s. It is the
// engine-wide callback every task event dispatches through.
func (e *engineState) taskFire(s uint32) {
	r := e.slots.at(s)
	h := r.h
	act := r.act
	r.act = actNone
	switch act {
	case actStep:
		e.stepTask(r)
	case actFail:
		// The task computed from the segment start until the failure
		// struck; that partial progress is lost to the rollback unless
		// checkpointed.
		r.flags &^= flagComputing
		r.progress = r.param
		e.failAndRequeue(r, e.sim.Now())
	case actMilestone:
		r.flags &^= flagComputing
		milestone := r.param
		r.progress = milestone
		length := e.tr.Len[h]
		switch {
		case milestone == length:
			e.complete(r)
		case milestone == e.changePoint(r):
			e.onPriorityChange(r)
		case e.cfg.NonBlockingCheckpoints:
			e.startAsyncCheckpoint(r)
			e.stepTask(r)
		default:
			e.beginCheckpoint(r)
		}
	case actCkptFail:
		// Failure mid-checkpoint: the write never completes.
		release := r.cleanup
		r.cleanup = nil
		release()
		e.failAndRequeue(r, e.sim.Now())
	case actCkptDone:
		e.finishCheckpoint(r)
	case actRequeue:
		// The polling thread detected the interruption; the task
		// re-enters the queue's restart lane.
		e.queue.PushRestart(s, e.tr.Mem[h])
		e.scheduleDispatch()
	}
}

// changePoint returns the productive position of the task's pending
// priority change, +Inf when none remains. The expression matches the
// one stepTask uses to pick the milestone, so the classification
// compares bit-identical floats.
func (e *engineState) changePoint(r *taskRun) float64 {
	if e.tr.ChangePrio[r.h] != 0 && r.flags&flagChangeFired == 0 {
		return e.tr.Len[r.h] * e.tr.ChangeFrac[r.h]
	}
	return math.Inf(1)
}

// interrupt preempts the task from outside its own event chain (host
// crash): the next scheduled event is canceled, any in-flight
// checkpoint is released, partial productive work since the segment
// start is accounted, and the task rolls back and requeues.
func (e *engineState) interrupt(r *taskRun, now float64) {
	r.pending.Cancel()
	r.pending = nil
	r.act = actNone
	if r.cleanup != nil {
		r.cleanup()
		r.cleanup = nil
	}
	if r.flags&flagComputing != 0 {
		// progress is still the segment-start value while computing.
		r.progress += now - r.segWall
		r.flags &^= flagComputing
	}
	e.failAndRequeue(r, now)
}

// initPlan plans task h at its submission time.
func (e *engineState) initPlan(p *plan, h uint32, now float64) {
	est := e.estimateFor(h, int(e.tr.Prio[h]))
	*p = plan{submitAt: now, h: h}
	backend, shared := e.chooseBackend(h, est)
	if shared {
		p.flags |= flagShared
	}
	if backend.Kind() != storage.KindLocal {
		p.flags |= flagUsedShared
	}
	p.ckptCost = storage.PlannedCheckpointCost(backend, e.tr.Mem[h])
	p.plannedLen = e.tr.Len[h]
	if e.cfg.Predictor != nil {
		p.plannedLen = e.cfg.Predictor.Predict(e.tr.Task(h))
		if p.plannedLen < 1 {
			p.plannedLen = 1
		}
	}
	e.divide(p, p.plannedLen, est)
}

// divide sets p's equidistant plan for `remaining` planned productive
// seconds from the given estimate, the Algorithm 1 lines 3-4 / 10-12
// step.
func (e *engineState) divide(p *plan, remaining float64, est core.Estimate) {
	// Scale a whole-task estimate to the remaining planned workload.
	scaled := est
	if p.plannedLen > 0 {
		scaled.MNOF = est.MNOF * remaining / p.plannedLen
	}
	x := e.cfg.Policy.Intervals(remaining, p.ckptCost, scaled)
	x = core.ClampIntervals(x, remaining, p.ckptCost)
	p.intervals = int32(x)
	if remaining > 0 {
		p.w0 = remaining / float64(x)
	} else {
		p.w0 = 0
	}
}

// planNext places the task's next planned checkpoint one spacing past
// base, or at +Inf on the plan's last interval (intervals <= 1), which
// ends at the task's end, not at a checkpoint. It is the only writer
// of nextCkpt, so a checkpoint milestone fires only while
// intervals > 1.
func (r *taskRun) planNext(base float64) {
	if r.intervals > 1 {
		r.nextCkpt = base + r.w0
	} else {
		r.nextCkpt = math.Inf(1)
	}
}

// replan recomputes a running task's plan for its remaining workload.
func (e *engineState) replan(r *taskRun, est core.Estimate) {
	e.divide(&r.plan, r.remaining, est)
	r.planNext(r.progress)
}

// start begins (or resumes) execution on a granted placement at time
// `at` (dispatch adds the scheduling delay before work begins).
func (e *engineState) start(r *taskRun, p *cluster.Placement, at float64) {
	r.placement = p
	r.tot.wait += e.sim.Now() - r.waitingSince
	if r.flags&flagHasImage != 0 {
		// Restore from the checkpoint image: restart cost by migration
		// type (Table 5 via the backend that holds the image).
		restart := e.backendOf(r).RestartCost(e.tr.Mem[r.h])
		r.tot.restartCost += restart
		at += restart
	}
	// With no image yet the task launches, or relaunches from scratch
	// (progress is already rolled back to zero); only the scheduling
	// delay applies.
	e.scheduleTask(r, at, actStep)
}

// nextFailureAbs returns the absolute simulation time of the next
// failure event after `now`.
func (e *engineState) nextFailureAbs(r *taskRun, now float64) float64 {
	t := now - r.startAt
	var rel float64
	if r.flags&flagRenewal != 0 {
		// Most tasks keep their priority, so proc is the slot-resident
		// renewal process. Its answer stays the first failure after t
		// while t, which only moves forward, stays below it, and
		// NextAfter draws only when t passes its cursor — so asking again
		// only when t reaches the last answer skips no draw.
		if t >= r.failRel {
			r.failRel = r.renewal.NextAfter(t)
		}
		rel = r.failRel
	} else {
		rel = r.proc.NextAfter(t)
	}
	if math.IsInf(rel, 1) {
		return math.Inf(1)
	}
	return r.startAt + rel
}

// stepTask runs the task from the current instant to its next
// milestone: priority change, checkpoint, completion — or a failure
// preempting any of them. Exactly one follow-up event is scheduled per
// invocation.
func (e *engineState) stepTask(r *taskRun) {
	now := e.sim.Now()

	// Next productive milestone. No milestone lies behind progress:
	// nextCkpt >= progress (planNext always adds a spacing to a position
	// progress has reached), progress <= length, and progress <= the
	// change point until the change fires, since every segment stops
	// there and a rollback only moves progress back.
	// Manual min instead of math.Min: these are positive or +Inf (never
	// NaN or -0), so plain compares give the same result without the
	// special-case branches on the hot path.
	milestone := e.tr.Len[r.h]
	if changeAt := e.changePoint(r); changeAt < milestone {
		milestone = changeAt
	}
	if r.nextCkpt < milestone {
		milestone = r.nextCkpt
	}
	eventAt := now + (milestone - r.progress)

	// Mark the productive segment so an external interruption can
	// account partial work done before it fired (progress itself stays
	// at the segment-start value until the segment's event fires).
	r.flags |= flagComputing
	r.segWall = now

	if fail := e.nextFailureAbs(r, now); fail < eventAt {
		r.param = r.progress + (fail - now)
		e.scheduleTask(r, fail, actFail)
		return
	}

	r.param = milestone
	e.scheduleTask(r, eventAt, actMilestone)
}

// failAndRequeue rolls the task back to its last checkpoint, releases
// its VM, and requeues it for restart on another host.
func (e *engineState) failAndRequeue(r *taskRun, now float64) {
	lost := r.progress - r.saved
	if lost < 0 {
		lost = 0
	}
	r.tot.failures++
	r.tot.rollbackLoss += lost
	r.progress = r.saved
	// In-flight non-blocking writes never complete; their images are
	// lost with the VM.
	e.cancelWrites(r)
	// remaining tracks Te - saved (un-checkpointed work), which the
	// rollback does not change, and Theorem 2 keeps the plan's spacing
	// and positions fixed (the next position is re-derived from the
	// preserved spacing) — nothing to recompute here.
	r.planNext(r.saved)

	// Only a running task fails, so it holds its placement. It restarts
	// on another host: with hosts > 1 one always exists.
	r.excludeHost = int32(r.placement.HostID)
	e.cl.Release(r.placement)
	r.placement = nil
	r.waitingSince = now + detectionDelay

	// The polling thread detects the interruption after the detection
	// delay, then the task re-enters the queue's restart lane.
	e.scheduleTask(r, now+detectionDelay, actRequeue)
	e.scheduleDispatch()
}

// onPriorityChange fires when productive progress crosses the change
// point: the failure distribution already switched (the process was
// built with the switch); the dynamic algorithm additionally re-reads
// MNOF and replans (Algorithm 1 lines 9-12), while the static variant
// keeps its original plan — the Figure 14 comparison.
func (e *engineState) onPriorityChange(r *taskRun) {
	r.flags |= flagChangeFired
	if e.cfg.Dynamic {
		e.replan(r, e.estimateFor(r.h, int(e.tr.ChangePrio[r.h])))
	}
	e.stepTask(r)
}

// beginCheckpoint writes a checkpoint image; a failure arriving before
// the write finishes destroys the in-progress image and rolls back to
// the previous one. A checkpointing task is running, so it holds its
// placement.
func (e *engineState) beginCheckpoint(r *taskRun) {
	now := e.sim.Now()
	cost, release := e.backendOf(r).Begin(r.placement.HostID, e.tr.Mem[r.h])
	doneAt := now + cost
	r.cleanup = release

	if fail := e.nextFailureAbs(r, now); fail < doneAt {
		e.scheduleTask(r, fail, actCkptFail)
		return
	}
	r.param = cost
	e.scheduleTask(r, doneAt, actCkptDone)
}

// finishCheckpoint commits a completed blocking checkpoint write (whose
// cost rode in param) and advances the plan.
func (e *engineState) finishCheckpoint(r *taskRun) {
	release := r.cleanup
	r.cleanup = nil
	release()
	r.saved = r.progress
	r.flags |= flagHasImage
	r.tot.checkpoints++
	r.tot.ckptCost += r.param
	r.remaining = r.plannedLen - r.saved
	if r.remaining < 0 {
		// An under-predicting parser: the task has outrun its plan.
		r.remaining = r.w0
	}
	// A checkpoint milestone fires only while intervals > 1 (planNext),
	// so the plan has an interval to spend.
	r.intervals--
	r.planNext(r.saved)
	e.stepTask(r)
}

// startAsyncCheckpoint launches a checkpoint write in a separate thread
// (Algorithm 1 line 7): the caller continues computing immediately; the
// image becomes restorable only when the write completes. The plan
// advances at write start, so the countdown to the next checkpoint is
// not blocked by the write.
func (e *engineState) startAsyncCheckpoint(r *taskRun) {
	now := e.sim.Now()
	cost, release := e.backendOf(r).Begin(r.placement.HostID, e.tr.Mem[r.h])
	// Purge completed records into the free list, then append the new
	// one at the tail of the task's write list.
	e.purgeDoneWrites(r)
	idx := e.allocWrite()
	w := &e.writes[idx]
	*w = inflightWrite{release: release, progressAt: r.progress, cost: cost, slot: r.slot, next: -1}
	w.event = e.sim.ScheduleIndexed(now+cost, 0, e.writeFireFn, uint32(idx))
	if r.writeTail >= 0 {
		e.writes[r.writeTail].next = idx
	} else {
		r.writeHead = idx
	}
	r.writeTail = idx

	// Advance the plan exactly as the blocking path does.
	r.intervals--
	r.planNext(r.progress)
}

// complete finishes the task, which is running and so holds its
// placement.
func (e *engineState) complete(r *taskRun) {
	// In-flight async writes are moot once the task has finished.
	e.cancelWrites(r)
	e.cl.Release(r.placement)
	r.placement = nil
	e.onTaskDone(r, e.sim.Now())
}
