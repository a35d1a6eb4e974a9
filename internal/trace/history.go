package trace

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/failure"
	"repro/internal/simeng"
)

// DefaultLengthLimits are the task-length limits of Table 7: 1000 s,
// 3600 s, and unbounded.
var DefaultLengthLimits = []float64{1000, 3600, math.Inf(1)}

// Observation-window constants for history building. The Google trace
// records each task's interruption events over its entire presence in
// the month-long trace, not just over its productive execution length:
// Figure 4 plots uninterrupted intervals of up to 30 days, and the
// paper stresses that failure-interval timestamps are unreliable while
// failure *counts* per task are easy to record. The estimator mirrors
// that asymmetry:
//
//   - MNOF: failure events within the task's productive length (what
//     strikes the task while it executes);
//   - MTBF: uninterrupted intervals observed over the task's trace
//     presence (obsWindowFactor times its length, capped at the month),
//     truncated to the first maxIntervalsPerTask samples.
//
// This is precisely the statistical trap the paper identifies: the
// interval samples include the Pareto tail, so their mean (MTBF)
// explodes, while per-task failure counts (MNOF) stay stable.
const (
	obsWindowFactor     = 25
	obsWindowCap        = 30 * 86400
	maxIntervalsPerTask = 12
)

func observationWindow(lengthSec float64) float64 {
	w := lengthSec * obsWindowFactor
	if w > obsWindowCap {
		return obsWindowCap
	}
	return w
}

// BuildEstimator replays every task's failure process and accumulates
// per-(priority, length-limit) failure history, the way the paper
// derives MNOF and MTBF "based on historical task events in the trace".
// Group keys are core.GroupKey(priority, limitIdx). For each limit
// index i, only tasks with LengthSec <= limits[i] contribute.
//
// The replays are independent, so a trace of more than one
// estimatorChunk of tasks is walked on up to GOMAXPROCS goroutines, a
// chunk at a time; the calling goroutine still folds every task's
// observations in task order, so each group's float sums accumulate
// exactly as a one-goroutine walk would.
func BuildEstimator(tr *Trace, limits []float64) *core.HistoryEstimator {
	tasks := tr.Tasks()
	chunks := (len(tasks) + estimatorChunk - 1) / estimatorChunk
	return buildEstimator(tasks, limits, min(runtime.GOMAXPROCS(0), chunks))
}

// estimatorChunk is the number of tasks one goroutine replays at a time.
// A chunk's results buffer is about 430 KB, and at most fan-out + 1 are
// alive.
const estimatorChunk = 4096

// taskHistory is what one task's replay contributes to the estimator.
type taskHistory struct {
	intervals [maxIntervalsPerTask]float64
	failures  int32
	n         uint8
}

// buildEstimator is BuildEstimator over tasks at the given fan-out; at
// fan-out 1 the walk stays on the calling goroutine.
func buildEstimator(tasks []*Task, limits []float64, fanout int) *core.HistoryEstimator {
	if len(limits) == 0 {
		limits = DefaultLengthLimits
	}
	est := core.NewHistoryEstimator()
	observe := func(task *Task, h *taskHistory) {
		for li, limit := range limits {
			if task.LengthSec <= limit {
				est.ObserveTask(core.GroupKey(task.Priority, li), int(h.failures), h.intervals[:h.n])
			}
		}
	}
	if fanout <= 1 {
		var w historyWalker
		var h taskHistory
		for _, task := range tasks {
			w.replay(task, &h)
			observe(task, &h)
		}
		return est
	}

	// Workers claim chunks in order, each into a free buffer, and hand
	// it over on the chunk's own channel; the fold takes the chunks in
	// order and frees their buffers. A claimed chunk always holds a
	// buffer, so the chunk the fold waits for is always in progress.
	// free has room for every buffer, so returning one never blocks.
	chunks := (len(tasks) + estimatorChunk - 1) / estimatorChunk
	done := make([]chan []taskHistory, chunks)
	for i := range done {
		done[i] = make(chan []taskHistory, 1)
	}
	free := make(chan []taskHistory, fanout+1)
	for i := 0; i < fanout+1; i++ {
		free <- make([]taskHistory, estimatorChunk)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(fanout)
	for i := 0; i < fanout; i++ {
		go func() {
			defer wg.Done()
			var w historyWalker
			for {
				buf := <-free
				c := int(next.Add(1)) - 1
				if c >= chunks {
					free <- buf
					return
				}
				part := tasks[c*estimatorChunk : min((c+1)*estimatorChunk, len(tasks))]
				for k, task := range part {
					w.replay(task, &buf[k])
				}
				done[c] <- buf
			}
		}()
	}
	for c := range done {
		buf := <-done[c]
		part := tasks[c*estimatorChunk : min((c+1)*estimatorChunk, len(tasks))]
		for k, task := range part {
			observe(task, &buf[k])
		}
		free <- buf
	}
	wg.Wait()
	return est
}

// historyWalker replays tasks' failure processes in slab-resident state,
// reinitialized per task: the common no-priority-change task then
// replays without allocating (the recorded-times backing is reused),
// exactly as the engine's runner slabs do. InitFailureProcess's draw
// sequence matches NewFailureProcess bit for bit.
type historyWalker struct {
	ren failure.Renewal
	rng simeng.RNG
	par dist.Pareto
}

// replay walks one task's failure process into h, collecting both
// statistics in one pass, and stops as soon as the count horizon is
// passed and the interval quota is full — the estimator keeps at most
// maxIntervalsPerTask samples, so replaying the full observation window
// (25x the task length) would discard almost every draw it generates.
func (w *historyWalker) replay(task *Task, h *taskHistory) {
	changePrio, changeFrac := 0, 0.0
	if task.Change.Active() {
		changePrio, changeFrac = task.Change.NewPriority, task.Change.AtFraction
	}
	proc := InitFailureProcess(task.Priority, task.LengthSec, task.FailureSeed,
		changePrio, changeFrac, &w.ren, &w.rng, &w.par)
	window := observationWindow(task.LengthSec)
	h.failures, h.n = 0, 0
	prev, t := 0.0, 0.0
	for {
		next := proc.NextAfter(t)
		if math.IsInf(next, 1) || next > window {
			return
		}
		if next <= task.LengthSec {
			h.failures++
		}
		if h.n < maxIntervalsPerTask {
			h.intervals[h.n] = next - prev
			h.n++
		} else if next > task.LengthSec {
			return
		}
		prev, t = next, next
	}
}

// EstimateFor returns the Estimate for a task under the given estimator
// and limit index, falling back across limit indices and finally to a
// pooled all-priority estimate when a group has no history.
func EstimateFor(est *core.HistoryEstimator, task *Task, limits []float64) core.Estimate {
	if len(limits) == 0 {
		limits = DefaultLengthLimits
	}
	// Pick the tightest limit that admits this task.
	for li, limit := range limits {
		if task.LengthSec <= limit {
			e := est.Estimate(core.GroupKey(task.Priority, li))
			if e.MNOF > 0 || e.MTBF > 0 {
				return e
			}
		}
	}
	// Fall back to the loosest group for the priority.
	e := est.Estimate(core.GroupKey(task.Priority, len(limits)-1))
	return e
}

// FailureIntervalSamples replays every task's failure process over its
// observation window and returns the uninterrupted-interval samples,
// optionally filtered to a maximum interval value — the dataset behind
// Figures 4 and 5.
func FailureIntervalSamples(tr *Trace, maxInterval float64) []float64 {
	var out []float64
	for _, task := range tr.Tasks() {
		proc := NewFailureProcess(task)
		ivs := failure.IntervalsIn(proc, observationWindow(task.LengthSec))
		if len(ivs) > maxIntervalsPerTask {
			ivs = ivs[:maxIntervalsPerTask]
		}
		for _, iv := range ivs {
			if maxInterval <= 0 || iv <= maxInterval {
				out = append(out, iv)
			}
		}
	}
	return out
}

// FailureIntervalsByPriority replays failure processes over a spectrum
// of probe-task lengths per priority, returning pooled interval samples
// per priority — the Figure 4 dataset. The probe lengths mirror the
// workload's short-to-long mix so the pooled distribution reflects what
// the trace's history estimator sees. horizon caps the longest probe
// task; n caps the number of sampled intervals per priority.
func FailureIntervalsByPriority(seedBase uint64, horizon float64, n int) map[int][]float64 {
	probeLengths := []float64{100, 300, 600, 1000, 3600, 21600}
	out := make(map[int][]float64, 12)
	for _, p := range PriorityOrder {
		var ivs []float64
		for li, length := range probeLengths {
			if length > horizon {
				length = horizon
			}
			// Several probe tasks per length so short probes still
			// contribute a fair share of samples.
			for rep := 0; rep < 40 && len(ivs) < n; rep++ {
				task := &Task{
					ID:          "probe",
					JobID:       "probe",
					Priority:    p,
					LengthSec:   length,
					MemMB:       100,
					FailureSeed: seedBase + uint64(p)*0x9e3779b97f4a7c15 + uint64(li*1000+rep),
				}
				proc := NewFailureProcess(task)
				ivs = append(ivs, failure.IntervalsIn(proc, length)...)
			}
		}
		if len(ivs) > n {
			ivs = ivs[:n]
		}
		out[p] = ivs
	}
	return out
}
