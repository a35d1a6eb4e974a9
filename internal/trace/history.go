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
// index i, only tasks with LengthSec <= limits[i] contribute. The walk
// covers the trace's selected jobs, tasks in trace order.
//
// The replays are independent, so a trace of more than one
// estimatorChunk of tasks is walked on up to GOMAXPROCS goroutines, a
// chunk at a time; the calling goroutine still folds every task's
// observations in task order, so each group's float sums accumulate
// exactly as a one-goroutine walk would.
func BuildEstimator(tr *Trace, limits []float64) *core.HistoryEstimator {
	chunks := (tr.NumTasks() + estimatorChunk - 1) / estimatorChunk
	return buildEstimator(tr, limits, min(runtime.GOMAXPROCS(0), chunks))
}

// estimatorChunk is about the number of tasks one goroutine replays at
// a time: chunks hold whole jobs, cut once they reach it. A chunk's
// results buffer is about 430 KB, and at most fan-out + 1 are alive.
const estimatorChunk = 4096

// taskHistory is what one task's replay contributes to the estimator.
type taskHistory struct {
	intervals [maxIntervalsPerTask]float64
	failures  int32
	n         uint8
}

// estimatorChunks cuts tr's selected jobs into chunks of whole jobs,
// each ending at the first job that brings it to estimatorChunk tasks:
// chunk c is selected jobs [bounds[c], bounds[c+1]). size is the
// largest chunk's task count.
func estimatorChunks(tr *Trace) (bounds []int, size int) {
	bounds = []int{0}
	tasks := 0
	for i := 0; i < tr.NumJobs(); i++ {
		first, limit := tr.TasksOf(tr.Job(i))
		if tasks += int(limit - first); tasks >= estimatorChunk || i == tr.NumJobs()-1 {
			bounds = append(bounds, i+1)
			size = max(size, tasks)
			tasks = 0
		}
	}
	return bounds, size
}

// buildEstimator is BuildEstimator at the given fan-out; at fan-out 1
// the walk stays on the calling goroutine.
func buildEstimator(tr *Trace, limits []float64, fanout int) *core.HistoryEstimator {
	if len(limits) == 0 {
		limits = DefaultLengthLimits
	}
	est := core.NewHistoryEstimator()
	observe := func(h uint32, hist *taskHistory) {
		for li, limit := range limits {
			if tr.Len[h] <= limit {
				est.ObserveTask(core.GroupKey(int(tr.Prio[h]), li), int(hist.failures), hist.intervals[:hist.n])
			}
		}
	}
	// walk calls f on every task of selected jobs [from, to) with its
	// position in that range.
	walk := func(from, to int, f func(k int, h uint32)) {
		k := 0
		for i := from; i < to; i++ {
			first, limit := tr.TasksOf(tr.Job(i))
			for h := first; h < limit; h++ {
				f(k, h)
				k++
			}
		}
	}
	if fanout <= 1 {
		var w historyWalker
		var hist taskHistory
		walk(0, tr.NumJobs(), func(_ int, h uint32) {
			w.replay(tr, h, &hist)
			observe(h, &hist)
		})
		return est
	}

	// Workers claim chunks in order, each into a free buffer, and hand
	// it over on the chunk's own channel; the fold takes the chunks in
	// order and frees their buffers. A claimed chunk always holds a
	// buffer, so the chunk the fold waits for is always in progress.
	// free has room for every buffer, so returning one never blocks.
	bounds, size := estimatorChunks(tr)
	chunks := len(bounds) - 1
	done := make([]chan []taskHistory, chunks)
	for i := range done {
		done[i] = make(chan []taskHistory, 1)
	}
	free := make(chan []taskHistory, fanout+1)
	for i := 0; i < fanout+1; i++ {
		free <- make([]taskHistory, size)
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
				walk(bounds[c], bounds[c+1], func(k int, h uint32) { w.replay(tr, h, &buf[k]) })
				done[c] <- buf
			}
		}()
	}
	for c := range done {
		buf := <-done[c]
		walk(bounds[c], bounds[c+1], func(k int, h uint32) { observe(h, &buf[k]) })
		free <- buf
	}
	wg.Wait()
	return est
}

// historyWalker replays tasks' failure processes in slab-resident state,
// reinitialized per task: the common no-priority-change task then
// replays without allocating, exactly as the engine's run slots do.
type historyWalker struct {
	ren failure.Renewal
	rng simeng.RNG
	par dist.Pareto
}

// replay walks task h's failure process into hist, collecting both
// statistics in one pass, and stops as soon as the count horizon is
// passed and the interval quota is full — the estimator keeps at most
// maxIntervalsPerTask samples, so replaying the full observation window
// (25x the task length) would discard almost every draw it generates.
func (w *historyWalker) replay(tr *Trace, h uint32, hist *taskHistory) {
	length := tr.Len[h]
	proc := InitFailureProcess(int(tr.Prio[h]), length, tr.Seed[h],
		int(tr.ChangePrio[h]), tr.ChangeFrac[h], &w.ren, &w.rng, &w.par)
	window := observationWindow(length)
	hist.failures, hist.n = 0, 0
	prev, t := 0.0, 0.0
	for {
		next := proc.NextAfter(t)
		if math.IsInf(next, 1) || next > window {
			return
		}
		if next <= length {
			hist.failures++
		}
		if hist.n < maxIntervalsPerTask {
			hist.intervals[hist.n] = next - prev
			hist.n++
		} else if next > length {
			return
		}
		prev, t = next, next
	}
}

// EstimateFor returns the Estimate for a task of the given priority and
// productive length under the given estimator and limit index, falling
// back across limit indices and finally to a pooled all-priority
// estimate when a group has no history.
func EstimateFor(est *core.HistoryEstimator, priority int, lengthSec float64, limits []float64) core.Estimate {
	if len(limits) == 0 {
		limits = DefaultLengthLimits
	}
	// Pick the tightest limit that admits this task.
	for li, limit := range limits {
		if lengthSec <= limit {
			e := est.Estimate(core.GroupKey(priority, li))
			if e.MNOF > 0 || e.MTBF > 0 {
				return e
			}
		}
	}
	// Fall back to the loosest group for the priority.
	e := est.Estimate(core.GroupKey(priority, len(limits)-1))
	return e
}

// FailureIntervalSamples returns the uninterrupted-interval samples the
// history estimator sees (each task's first maxIntervalsPerTask over
// its observation window, by the estimator's own replay), optionally
// filtered to a maximum interval value — the dataset behind Figures 4
// and 5.
func FailureIntervalSamples(tr *Trace, maxInterval float64) []float64 {
	var out []float64
	var w historyWalker
	var hist taskHistory
	for h := range tr.Tasks() {
		w.replay(tr, h, &hist)
		for _, iv := range hist.intervals[:hist.n] {
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
				task := Task{
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
