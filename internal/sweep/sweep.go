package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// DefaultJobs is the trace size used when neither the workload nor the
// sweep options pin one.
const DefaultJobs = 2000

// Workers resolves a requested worker count: positive values pass
// through, anything else becomes GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// MapContext runs fn(0..n-1) across a pool of workers and returns the
// results in index order. Results at failed indices hold fn's
// zero-valued return, and the error joins every per-index error (nil
// when all succeed). Output is independent of the worker count and of
// goroutine scheduling as long as fn(i) depends only on i and read-only
// state.
//
// Once ctx is done, workers stop claiming new indices, but every fn
// call already in flight is drained to completion before MapContext
// returns — a per-index error therefore never races with a worker still
// writing into the results slice. Skipped indices record ctx.Err(),
// which the returned error joins like any other.
//
// Workers claim indices in contiguous chunks (see autoChunk) to
// amortize the claim-counter contention when runs are small; results
// stay index-addressed, so chunking never affects what is computed or
// where it lands. Cancellation remains per-index: a worker mid-chunk
// records ctx.Err() for the chunk's remaining indices without calling
// fn.
func MapContext[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	chunk := autoChunk(n, w)
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64 // the shared claim counter
	body := func() {
		for {
			end := int(next.Add(int64(chunk)))
			start := end - chunk
			if start >= n {
				return
			}
			for i := start; i < min(end, n); i++ {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = fn(i)
			}
		}
	}
	if w <= 1 {
		body()
		return results, errors.Join(errs...)
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// autoChunk returns the number of consecutive indices a worker claims
// per visit to the shared counter: small sweeps stay at one index per
// claim (maximum load balancing), large sweeps hand each worker runs of
// indices so the counter is touched ~4 times per worker instead of once
// per index.
func autoChunk(n, workers int) int {
	if workers <= 1 || n <= workers*4 {
		return 1
	}
	chunk := n / (workers * 4)
	if chunk > 64 {
		chunk = 64
	}
	return chunk
}

// Run is one sweep entry: a scenario and the seed it runs under, used
// verbatim (0 included). Paired comparisons (the same trace under two
// policies) give both entries the same seed.
type Run struct {
	Scenario scenario.Scenario
	Seed     uint64
}

// Outcome is one run's result. Err is per-run: a failing run never
// aborts its siblings.
type Outcome struct {
	Result *engine.Result
	Err    error
	// Skipped reports that Options.Only excluded the run: nothing
	// executed, Result and Err are nil, and the caller fills the slot
	// from its own records or leaves it to another worker.
	Skipped bool
}

// Options configures a scenario sweep.
type Options struct {
	// DefaultJobs sizes workloads that do not pin their own size
	// (0 means DefaultJobs).
	DefaultJobs int
	// Workers is the pool size (0 means GOMAXPROCS).
	Workers int
	// OnRunStart / OnRunDone, when non-nil, observe individual engine
	// runs as the pool picks them up and finishes them. Both may be
	// called concurrently from worker goroutines; neither may block for
	// long or the pool stalls.
	OnRunStart func(index int)
	OnRunDone  func(index int, out Outcome)
	// Progress, when non-nil, streams in-run progress (fired events and
	// the simulated clock) roughly every ProgressEvery events; same
	// concurrency caveats as the run callbacks.
	Progress func(index int, events uint64, simNow float64)
	// ProgressEvery is the event stride between Progress calls
	// (0 means the engine default).
	ProgressEvery uint64
	// Only, when non-nil, restricts the sweep to the indices it maps to
	// true — the resume and remote-claim hook. An excluded index gets an
	// Outcome with Skipped set and no Result; its trace and estimator
	// are not materialized (unless an included sibling shares them), and
	// none of the run callbacks fire for it.
	Only map[int]bool
}

// skipped reports whether Only excludes index i.
func (o Options) skipped(i int) bool { return o.Only != nil && !o.Only[i] }

// traceKey identifies a materialized trace: workloads are comparable
// value types, so identical (seed, workload) pairs share one trace.
type traceKey struct {
	seed uint64
	w    scenario.Workload
}

// estKey identifies a history estimator: the trace's slot plus the
// estimation length limits.
type estKey struct {
	trace  int
	limits string
}

// noSlot marks a run that uses no shared trace or estimator.
const noSlot = -1

// ScenariosContext materializes and executes a scenario list. Traces
// are generated once per distinct (seed, workload) pair and history
// estimators once per distinct (trace, limits) pair — both fanned over
// the pool — then every engine run executes in parallel against the
// shared read-only inputs. The returned slice is index-aligned with
// runs; output is byte-identical for any worker count.
//
// The error joins every per-run error as "<name>: <err>", where name is
// the run's Scenario.Name. Once ctx is done, no further engine run
// starts, in-flight runs stop at their next event chunk, and every
// unfinished outcome records ctx.Err(). In-flight workers are always
// drained before the call returns.
func ScenariosContext(ctx context.Context, runs []Run, opt Options) ([]Outcome, error) {
	n := len(runs)
	defaultJobs := opt.DefaultJobs
	if defaultJobs <= 0 {
		defaultJobs = DefaultJobs
	}

	// Resolve each run's trace and estimator slot once. Skipped runs
	// never execute, so their inputs are not materialized either. A run
	// consumes a shared history estimator when it estimates by priority
	// without a plugged-in statistics source.
	traceSlot := make([]int, n)
	estSlot := make([]int, n)
	var traceOrder []traceKey
	var estOrder []estKey
	var estLimits [][]float64
	traceIdx := make(map[traceKey]int, n)
	estIdx := make(map[estKey]int, n)
	for i, r := range runs {
		traceSlot[i], estSlot[i] = noSlot, noSlot
		if opt.skipped(i) {
			continue
		}
		tk := traceKey{seed: r.Seed, w: r.Scenario.Workload}
		t, ok := traceIdx[tk]
		if !ok {
			t = len(traceOrder)
			traceIdx[tk] = t
			traceOrder = append(traceOrder, tk)
		}
		traceSlot[i] = t
		if !r.Scenario.Engine.NeedsHistory() {
			continue
		}
		limits := r.Scenario.EffectiveLimits()
		ek := estKey{trace: t, limits: fmt.Sprint(limits)}
		e, ok := estIdx[ek]
		if !ok {
			e = len(estOrder)
			estIdx[ek] = e
			estOrder = append(estOrder, ek)
			estLimits = append(estLimits, limits)
		}
		estSlot[i] = e
	}

	// Phase 1: materialize each distinct workload once, in parallel.
	traces, _ := MapContext(ctx, len(traceOrder), opt.Workers, func(i int) (*trace.Trace, error) {
		k := traceOrder[i]
		return k.w.Materialize(k.seed, defaultJobs), nil
	})

	// Phase 2: build each distinct history estimator once, in parallel.
	// Estimators always see the full trace (including the service tier),
	// the paper's estimate-from-the-whole-history methodology.
	estimators, _ := MapContext(ctx, len(estOrder), opt.Workers, func(i int) (*core.HistoryEstimator, error) {
		tr := traces[estOrder[i].trace]
		if tr == nil {
			return nil, ctx.Err()
		}
		return trace.BuildEstimator(tr, estLimits[i]), nil
	})

	// Phase 3: fan the engine runs across the pool.
	outs := make([]Outcome, n)
	MapContext(ctx, n, opt.Workers, func(i int) (struct{}, error) {
		if opt.skipped(i) {
			outs[i].Skipped = true
			return struct{}{}, nil
		}
		if opt.OnRunStart != nil {
			opt.OnRunStart(i)
		}
		var est *core.HistoryEstimator
		if e := estSlot[i]; e != noSlot {
			est = estimators[e]
		}
		outs[i] = runOne(ctx, i, runs[i], traces[traceSlot[i]], est, opt)
		if opt.OnRunDone != nil {
			opt.OnRunDone(i, outs[i])
		}
		return struct{}{}, nil
	})
	// Runs the pool never reached (cancellation) still owe an outcome;
	// skipped runs owe nothing — their slots stay empty by design.
	ctxErr := ctx.Err()
	errs := make([]error, n)
	for i := range outs {
		if opt.skipped(i) {
			outs[i].Skipped = true // cancellation may beat the pool to the slot
			continue
		}
		if ctxErr != nil && outs[i].Result == nil && outs[i].Err == nil {
			outs[i].Err = ctxErr
		}
		if outs[i].Err != nil {
			errs[i] = fmt.Errorf("%s: %w", runs[i].Scenario.Name, outs[i].Err)
		}
	}
	return outs, errors.Join(errs...)
}

// runOne executes sweep entry i against its materialized inputs: tr is
// the trace to replay (nil when cancellation skipped its
// materialization) and est the shared history estimator, when the run
// uses one.
func runOne(ctx context.Context, i int, r Run, tr *trace.Trace, est *core.HistoryEstimator, opt Options) Outcome {
	sc := r.Scenario
	cfg, err := sc.EngineConfig(r.Seed)
	if err != nil {
		return Outcome{Err: err}
	}
	if opt.Progress != nil {
		cfg.Progress = func(events uint64, now float64) { opt.Progress(i, events, now) }
	}
	// The stride also paces the engine's ctx-cancellation polls, so it
	// applies with or without a progress callback.
	cfg.ProgressEvery = opt.ProgressEvery

	if tr == nil { // materialization was skipped by cancellation
		return Outcome{Err: ctx.Err()}
	}
	replay := tr
	if !sc.ReplayAll {
		replay = tr.BatchJobs()
	}
	if cfg.NeedsHistory() && est == nil { // its build was skipped too
		return Outcome{Err: ctx.Err()}
	}
	res, err := engine.RunWithEstimatorContext(ctx, cfg, replay, est)
	return Outcome{Result: res, Err: err}
}
