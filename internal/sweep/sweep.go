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

// Map runs fn(0..n-1) across a pool of workers and returns the results
// in index order. The error is the join of every per-index error (nil
// when all succeed); results at failed indices hold fn's zero-valued
// return. Output is independent of the worker count and of goroutine
// scheduling as long as fn(i) depends only on i and read-only state.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapContext(context.Background(), n, workers, fn)
}

// MapContext is Map with cooperative cancellation. Once ctx is done,
// workers stop claiming new indices, but every fn call already in
// flight is drained to completion before MapContext returns — a
// per-index error therefore never races with a worker still writing
// into the results slice. Skipped indices record ctx.Err(), and the
// returned error is errors.Join over every per-index error, canceled
// and organic alike.
//
// Workers claim indices in contiguous chunks (see AutoChunk) to
// amortize the claim-counter contention when runs are small; results
// stay index-addressed, so chunking never affects what is computed or
// where it lands.
func MapContext[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapChunkedContext(ctx, n, workers, 0, fn)
}

// AutoChunk returns the chunk size MapContext uses when none is forced:
// small sweeps stay at one index per claim (maximum load balancing),
// large sweeps hand each worker runs of indices so the shared counter
// is touched ~4 times per worker instead of once per index.
func AutoChunk(n, workers int) int {
	if workers <= 1 || n <= workers*4 {
		return 1
	}
	chunk := n / (workers * 4)
	if chunk > 64 {
		chunk = 64
	}
	return chunk
}

// MapChunkedContext is MapContext with an explicit chunk size: workers
// claim `chunk` consecutive indices per visit to the shared counter
// (chunk <= 0 selects AutoChunk). Cancellation remains per-index: a
// worker mid-chunk records ctx.Err() for the chunk's remaining indices
// without calling fn.
func MapChunkedContext[T any](ctx context.Context, n, workers, chunk int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if chunk <= 0 {
		chunk = AutoChunk(n, w)
	}
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

// DeriveSeed deterministically derives the seed for run index i from a
// base seed: two SplitMix64 finalization rounds over (baseSeed,
// runIndex). Parallel and serial sweeps therefore assign identical
// seeds regardless of scheduling, and adjacent indices land in
// statistically independent streams.
func DeriveSeed(base uint64, index int) uint64 {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	z := mix(base + 0x9e3779b97f4a7c15)
	return mix(z + (uint64(index)+1)*0x9e3779b97f4a7c15)
}

// Run is one sweep entry: a scenario plus an optional pinned seed.
// With Pinned set, Seed is used verbatim (any value, including 0);
// otherwise the seed derives from the sweep's base seed and the run
// index. Paired comparisons (the same trace under two policies) pin
// the same seed on both entries.
type Run struct {
	Scenario scenario.Scenario
	Seed     uint64
	Pinned   bool
	// Trace, when non-nil, replays this exact trace instead of
	// materializing Scenario.Workload. Explicit traces bypass the
	// (seed, workload) sharing cache; the history estimator, when the
	// scenario calls for one, is built from this trace per run.
	Trace *trace.Trace
}

// Pin returns a run that executes the scenario under exactly the given
// seed.
func Pin(sc scenario.Scenario, seed uint64) Run {
	return Run{Scenario: sc, Seed: seed, Pinned: true}
}

// Outcome is one run's result. Err is per-run: a failing run never
// aborts its siblings.
type Outcome struct {
	Name   string
	Seed   uint64
	Result *engine.Result
	Err    error
	// Skipped reports that Options.Only excluded the run: nothing
	// executed, Result and Err are nil, and the caller fills the slot
	// from its own records or leaves it to another worker.
	Skipped bool

	index int // position in the sweep, for progress streaming
}

// Options configures a scenario sweep.
type Options struct {
	// BaseSeed feeds DeriveSeed for runs without a pinned seed.
	BaseSeed uint64
	// DefaultJobs sizes workloads that do not pin their own size
	// (0 means DefaultJobs).
	DefaultJobs int
	// Workers is the pool size (0 means GOMAXPROCS).
	Workers int
	// Batch is the number of consecutive runs a worker claims per visit
	// to the shared counter; 0 selects AutoChunk. Results are identical
	// for every value — batching changes scheduling overhead, never
	// outputs.
	Batch int
	// OnRunStart / OnRunDone, when non-nil, observe individual engine
	// runs as the pool picks them up and finishes them. Both may be
	// called concurrently from worker goroutines; neither may block for
	// long or the pool stalls.
	OnRunStart func(index int, name string, seed uint64)
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
	// none of the run callbacks fire for it. Because per-run seeds derive
	// only from (BaseSeed, index), running just the missing indices of
	// an interrupted sweep produces results identical to the
	// uninterrupted run.
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

// estKey identifies a history estimator: the trace plus the estimation
// length limits.
type estKey struct {
	tk     traceKey
	limits string
}

// Scenarios materializes and executes a scenario list. Traces are
// generated once per distinct (seed, workload) pair and history
// estimators once per distinct (trace, limits) pair — both fanned over
// the pool — then every engine run executes in parallel against the
// shared read-only inputs. The returned slice is index-aligned with
// runs; output is byte-identical for any worker count.
func Scenarios(runs []Run, opt Options) []Outcome {
	return ScenariosContext(context.Background(), runs, opt)
}

// ScenariosContext is Scenarios with cooperative cancellation: once ctx
// is done, no further engine run starts, in-flight runs stop at their
// next event chunk, and every unfinished outcome records ctx.Err().
// In-flight workers are always drained before the call returns.
func ScenariosContext(ctx context.Context, runs []Run, opt Options) []Outcome {
	n := len(runs)
	outs := make([]Outcome, n)
	seeds := make([]uint64, n)
	for i, r := range runs {
		seeds[i] = r.Seed
		if !r.Pinned {
			seeds[i] = DeriveSeed(opt.BaseSeed, i)
		}
		name := r.Scenario.Name
		if name == "" {
			name = fmt.Sprintf("run-%d", i)
		}
		outs[i] = Outcome{Name: name, Seed: seeds[i], index: i}
	}
	defaultJobs := opt.DefaultJobs
	if defaultJobs <= 0 {
		defaultJobs = DefaultJobs
	}

	// wantsSharedEstimator reports whether run i consumes a cached
	// history estimator: priority estimation without an explicit trace
	// or a plugged-in statistics source.
	wantsSharedEstimator := func(r Run) bool {
		return r.Trace == nil &&
			r.Scenario.Estimates == engine.EstimatePriority &&
			r.Scenario.CustomEstimator == nil
	}

	// Phase 1: materialize each distinct workload once, in parallel.
	// Runs carrying an explicit trace bypass the cache; skipped runs
	// never execute, so their inputs are not materialized either.
	var traceOrder []traceKey
	traceIdx := make(map[traceKey]int, n)
	for i, r := range runs {
		if r.Trace != nil || opt.skipped(i) {
			continue
		}
		k := traceKey{seed: seeds[i], w: r.Scenario.Workload}
		if _, ok := traceIdx[k]; !ok {
			traceIdx[k] = len(traceOrder)
			traceOrder = append(traceOrder, k)
		}
	}
	traces, _ := MapContext(ctx, len(traceOrder), opt.Workers, func(i int) (*trace.Trace, error) {
		k := traceOrder[i]
		return k.w.Materialize(k.seed, defaultJobs), nil
	})

	// Phase 2: build each distinct history estimator once, in parallel.
	// Estimators always see the full trace (including the service tier),
	// the paper's estimate-from-the-whole-history methodology.
	var estOrder []estKey
	estIdx := make(map[estKey]int, n)
	for i, r := range runs {
		if opt.skipped(i) || !wantsSharedEstimator(r) {
			continue
		}
		k := estKey{
			tk:     traceKey{seed: seeds[i], w: r.Scenario.Workload},
			limits: fmt.Sprint(r.Scenario.EffectiveLimits()),
		}
		if _, ok := estIdx[k]; !ok {
			estIdx[k] = len(estOrder)
			estOrder = append(estOrder, k)
		}
	}
	estLimits := make([][]float64, len(estOrder))
	for i, r := range runs {
		if opt.skipped(i) || !wantsSharedEstimator(r) {
			continue
		}
		k := estKey{
			tk:     traceKey{seed: seeds[i], w: r.Scenario.Workload},
			limits: fmt.Sprint(r.Scenario.EffectiveLimits()),
		}
		estLimits[estIdx[k]] = r.Scenario.EffectiveLimits()
	}
	estimators, _ := MapContext(ctx, len(estOrder), opt.Workers, func(i int) (*core.HistoryEstimator, error) {
		k := estOrder[i]
		tr := traces[traceIdx[k.tk]]
		if tr == nil {
			return nil, ctx.Err()
		}
		return trace.BuildEstimator(tr, estLimits[i]), nil
	})

	// Phase 3: fan the engine runs across the pool, batched per worker.
	MapChunkedContext(ctx, n, opt.Workers, opt.Batch, func(i int) (struct{}, error) {
		if opt.skipped(i) {
			outs[i].Skipped = true
			return struct{}{}, nil
		}
		if opt.OnRunStart != nil {
			opt.OnRunStart(i, outs[i].Name, seeds[i])
		}
		outs[i] = runOne(ctx, runs[i], outs[i], seeds[i], opt, traces, traceIdx, estimators, estIdx)
		if opt.OnRunDone != nil {
			opt.OnRunDone(i, outs[i])
		}
		return struct{}{}, nil
	})
	// Runs the pool never reached (cancellation) still owe an outcome;
	// skipped runs owe nothing — their slots stay empty by design.
	if err := ctx.Err(); err != nil {
		for i := range outs {
			if opt.skipped(i) {
				outs[i].Skipped = true // cancellation may beat the pool to the slot
				continue
			}
			if outs[i].Result == nil && outs[i].Err == nil {
				outs[i].Err = err
			}
		}
	}
	return outs
}

// runOne executes a single sweep entry against the shared materialized
// inputs and returns its completed outcome.
func runOne(ctx context.Context, r Run, out Outcome, seed uint64, opt Options,
	traces []*trace.Trace, traceIdx map[traceKey]int,
	estimators []*core.HistoryEstimator, estIdx map[estKey]int) Outcome {

	sc := r.Scenario
	cfg, err := sc.EngineConfig(seed)
	if err != nil {
		out.Err = err
		return out
	}
	if opt.Progress != nil {
		index := out.index
		cfg.Progress = func(events uint64, now float64) { opt.Progress(index, events, now) }
	}
	// The stride also paces the engine's ctx-cancellation polls, so it
	// applies with or without a progress callback.
	cfg.ProgressEvery = opt.ProgressEvery

	tr := r.Trace
	if tr == nil {
		tr = traces[traceIdx[traceKey{seed: seed, w: sc.Workload}]]
		if tr == nil { // materialization was skipped by cancellation
			out.Err = ctx.Err()
			return out
		}
	}
	replay := tr
	if !sc.ReplayAll {
		replay = tr.BatchJobs()
	}
	var est *core.HistoryEstimator
	if cfg.Estimates == engine.EstimatePriority && cfg.CustomEstimator == nil {
		if r.Trace != nil {
			est = trace.BuildEstimator(tr, sc.EffectiveLimits())
		} else {
			est = estimators[estIdx[estKey{
				tk:     traceKey{seed: seed, w: sc.Workload},
				limits: fmt.Sprint(sc.EffectiveLimits()),
			}]]
			if est == nil {
				out.Err = ctx.Err()
				return out
			}
		}
	}
	out.Result, out.Err = engine.RunWithEstimatorContext(ctx, cfg, replay, est)
	return out
}

// Results unwraps a sweep's outcomes into engine results, failing on
// the first per-run error (wrapped with the run name).
func Results(outs []Outcome) ([]*engine.Result, error) {
	results := make([]*engine.Result, len(outs))
	for i, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("sweep: %s: %w", out.Name, out.Err)
		}
		results[i] = out.Result
	}
	return results, nil
}
