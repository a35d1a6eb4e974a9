package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/failure"
	"repro/internal/scenario"
	"repro/internal/simeng"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/sim"
)

const engineScenario = "baseline-f3"

// fingerprint is what the correctness gate compares of a run.
type fingerprint struct {
	events   uint64
	makespan float64
	meanWPR  float64
}

func fingerprintOf(res *sim.Result) fingerprint {
	return fingerprint{res.Events, res.MakespanSec, res.MeanWPR()}
}

// anchor pins a run the engine must reproduce bit for bit: a BENCH
// report cell for baseline-f3 at seed 20130601.
type anchor struct {
	jobs int
	seed uint64
	want fingerprint
}

// engineAnchor is BENCH_2026-08-08's baseline-f3@100k cell; smokeAnchor
// its 1k cell, used by the self-test.
var (
	engineAnchor = anchor{jobs: 100000, seed: 20130601, want: fingerprint{52630571, 842526.675857736, 0.8856698977455271}}
	smokeAnchor  = anchor{jobs: 1000, seed: 20130601, want: fingerprint{464934, 15928.545932959778, 0.8857859793732022}}
)

// check reports how a run of the anchor's seed missed it, or nil.
func (a anchor) check(got fingerprint) error {
	if got != a.want {
		return fmt.Errorf("anchor %s@%d seed %d: got %+v, want %+v", engineScenario, a.jobs, a.seed, got, a.want)
	}
	return nil
}

// runEngine is engine-100k: public Simulation.Run calls of baseline-f3
// at 100 000 jobs, one after another on one goroutine. No service is
// involved.
func runEngine(ctx context.Context, cfg config, res *result) error {
	a, warmJobs := engineAnchor, 2000
	if cfg.smoke {
		a, warmJobs = smokeAnchor, 200
	}

	// Set-up: resolve the scenario and warm the code paths with a small
	// run; the median of setupRepeats is setup_s.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		warm, err := sim.ScenarioByName(engineScenario, sim.WithJobs(warmJobs), sim.WithSeed(sim.DeriveSeed(cfg.seed, 1000000+i)))
		if err != nil {
			return err
		}
		if _, err := warm.Run(ctx); err != nil {
			return err
		}
		if _, err := newEngineSim(a.jobs, a.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if cfg.traced {
		// Correctness gate: the anchor seed must reproduce the BENCH
		// cell exactly.
		gate, err := newEngineSim(a.jobs, a.seed)
		if err != nil {
			return err
		}
		res.attempted++
		if out, err := gate.Run(ctx); err != nil {
			res.fail("anchor run: %v", err)
		} else if err := a.check(fingerprintOf(out)); err != nil {
			res.fail("%v", err)
		}
		return traceEngine(ctx, cfg, res, a.jobs, setups)
	}

	// The timed runs. The first replays the anchor seed and doubles as
	// the correctness gate, compared after the window; the others derive
	// their seeds from --seed. No result outlives its run, so every run
	// starts from the same heap.
	var durs, peaks []float64
	var total time.Duration
	var anchorRun fingerprint
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < cfg.seconds; k++ {
		seed := sim.DeriveSeed(cfg.seed, k)
		if k == 0 {
			seed = a.seed
		}
		s, err := newEngineSim(a.jobs, seed)
		if err != nil {
			return err
		}
		runtime.GC()
		hs := startHeapSampler()
		t0 := time.Now()
		out, err := s.Run(ctx)
		d := time.Since(t0)
		hs.Stop()
		peak := hs.max() // one Run's heap climbs to a single peak at its end
		res.attempted++
		if err != nil {
			res.fail("run %d: %v", k, err)
			continue
		}
		if k == 0 {
			anchorRun = fingerprintOf(out)
		}
		if out.Events == 0 || len(out.Jobs) == 0 || out.MakespanSec <= 0 {
			res.fail("run %d: empty result (%d events, %d jobs)", k, out.Events, len(out.Jobs))
			continue
		}
		logf("engine run %d (seed %d): %.3fs, peak heap %.1f MB, %d events", k, seed, d.Seconds(), peak, out.Events)
		durs = append(durs, d.Seconds())
		peaks = append(peaks, peak)
		total += d
	}
	window := time.Since(start)
	if err := a.check(anchorRun); err != nil {
		res.fail("%v", err)
	}
	if len(durs) == 0 {
		return fmt.Errorf("no run completed")
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["sim_run_s"] = median(durs)
	res.e2e["peak_heap_mb"] = median(peaks)
	res.e2e["job_p50_ms"] = 1000 * median(durs)
	res.extra["job_p90_ms"] = 1000 * quantile(durs, 0.9)
	res.e2e["runs_per_s"] = float64(len(durs)) / total.Seconds()
	res.extra["runs"] = float64(len(durs))
	res.extra["window_s"] = window.Seconds()
	return nil
}

func newEngineSim(jobs int, seed uint64) (*sim.Simulation, error) {
	return sim.ScenarioByName(engineScenario, sim.WithJobs(jobs), sim.WithSeed(seed))
}

// traceEngine is engine-100k's traced run: the same Run traced, then
// untraced (the pair gives the tracing overhead), then the per-layer
// measurement right after the untraced Run it is subtracted from.
func traceEngine(ctx context.Context, cfg config, res *result, jobs int, setups []float64) error {
	seed := sim.DeriveSeed(cfg.seed, 0)

	// The traced Run: spans from the facade's own observer seam. The
	// sweep calls RunStarted after materializing the trace and the
	// estimator, and RunFinished after converting the engine result.
	tr := res.tracer
	job := "run-0"
	var root, phase *Span
	obs := sim.ObserverFuncs{
		OnStarted: func(sim.RunInfo) {
			phase.End()
			phase = tr.Start(job, "sim.replay_and_convert", root)
		},
		OnProgress: func(_ sim.RunInfo, p sim.Progress) {
			sp := tr.Start(job, "engine.progress", phase)
			sp.Set("events", fmt.Sprint(p.Events))
			sp.End()
		},
		OnFinished: func(sim.RunInfo, sim.Outcome) {
			phase.End()
			phase = tr.Start(job, "sim.return", root)
		},
	}
	ts, err := sim.ScenarioByName(engineScenario, sim.WithJobs(jobs), sim.WithSeed(seed), sim.WithObserver(obs), sim.WithProgressEvery(1<<20))
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	root = tr.Start(job, "sim.Run", nil)
	phase = tr.Start(job, "sim.prepare", root)
	traced, err := ts.Run(ctx)
	phase.End()
	root.End()
	tracedDur := time.Since(t0)
	res.attempted++
	if err != nil {
		return err
	}

	s, err := newEngineSim(jobs, seed)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 = time.Now()
	plain, err := s.Run(ctx)
	untraced := time.Since(t0)
	res.attempted++
	if err != nil {
		return err
	}
	if traced.Events != plain.Events || traced.MakespanSec != plain.MakespanSec {
		res.fail("traced run differs from the untraced run of the same seed")
	}

	if err := engineLayers(ctx, res, jobs, seed, untraced, plain.Events); err != nil {
		return err
	}
	res.layers["bench.tracing_overhead_pct"] = 100 * (tracedDur.Seconds() - untraced.Seconds()) / untraced.Seconds()
	zeroMissingLayers(res)
	res.extra["setup_s"] = median(setups)
	return nil
}

// engineLayers times each simulator layer by calling it directly on the
// inputs a facade Run of (jobs, seed) uses, and fills the simulator's
// per-layer metrics. runDur is that facade Run's wall time; the facade's
// own share is what the three layers do not account for. wantEvents
// cross-checks that the direct calls replay the same simulation.
func engineLayers(ctx context.Context, res *result, jobs int, seed uint64, runDur time.Duration, wantEvents uint64) error {
	sc, ok := scenario.Get(engineScenario)
	if !ok {
		return fmt.Errorf("scenario %s not registered", engineScenario)
	}
	cfg, err := sc.EngineConfig(seed)
	if err != nil {
		return err
	}
	tr := res.tracer
	job := "layers"
	root := tr.Start(job, "layers", nil)
	defer root.End()

	runtime.GC()
	sp := tr.Start(job, "trace.Generate", root)
	t0 := time.Now()
	tt := sc.Workload.Materialize(seed, jobs)
	gen := time.Since(t0)
	sp.End()

	sp = tr.Start(job, "trace.BuildEstimator", root)
	t0 = time.Now()
	var est *core.HistoryEstimator
	if cfg.Estimates == engine.EstimatePriority && cfg.CustomEstimator == nil {
		est = trace.BuildEstimator(tt, sc.EffectiveLimits())
	}
	estDur := time.Since(t0)
	sp.End()

	replay := tt
	if !sc.ReplayAll {
		replay = tt.BatchJobs()
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.Start(job, "engine.Run", root)
	t0 = time.Now()
	out, err := engine.RunWithEstimatorContext(ctx, cfg, replay, est)
	replayDur := time.Since(t0)
	sp.End()
	runtime.ReadMemStats(&after)
	res.attempted++
	if err != nil {
		return err
	}
	if out.Events != wantEvents {
		res.fail("direct engine replay fired %d events, the facade %d", out.Events, wantEvents)
	}

	var failures, checkpoints int
	for _, j := range out.Jobs {
		for _, t := range j.Tasks {
			failures += t.Failures
			checkpoints += t.Checkpoints
		}
	}
	L := res.layers
	L["trace.gen_s"] = gen.Seconds()
	L["trace.estimator_s"] = estDur.Seconds()
	L["engine.replay_s"] = replayDur.Seconds()
	L["sim.facade_s"] = (runDur - gen - estDur - replayDur).Seconds()
	L["engine.events"] = float64(out.Events)
	L["engine.events_per_s"] = float64(out.Events) / replayDur.Seconds()
	L["engine.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	L["engine.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(out.Events)
	L["simeng.queue_rebuilds"] = float64(out.Queue.Rebuilds)
	L["simeng.queue_peak_pending"] = float64(out.Queue.PeakPending)
	L["failure.failures"] = float64(failures)
	L["storage.checkpoints"] = float64(checkpoints)

	sp = tr.Start(job, "micro", root)
	perOp := microCosts()
	sp.End()
	for k, v := range perOp {
		L[k] = v
	}
	L["simeng.core_s"] = L["simeng.core_ns_per_event"] * float64(out.Events) / 1e9
	L["failure.next_after_s"] = L["failure.next_after_ns"] * float64(failures) / 1e9
	L["storage.begin_release_s"] = L["storage.begin_release_ns"] * float64(checkpoints) / 1e9
	return nil
}

// microCosts measures one operation of each simulator layer through its
// public API, the median of five batches.
func microCosts() map[string]float64 {
	perOp := func(n int, batch func(n int)) float64 {
		var xs []float64
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			batch(n)
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
		}
		return median(xs)
	}
	return map[string]float64{
		// Uniform self-rescheduling events, 1024 in flight.
		"simeng.core_ns_per_event": perOp(1<<20, func(n int) {
			s := simeng.NewSimulator()
			r := simeng.NewRNG(1)
			var fn func(uint32)
			fn = func(arg uint32) { s.ScheduleIndexed(s.Now()+r.Float64(), 0, fn, arg) }
			for i := 0; i < 1024; i++ {
				s.ScheduleIndexed(r.Float64(), 0, fn, uint32(i))
			}
			s.RunLimit(uint64(n))
		}),
		// One VM placement and its release on the default 32-host cluster.
		"cluster.acquire_release_ns": perOp(1<<20, func(n int) {
			c := cluster.New(32, 7168)
			for i := 0; i < n; i++ {
				if p := c.Acquire(128); p != nil {
					c.Release(p)
				}
			}
		}),
		// One forward failure-time query on a renewal process.
		"failure.next_after_ns": perOp(1<<19, func(n int) {
			p := failure.NewRenewal(dist.NewExponential(0.01), simeng.NewRNG(1))
			t := 0.0
			for i := 0; i < n; i++ {
				t = p.NextAfter(t)
			}
		}),
		// One checkpoint write begun and released on shared NFS.
		"storage.begin_release_ns": perOp(1<<20, func(n int) {
			s := storage.NewNFS(simeng.NewRNG(1))
			for i := 0; i < n; i++ {
				_, release := s.Begin(0, 160)
				release()
			}
		}),
	}
}

// zeroMissingLayers reports 0 for every per-layer metric of a layer the
// workload never reached.
func zeroMissingLayers(res *result) {
	for _, m := range perLayer {
		if _, ok := res.layers[m.name]; !ok {
			res.layers[m.name] = 0
		}
	}
}

// heapSampler samples the Go heap (bytes in live and not yet swept
// objects) every millisecond from its own goroutine, without stopping
// the world.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap of a steady load in MB:
// the 99th percentile of the samples, so the one garbage-collection
// cycle of many that happened to peak highest does not set the number.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.99)
}

// max returns the largest sample; valid after Stop.
func (h *heapSampler) max() float64 { return quantile(h.samples, 1) }
