package sim

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/sweep"
)

// Run is one sweep entry: a Simulation plus seed derivation. With
// Pinned set, Seed is used verbatim; otherwise the seed derives
// deterministically from the sweep's base seed and the run index.
// Paired comparisons (the same trace under two policies) pin the same
// seed on both entries.
type Run struct {
	Sim    *Simulation
	Seed   uint64
	Pinned bool
}

// Pin returns a run executing the simulation under exactly the given
// seed.
func Pin(s *Simulation, seed uint64) Run {
	return Run{Sim: s, Seed: seed, Pinned: true}
}

// Outcome is one sweep run's result. Err is per-run: a failing run
// never aborts its siblings. Outcomes marshal to JSON with the error,
// when any, rendered as a string.
type Outcome struct {
	Name   string
	Seed   uint64
	Result *Result
	Err    error
	// Skipped reports that the run was outside SweepOptions.OnlyIndices:
	// nothing executed and Result is nil. The caller fills skipped slots
	// from its own persisted results or leaves them to another worker.
	Skipped bool
}

// MarshalJSON renders the outcome with the error as a plain string.
func (o Outcome) MarshalJSON() ([]byte, error) {
	var errText string
	if o.Err != nil {
		errText = o.Err.Error()
	}
	return json.Marshal(struct {
		Name   string  `json:"name"`
		Seed   uint64  `json:"seed"`
		Result *Result `json:"result,omitempty"`
		Error  string  `json:"error,omitempty"`
	}{o.Name, o.Seed, o.Result, errText})
}

// RunInfo identifies a sweep run in Observer events.
type RunInfo struct {
	// Index is the run's position in the sweep (0 for Simulation.Run).
	Index int
	// Name is the simulation's label, or "run-<index>" when unnamed.
	Name string
	// Seed is the seed the run executes under.
	Seed uint64
}

// Progress is a streaming snapshot of one run's advancement.
type Progress struct {
	// Events is the number of simulation events fired so far.
	Events uint64
	// SimSeconds is the simulated clock.
	SimSeconds float64
}

// Observer receives streaming per-run events. RunStarted fires when a
// worker picks the run up, RunProgress periodically from inside the
// event loop (stride set by WithProgressEvery), and
// RunFinished with the completed outcome. During sweeps, callbacks are
// invoked concurrently from worker goroutines and must be safe for
// concurrent use; none may block for long or the pool stalls.
type Observer interface {
	RunStarted(info RunInfo)
	RunProgress(info RunInfo, p Progress)
	RunFinished(info RunInfo, out Outcome)
}

// ObserverFuncs adapts plain functions to Observer; nil fields are
// skipped.
type ObserverFuncs struct {
	OnStarted  func(RunInfo)
	OnProgress func(RunInfo, Progress)
	OnFinished func(RunInfo, Outcome)
}

// RunStarted implements Observer.
func (o ObserverFuncs) RunStarted(info RunInfo) {
	if o.OnStarted != nil {
		o.OnStarted(info)
	}
}

// RunProgress implements Observer.
func (o ObserverFuncs) RunProgress(info RunInfo, p Progress) {
	if o.OnProgress != nil {
		o.OnProgress(info, p)
	}
}

// RunFinished implements Observer.
func (o ObserverFuncs) RunFinished(info RunInfo, out Outcome) {
	if o.OnFinished != nil {
		o.OnFinished(info, out)
	}
}

// SweepOptions configures RunSweep.
type SweepOptions struct {
	// BaseSeed feeds seed derivation for runs without a pinned seed.
	BaseSeed uint64
	// DefaultJobs sizes workloads that do not pin their own size
	// (0 means 2000; at most MaxSpecJobs).
	DefaultJobs int
	// Workers is the pool size (0 means GOMAXPROCS). Results are
	// byte-identical for every value.
	Workers int
	// Observer, when non-nil, receives every run's lifecycle and
	// progress events, in addition to each Simulation's own WithObserver
	// observer (see Observer for concurrency caveats).
	Observer Observer
	// OnlyIndices, when non-empty, restricts the sweep to exactly the
	// listed run indices and skips every other slot — the resume and
	// remote-claim hook. Seeds, traces, and results stay addressed by
	// position in the full sweep, and skipped runs get an Outcome with
	// Skipped set, no Result, and no Observer events. Seeds derive only
	// from (BaseSeed, index), so running exactly the missing indices of
	// an interrupted sweep reproduces the uninterrupted results
	// bit-for-bit. An empty list means no filter.
	OnlyIndices []int
}

// RunSweep executes the runs across a deterministic worker pool:
// per-run seeds derive only from (BaseSeed, index), traces and history
// estimators are materialized once per distinct (seed, workload) pair
// and shared read-only, and results land in index-addressed slots, so
// the outcome slice is byte-identical for every worker count.
//
// The returned error joins every per-run error (nil when all runs
// succeed); the outcome slice is always fully populated and
// index-aligned with runs. Canceling ctx stops new work, drains
// in-flight runs, and records ctx.Err() on every unfinished outcome, so
// errors.Is(err, ctx.Err()) reports cancellation.
func RunSweep(ctx context.Context, runs []Run, opts SweepOptions) ([]Outcome, error) {
	n := len(runs)
	if n == 0 {
		return nil, nil
	}
	if err := checkJobs("sim: RunSweep: DefaultJobs", opts.DefaultJobs); err != nil {
		return nil, err
	}
	infos := make([]RunInfo, n)
	sruns := make([]sweep.Run, n)
	for i, r := range runs {
		if r.Sim == nil {
			return nil, fmt.Errorf("sim: RunSweep: run %d has a nil Simulation", i)
		}
		seed := r.Seed
		if !r.Pinned {
			seed = DeriveSeed(opts.BaseSeed, i)
		}
		sc := r.Sim.cfg.sc
		if sc.Name == "" {
			sc.Name = fmt.Sprintf("run-%d", i)
		}
		infos[i] = RunInfo{Index: i, Name: sc.Name, Seed: seed}
		sruns[i] = sweep.Run{Scenario: sc, Seed: seed}
	}

	sopts := sweep.Options{
		DefaultJobs: opts.DefaultJobs,
		Workers:     opts.Workers,
	}
	if len(opts.OnlyIndices) > 0 {
		sopts.Only = make(map[int]bool, len(opts.OnlyIndices))
		for _, i := range opts.OnlyIndices {
			sopts.Only[i] = true
		}
	}

	// Each run notifies the sweep-level observer plus its Simulation's
	// own WithObserver observer. Conversions performed for RunFinished
	// are cached (one slot per index, each written once by the worker
	// that owns the run and read only after the pool drains).
	observers := make([][]Observer, n)
	anyObserver := false
	var progressEvery uint64
	for i, r := range runs {
		if opts.Observer != nil {
			observers[i] = append(observers[i], opts.Observer)
		}
		if own := r.Sim.cfg.observer; own != nil {
			observers[i] = append(observers[i], own)
		}
		if len(observers[i]) > 0 {
			anyObserver = true
		}
		if progressEvery == 0 {
			progressEvery = r.Sim.cfg.progressEvery
		}
	}
	// The stride also paces the engine's cancellation polls, so it is
	// honored with or without observers.
	sopts.ProgressEvery = progressEvery
	converted := make([]*Outcome, n)
	if anyObserver {
		sopts.OnRunStart = func(i int) {
			for _, obs := range observers[i] {
				obs.RunStarted(infos[i])
			}
		}
		sopts.Progress = func(i int, events uint64, now float64) {
			for _, obs := range observers[i] {
				obs.RunProgress(infos[i], Progress{Events: events, SimSeconds: now})
			}
		}
		sopts.OnRunDone = func(i int, out sweep.Outcome) {
			o := convertOutcome(infos[i], out)
			converted[i] = &o
			for _, obs := range observers[i] {
				obs.RunFinished(infos[i], o)
			}
		}
	}

	souts, err := sweep.ScenariosContext(ctx, sruns, sopts)
	outs := make([]Outcome, n)
	for i, out := range souts {
		if converted[i] != nil {
			outs[i] = *converted[i]
		} else {
			outs[i] = convertOutcome(infos[i], out)
		}
	}
	return outs, err
}

func convertOutcome(info RunInfo, out sweep.Outcome) Outcome {
	o := Outcome{Name: info.Name, Seed: info.Seed, Err: out.Err, Skipped: out.Skipped}
	if out.Result != nil {
		o.Result = newResult(out.Result)
	}
	return o
}
