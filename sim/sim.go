package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/storage"
)

// StorageMode selects how each task's checkpoint storage is chosen.
type StorageMode = engine.StorageMode

const (
	// StorageAuto applies the paper's Section 4.2.2 rule per task:
	// compare the expected total overheads of local and shared
	// checkpointing and pick the cheaper.
	StorageAuto = engine.StorageAuto
	// StorageLocal forces local-ramdisk checkpoints (migration type A).
	StorageLocal = engine.StorageLocal
	// StorageShared forces shared-disk checkpoints (migration type B).
	StorageShared = engine.StorageShared
)

// SharedStorage selects the built-in shared checkpoint backend.
type SharedStorage int

const (
	// SharedDMNFS is the paper's distributively-managed NFS: one server
	// per physical host, each checkpoint picking one at random (the
	// default testbed configuration).
	SharedDMNFS SharedStorage = iota
	// SharedNFS is a single NFS server that congests under simultaneous
	// checkpoints.
	SharedNFS
)

// config collects the builder state. The declarative core is an
// internal scenario; sim-level concerns (seed, observer, default
// workload size) ride alongside.
type config struct {
	sc            scenario.Scenario
	seed          uint64
	jobs          int
	observer      Observer
	progressEvery uint64
	errs          []error
}

// Option configures a Simulation under construction.
type Option func(*config)

// Simulation is an immutable, fully-resolved simulation specification.
// Build one with New, run it with Run, or fan many across a pool with
// RunSweep. A Simulation is safe to share and to run repeatedly; every
// run with the same seed yields identical results.
type Simulation struct {
	cfg config
}

// New validates the options and assembles a Simulation. The zero
// configuration is the paper's headline setup: the default synthetic
// workload, a 32-host cluster of 7 GB each, Formula 3 planning,
// automatic storage selection, priority-based history estimation, and
// no host crashes.
func New(opts ...Option) (*Simulation, error) {
	cfg := config{seed: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.jobs > 0 && cfg.sc.Workload.Jobs == 0 {
		cfg.sc.Workload.Jobs = cfg.jobs
	}
	if cfg.sc.Engine.Policy == nil {
		if _, err := scenario.PolicyByName(cfg.sc.Policy); err != nil {
			cfg.errs = append(cfg.errs, err)
		}
	}
	if len(cfg.errs) > 0 {
		// One line, so a log line or a 400 body never splits mid-error;
		// errors.Is and errors.As still reach each refusal.
		causes := make([]any, len(cfg.errs))
		for i, err := range cfg.errs {
			causes[i] = err
		}
		return nil, fmt.Errorf("sim: %w"+strings.Repeat("; %w", len(causes)-1), causes...)
	}
	return &Simulation{cfg: cfg}, nil
}

// Name returns the simulation's label (set by WithName or inherited
// from a registry scenario); it may be empty.
func (s *Simulation) Name() string { return s.cfg.sc.Name }

// Description returns the one-line scenario description; it may be
// empty.
func (s *Simulation) Description() string { return s.cfg.sc.Description }

// WithName labels the simulation in outcomes and observer events.
func WithName(name string) Option {
	return func(c *config) { c.sc.Name = name }
}

// WithSeed pins the seed all randomness derives from; identical seeds
// reproduce runs bit-for-bit. New defaults to seed 1.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithJobs sets the synthetic workload size in jobs (default 2000, at
// most MaxSpecJobs); a Workload that pins its own size wins over this
// option.
func WithJobs(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("WithJobs: negative count %d", n))
			return
		}
		if err := checkJobs("WithJobs: jobs", n); err != nil {
			c.errs = append(c.errs, err)
			return
		}
		c.jobs = n
	}
}

// WithWorkload declares the synthetic trace to generate. The zero
// Workload is the paper's default mix. Overlays the generator would
// reject (a negative Jobs, a BoTFraction above 1, inverted length
// bounds) and more than MaxSpecJobs jobs fail New instead of panicking
// later inside a sweep worker.
func WithWorkload(w Workload) Option {
	return func(c *config) {
		if err := checkTraceConfig(w.GenConfig(0, 1)); err != nil {
			c.errs = append(c.errs, fmt.Errorf("WithWorkload: %w", err))
			return
		}
		c.sc.Workload = w
	}
}

// WithServiceJobsReplayed also replays the long-running service tier.
// By default only batch jobs replay while the estimator still sees the
// full trace — the paper's sampled-job methodology.
func WithServiceJobsReplayed() Option {
	return func(c *config) { c.sc.ReplayAll = true }
}

// WithPolicy plugs in the checkpoint-interval policy (built-in
// constructors: Formula3, Young; or any custom implementation). The
// default is Formula3.
func WithPolicy(p Policy) Option {
	return func(c *config) {
		if p == nil {
			c.errs = append(c.errs, errors.New("WithPolicy: nil policy"))
			return
		}
		c.sc.Engine.Policy = p
	}
}

// WithPolicyName selects a built-in policy by name ("formula3",
// "young", "daly", "random", "none").
func WithPolicyName(name string) Option {
	return func(c *config) {
		c.sc.Engine.Policy = nil
		c.sc.Policy = name
	}
}

// WithStorage selects the checkpoint-storage rule (default
// StorageAuto).
func WithStorage(mode StorageMode) Option {
	return func(c *config) {
		if mode < StorageAuto || mode > StorageShared {
			c.errs = append(c.errs, fmt.Errorf("WithStorage: unknown mode %d", mode))
			return
		}
		c.sc.Engine.Mode = mode
	}
}

// WithSharedStorage selects the built-in shared backend (default
// SharedDMNFS).
func WithSharedStorage(kind SharedStorage) Option {
	return func(c *config) {
		switch kind {
		case SharedDMNFS:
			c.sc.Engine.SharedKind = storage.KindDMNFS
		case SharedNFS:
			c.sc.Engine.SharedKind = storage.KindNFS
		default:
			c.errs = append(c.errs, fmt.Errorf("WithSharedStorage: unknown kind %d", kind))
		}
	}
}

// WithDynamicReplanning enables Algorithm 1's adaptive MNOF handling on
// mid-run priority changes; off, the initial plan is kept (the paper's
// static baseline).
func WithDynamicReplanning(on bool) Option {
	return func(c *config) { c.sc.Engine.Dynamic = on }
}

// WithObserver streams per-run lifecycle and progress events to o (see
// Observer).
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithProgressEvery sets the fired-event stride between Observer
// progress events (0 keeps the engine default of 65536). A sweep runs
// every run at the first nonzero stride among its runs.
func WithProgressEvery(events uint64) Option {
	return func(c *config) { c.progressEvery = events }
}

// Run executes the simulation to completion on the calling goroutine
// and returns its Result. Canceling ctx stops the run at its next event
// chunk and returns ctx.Err(); nothing leaks — there are no goroutines
// to begin with.
func (s *Simulation) Run(ctx context.Context) (*Result, error) {
	// The simulation's own observer and progress stride are picked up
	// per-run by RunSweep.
	outs, err := RunSweep(ctx, []Run{Pin(s, s.cfg.seed)}, SweepOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return outs[0].Result, nil
}
