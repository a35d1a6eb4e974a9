package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/storage"
)

// StorageMode selects how each task's checkpoint storage is chosen.
type StorageMode int

const (
	// StorageAuto applies the paper's Section 4.2.2 rule per task:
	// compare the expected total overheads of local and shared
	// checkpointing and pick the cheaper.
	StorageAuto StorageMode = iota
	// StorageLocal forces local-ramdisk checkpoints (migration type A).
	StorageLocal
	// StorageShared forces shared-disk checkpoints (migration type B).
	StorageShared
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
// internal scenario; sim-level concerns (explicit trace, observer,
// default workload size) ride alongside.
type config struct {
	sc            scenario.Scenario
	seed          uint64
	jobs          int
	trace         *Trace
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
	if err := errors.Join(cfg.errs...); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Simulation{cfg: cfg}, nil
}

// Name returns the simulation's label (set by WithName or inherited
// from a registry scenario); it may be empty.
func (s *Simulation) Name() string { return s.cfg.sc.Name }

// Description returns the one-line scenario description; it may be
// empty.
func (s *Simulation) Description() string { return s.cfg.sc.Description }

// Seed returns the seed Run executes under.
func (s *Simulation) Seed() uint64 { return s.cfg.seed }

// WithName labels the simulation in outcomes and observer events.
func WithName(name string) Option {
	return func(c *config) { c.sc.Name = name }
}

// WithSeed pins the seed all randomness derives from; identical seeds
// reproduce runs bit-for-bit. New defaults to seed 1.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed }
}

// WithJobs sets the synthetic workload size in jobs (default 2000);
// a Workload that pins its own size wins over this option.
func WithJobs(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("WithJobs: negative count %d", n))
			return
		}
		c.jobs = n
	}
}

// WithWorkload declares the synthetic trace to generate. The zero
// Workload is the paper's default mix. Overlays the generator would
// reject (a BoTFraction above 1, inverted length bounds) fail New
// instead of panicking later inside a sweep worker.
func WithWorkload(w Workload) Option {
	return func(c *config) {
		if err := w.validate(); err != nil {
			c.errs = append(c.errs, err)
			return
		}
		c.sc.Workload = w.toScenario()
	}
}

// WithTrace replays an explicit trace instead of generating one. The
// history estimator, when used, is built from this trace.
func WithTrace(tr *Trace) Option {
	return func(c *config) {
		if tr == nil {
			c.errs = append(c.errs, errors.New("WithTrace: nil trace"))
			return
		}
		c.trace = tr
	}
}

// WithServiceJobsReplayed also replays the long-running service tier.
// By default only batch jobs replay while the estimator still sees the
// full trace — the paper's sampled-job methodology.
func WithServiceJobsReplayed() Option {
	return func(c *config) { c.sc.ReplayAll = true }
}

// WithPolicy plugs in the checkpoint-interval policy (built-in
// constructors: Formula3, Young, Daly, NoCheckpoints; or any custom
// implementation). The default is Formula3.
func WithPolicy(p Policy) Option {
	return func(c *config) {
		if p == nil {
			c.errs = append(c.errs, errors.New("WithPolicy: nil policy"))
			return
		}
		c.sc.Engine.Policy = corePolicy{p}
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
		switch mode {
		case StorageAuto:
			c.sc.Engine.Mode = engine.StorageAuto
		case StorageLocal:
			c.sc.Engine.Mode = engine.StorageLocal
		case StorageShared:
			c.sc.Engine.Mode = engine.StorageShared
		default:
			c.errs = append(c.errs, fmt.Errorf("WithStorage: unknown mode %d", mode))
		}
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

// WithStorageBackends plugs custom checkpoint devices into the local
// and/or shared slots (nil keeps the corresponding built-in). The
// storage mode still decides which slot each task uses.
func WithStorageBackends(local, shared StorageBackend) Option {
	return func(c *config) {
		if local != nil {
			c.sc.Engine.LocalBackend = backendAdapter{local}
		}
		if shared != nil {
			c.sc.Engine.SharedBackend = backendAdapter{shared}
		}
	}
}

// WithFailureModel replaces the trace-driven failure processes with a
// custom model (see FailureModel for the determinism contract).
func WithFailureModel(m FailureModel) Option {
	return func(c *config) {
		if m == nil {
			c.errs = append(c.errs, errors.New("WithFailureModel: nil model"))
			return
		}
		c.sc.Engine.FailureModel = failureModelFunc(m)
	}
}

// WithEstimator plugs in a custom failure-statistics source, replacing
// both the history estimator and the oracle.
func WithEstimator(e Estimator) Option {
	return func(c *config) {
		if e == nil {
			c.errs = append(c.errs, errors.New("WithEstimator: nil estimator"))
			return
		}
		c.sc.Engine.CustomEstimator = taskEstimator{e}
	}
}

// WithOracleEstimates feeds each task its own realized failure
// statistics — the paper's "precise prediction" scenario (Table 6).
func WithOracleEstimates() Option {
	return func(c *config) { c.sc.Engine.Estimates = engine.EstimateOracle }
}

// WithEstimationLimits sets the task-length limits that stratify
// priority-based history estimation (default 1000 s, 1 h, +Inf).
func WithEstimationLimits(limits ...float64) Option {
	return func(c *config) {
		if len(limits) == 0 {
			c.errs = append(c.errs, errors.New("WithEstimationLimits: no limits"))
			return
		}
		c.sc.Engine.Limits = append([]float64(nil), limits...)
	}
}

// WithPredictor plugs in a planned-length predictor (the paper's job
// parser); the default plans with exact lengths.
func WithPredictor(p Predictor) Option {
	return func(c *config) {
		if p == nil {
			c.errs = append(c.errs, errors.New("WithPredictor: nil predictor"))
			return
		}
		c.sc.Engine.Predictor = enginePredictor{p}
	}
}

// WithCluster sizes the simulated cluster (defaults: 32 hosts with
// 7*1024 MB of VM-backing memory each).
func WithCluster(hosts int, hostMemMB float64) Option {
	return func(c *config) {
		if hosts < 0 || hostMemMB < 0 {
			c.errs = append(c.errs, fmt.Errorf("WithCluster: negative size (%d hosts, %g MB)", hosts, hostMemMB))
			return
		}
		c.sc.Engine.Hosts = hosts
		c.sc.Engine.HostMemMB = hostMemMB
	}
}

// WithHostFailures enables whole-host crashes: one crash on average
// every mtbfSec seconds, each repaired after repairSec (0 keeps the
// 600 s default). Tasks on a crashed host restart elsewhere from their
// last checkpoints.
func WithHostFailures(mtbfSec, repairSec float64) Option {
	return func(c *config) {
		c.sc.Engine.HostMTBF = mtbfSec
		c.sc.Engine.HostRepair = repairSec
	}
}

// WithDelays overrides the failure-detection latency and the dispatch
// delay, in seconds (defaults 0.5 and 0.2).
func WithDelays(detectionSec, scheduleSec float64) Option {
	return func(c *config) {
		c.sc.Engine.DetectionDelay = detectionSec
		c.sc.Engine.ScheduleDelay = scheduleSec
	}
}

// WithDynamicReplanning enables Algorithm 1's adaptive MNOF handling on
// mid-run priority changes; off, the initial plan is kept (the paper's
// static baseline).
func WithDynamicReplanning(on bool) Option {
	return func(c *config) { c.sc.Engine.Dynamic = on }
}

// WithNonBlockingCheckpoints writes checkpoints in a separate thread
// (Algorithm 1 line 7): the write cost is hidden from the task's
// wall-clock; the saved position lags until the write completes.
func WithNonBlockingCheckpoints(on bool) Option {
	return func(c *config) { c.sc.Engine.NonBlockingCheckpoints = on }
}

// WithMaxSimTime aborts runaway simulations after the given simulated
// seconds; 0 means no limit.
func WithMaxSimTime(seconds float64) Option {
	return func(c *config) { c.sc.Engine.MaxSimSeconds = seconds }
}

// WithObserver streams per-run lifecycle and progress events to o (see
// Observer).
func WithObserver(o Observer) Option {
	return func(c *config) { c.observer = o }
}

// WithProgressEvery sets the fired-event stride between Observer
// progress events (0 keeps the engine default of 65536).
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
