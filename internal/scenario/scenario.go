package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Workload declares a synthetic trace. The zero value means "the
// paper's default workload at the caller's default scale": zero Jobs
// defers to the sweep's default size, and zero rate/mix fields inherit
// trace.DefaultGenConfig. Workload is comparable, so sweeps use it
// (plus the seed) as a cache key when several scenarios share one
// trace.
type Workload struct {
	// Jobs is the trace size; 0 defers to the caller's default.
	Jobs int
	// ArrivalRate overrides the default 0.12 jobs/s when positive.
	ArrivalRate float64
	// BoTFraction overrides the default 0.45 bag-of-tasks share when
	// non-zero; pass a negative value for a pure sequential-task mix.
	BoTFraction float64
	// MaxTaskLength / MinTaskLength bound task lengths in seconds
	// (0 keeps the generator defaults of 6 h and 30 s).
	MaxTaskLength float64
	MinTaskLength float64
	// MaxTaskMemMB / MinTaskMemMB bound per-task memory demands in MB
	// (0 keeps the generator defaults of 1000 and 10). Demands near the
	// per-host memory produce head-of-line-blocking dispatch regimes.
	MaxTaskMemMB float64
	MinTaskMemMB float64
	// PriorityChangeFraction is the share of tasks whose priority flips
	// mid-execution (the Figure 14 scenario).
	PriorityChangeFraction float64
	// ServiceFraction is the share of long-running service jobs;
	// 0 keeps the default 0.06, negative disables services.
	ServiceFraction float64
}

// GenConfig compiles the workload for a seed, substituting defaultJobs
// when the workload does not pin its own size.
func (w Workload) GenConfig(seed uint64, defaultJobs int) trace.GenConfig {
	jobs := w.Jobs
	if jobs <= 0 {
		jobs = defaultJobs
	}
	cfg := trace.DefaultGenConfig(seed, jobs)
	if w.ArrivalRate > 0 {
		cfg.ArrivalRate = w.ArrivalRate
	}
	if w.BoTFraction != 0 {
		cfg.BoTFraction = w.BoTFraction
		if cfg.BoTFraction < 0 {
			cfg.BoTFraction = 0
		}
	}
	cfg.MaxTaskLength = w.MaxTaskLength
	cfg.MinTaskLength = w.MinTaskLength
	cfg.MaxTaskMemMB = w.MaxTaskMemMB
	cfg.MinTaskMemMB = w.MinTaskMemMB
	cfg.PriorityChangeFraction = w.PriorityChangeFraction
	cfg.ServiceFraction = w.ServiceFraction
	return cfg
}

// Materialize generates the workload's trace for a seed.
func (w Workload) Materialize(seed uint64, defaultJobs int) *trace.Trace {
	return trace.Generate(w.GenConfig(seed, defaultJobs))
}

// Scenario is one declarative simulation run. The zero value (plus a
// name) is the paper's headline setup: default workload, 32-host
// cluster, Formula 3, automatic storage selection, priority-based
// estimation over the default length limits, no host crashes.
type Scenario struct {
	// Name labels the run in sweep outcomes and the registry.
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// Workload declares the trace to generate.
	Workload Workload
	// ReplayAll replays every generated job; the default (false)
	// replays only batch jobs while the estimator still sees the full
	// trace — the paper's sampled-job methodology.
	ReplayAll bool
	// Policy names the checkpoint policy: "formula3" (default),
	// "young", "daly", "random", or "none". See PolicyByName. A
	// non-nil Engine.Policy supersedes it.
	Policy string
	// Engine holds every engine setting of the run (see engine.Config).
	// Seed, Progress and ProgressEvery are per-run settings: EngineConfig
	// sets Seed and the sweep sets the other two, so leave them zero
	// here. The plug-in fields (Policy, Predictor, CustomEstimator,
	// FailureModel and the storage backends) are runtime values, not
	// data: scenarios using them are not directly serializable or
	// cache-comparable.
	Engine engine.Config
}

// PolicyByName resolves a scenario policy name to the core policy.
// Recognized names (case-insensitive): "formula3" (aliases "f3",
// "mnof", and ""), "young", "daly", "random", "none".
func PolicyByName(name string) (core.Policy, error) {
	switch strings.ToLower(name) {
	case "", "formula3", "f3", "mnof":
		return core.MNOFPolicy{}, nil
	case "young":
		return core.YoungPolicy{}, nil
	case "daly":
		return core.DalyPolicy{}, nil
	case "random":
		return core.RandomPolicy{}, nil
	case "none":
		return core.NoCheckpointPolicy{}, nil
	}
	return nil, fmt.Errorf("scenario: unknown policy %q (want formula3, young, daly, random, or none)", name)
}

// EngineConfig compiles the scenario to an engine configuration for the
// given seed: a copy of Engine with Seed set and, when Engine.Policy is
// nil, the policy resolved from its name. The trace itself is
// materialized separately (see Workload.Materialize and internal/sweep)
// so several scenarios can share one trace.
func (s Scenario) EngineConfig(seed uint64) (engine.Config, error) {
	cfg := s.Engine
	cfg.Seed = seed
	if cfg.Policy == nil {
		var err error
		if cfg.Policy, err = PolicyByName(s.Policy); err != nil {
			return engine.Config{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return cfg, nil
}

// EffectiveLimits returns the estimation limits the scenario runs with.
func (s Scenario) EffectiveLimits() []float64 {
	if s.Engine.Limits == nil {
		return trace.DefaultLengthLimits
	}
	return s.Engine.Limits
}

// registry is the named scenario catalog. Guarded by a mutex so tests
// and init-time registration interleave safely.
var (
	registryMu sync.RWMutex
	registry   = make(map[string]Scenario)
)

// Register adds a scenario to the catalog under its Name, replacing any
// previous entry. It panics on an empty name or an unresolvable policy,
// so bad catalog entries fail at startup rather than mid-sweep.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: Register requires a name")
	}
	if s.Engine.Policy == nil {
		if _, err := PolicyByName(s.Policy); err != nil {
			panic(err)
		}
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[s.Name] = s
}

// Get looks a scenario up by name.
func Get(name string) (Scenario, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
