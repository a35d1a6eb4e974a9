package sim

import (
	"encoding/json"
	"fmt"
)

// MaxSpecRuns caps a single job spec's sweep width.
const MaxSpecRuns = 100000

// MaxSpecJobs caps every workload size the library accepts — a job
// spec's Jobs and Workload.Jobs, WithJobs, WithWorkload,
// SweepOptions.DefaultJobs, ExperimentOptions.Jobs and
// TraceConfig.Jobs — at the largest benchmark tier. It bounds what the
// trace generator is asked to allocate up front; it is not a memory
// budget for a run.
const MaxSpecJobs = 1000000

// checkJobs rejects a workload size past MaxSpecJobs.
func checkJobs(what string, n int) error {
	if n > MaxSpecJobs {
		return fmt.Errorf("%s %d exceeds the %d cap", what, n, MaxSpecJobs)
	}
	return nil
}

// JobSpec is the JSON description of one service job: a registry
// scenario plus overrides. It is the wire format of the simd service
// and the simw worker — both resolve the same spec bytes through this
// type, so a spec's runnable simulation, per-run seeds, and
// content-address keys are identical in every process that holds it.
// The zero values of the optional fields inherit the scenario's own
// declaration.
type JobSpec struct {
	// Scenario names a registry entry (see Scenarios()); required.
	Scenario string `json:"scenario"`
	// Seed is the base seed (default 1). A 1-run job executes under
	// exactly this seed; a sweep derives per-run seeds from (Seed,
	// index) the same way RunSweep does.
	Seed uint64 `json:"seed,omitempty"`
	// Jobs overrides the workload size in jobs; 0 keeps the scenario's
	// (or the library's 2000-job) default.
	Jobs int `json:"jobs,omitempty"`
	// Runs is the sweep width (default 1).
	Runs int `json:"runs,omitempty"`
	// Policy overrides the checkpoint policy by name ("formula3",
	// "young", "daly", "random", "none").
	Policy string `json:"policy,omitempty"`
	// Workload, when non-nil, replaces the scenario's workload
	// declaration entirely.
	Workload *Workload `json:"workload,omitempty"`
	// Distributed marks the job for remote execution: instead of
	// running the sweep itself, the service shards the index space into
	// leased claims that simw workers pick up over HTTP. Execution mode
	// never changes what is computed, so it is excluded from SpecHash —
	// distributed and local runs of the same work share cache entries.
	Distributed bool `json:"distributed,omitempty"`
}

// Normalize fills defaults so equivalent submissions serialize — and
// therefore hash — identically.
func (sp JobSpec) Normalize() JobSpec {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Runs <= 0 {
		sp.Runs = 1
	}
	return sp
}

// Validate resolves the spec against the registry, reporting unknown
// scenarios, bad policies, and rejected workloads without running
// anything.
func (sp JobSpec) Validate() error {
	sp = sp.Normalize()
	if sp.Scenario == "" {
		return fmt.Errorf("sim: spec requires a scenario name")
	}
	if sp.Runs > MaxSpecRuns {
		return fmt.Errorf("sim: runs %d exceeds the %d cap", sp.Runs, MaxSpecRuns)
	}
	if sp.Jobs < 0 {
		return fmt.Errorf("sim: negative jobs %d", sp.Jobs)
	}
	// Simulation applies WithJobs and WithWorkload, which enforce
	// MaxSpecJobs.
	_, err := sp.Simulation()
	return err
}

// Simulation builds the runnable simulation the spec describes.
func (sp JobSpec) Simulation() (*Simulation, error) {
	sp = sp.Normalize()
	var opts []Option
	opts = append(opts, WithSeed(sp.Seed))
	if sp.Jobs > 0 {
		opts = append(opts, WithJobs(sp.Jobs))
	}
	if sp.Policy != "" {
		opts = append(opts, WithPolicyName(sp.Policy))
	}
	if sp.Workload != nil {
		opts = append(opts, WithWorkload(*sp.Workload))
	}
	return ScenarioByName(sp.Scenario, opts...)
}

// RunSeed returns the seed run index i executes under: the base seed
// itself for a 1-run job (matching a direct Simulation.Run of the same
// spec), the sweep derivation otherwise (matching RunSweep).
func (sp JobSpec) RunSeed(i int) uint64 {
	sp = sp.Normalize()
	if sp.Runs == 1 {
		return sp.Seed
	}
	return DeriveSeed(sp.Seed, i)
}

// SpecHash is the canonical hash of the per-run work definition: the
// normalized spec with the run-addressing fields (seed, runs) and the
// execution-mode field (distributed) zeroed, since those identify the
// run or how it is scheduled, never the work. Together with the run
// seed and Version it forms the content address of a run's result.
func (sp JobSpec) SpecHash() (string, error) {
	sp = sp.Normalize()
	sp.Seed, sp.Runs, sp.Distributed = 0, 0, false
	return SpecHash(sp)
}

// runKeySpec is the content-address preimage of one run's result.
type runKeySpec struct {
	SpecHash      string `json:"spec_hash"`
	Seed          uint64 `json:"seed"`
	EngineVersion string `json:"engine_version"`
}

// RunKey returns the content-address of run index i's result:
// SHA-256 over the canonical JSON of (spec hash, run seed, Version).
// Bumping Version therefore invalidates every cached result wholesale.
func (sp JobSpec) RunKey(i int) (string, error) {
	h, err := sp.SpecHash()
	if err != nil {
		return "", err
	}
	return SpecHash(runKeySpec{SpecHash: h, Seed: sp.RunSeed(i), EngineVersion: Version})
}

// MarshalNormalized renders the normalized spec as canonical JSON — the
// form stored by the simd service, so replayed jobs re-derive identical
// hashes.
func (sp JobSpec) MarshalNormalized() (json.RawMessage, error) {
	raw, err := json.Marshal(sp.Normalize())
	if err != nil {
		return nil, err
	}
	return CanonicalJSON(raw)
}
