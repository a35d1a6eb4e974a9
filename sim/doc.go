// Package sim is the public, supported API of this repository: a
// composable facade over the internal discrete-event engine, the
// declarative scenario layer, and the deterministic parallel sweep
// executor that reproduce conf_sc_DiRVKWC13's MNOF-based optimal
// checkpointing study.
//
// # Building and running a simulation
//
// A Simulation starts from a registered scenario (ScenarioByName) or
// from the paper's headline setup (New), takes functional options on
// top, and is executed with a context:
//
//	s, err := sim.ScenarioByName("hostfail-storm",
//		sim.WithSeed(42),
//		sim.WithJobs(500),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := s.Run(context.Background())
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("mean WPR %.3f over %d jobs\n", res.MeanWPR(), len(res.Jobs))
//
// Run executes entirely on the calling goroutine; canceling the context
// stops the event loop at its next chunk and returns ctx.Err() without
// leaking anything. RunSweep fans many Simulations across a worker pool
// with byte-identical results for every worker count, sharing
// materialized traces and history estimators between runs that agree on
// (seed, workload).
//
// # Extension points
//
// The scenario registry declares the models the study varies — host
// crashes, oracle estimates, non-blocking checkpoints, storage modes,
// workload shapes — so options only select among them. The one plug-in
// is Policy (checkpoint-interval planning), an alias of the engine's own
// interface: a custom implementation reaches the planner unwrapped, and
// the built-ins come from Formula3 and Young or, by name, from
// WithPolicyName. FailureProcess, also the engine's own interface, is
// what NewTraceFailureProcess returns and CountFailures reads.
//
// # Results
//
// Run produces a stable Result — per-job and per-task outcomes, the
// paper's Workload-Processing Ratio, and aggregate fault-tolerance
// accounting — that marshals to JSON, so downstream tooling does not
// need Go at all. Its JobOutcome and TaskOutcome records are the
// engine's own, each written once when its job or task completes, not
// copies. Sweeps yield one Outcome per run with the same property.
//
// # One type per concept
//
// Where the facade names a concept the internal layers already define,
// its type is an alias, so values cross the boundary without a
// conversion: Workload, TraceConfig, StorageMode, Summary, Point,
// Curve, StorageCosts, StorageChoice, AdaptivePlan, Estimate, Policy,
// FailureProcess, TaskOutcome and JobOutcome. One rule decides what
// the trace generator accepts, TraceConfig.Validate: GenerateTrace and
// WithWorkload both apply it, and each refusal names the field.
//
// # Beyond single runs
//
// The package also fronts the rest of the reproduction so binaries and
// examples never import repro/internal: checkpoint planning formulas
// (OptimalIntervalCount, YoungInterval, AdviseStorage, AdaptivePlan),
// synthetic trace generation and serialization (GenerateTrace,
// ReadTrace), distribution fitting (FitFailureDistributions), the named
// scenario registry (ScenarioByName), the full experiment registry
// reproducing every figure and table (RunExperiment, RunExperiments),
// and the performance-benchmark matrix behind cmd/simbench and the
// committed BENCH_<date>.json reports (RunBench).
package sim
