// Package trace models Google-cluster-like workloads: jobs composed of
// sequential tasks (ST) or bags of tasks (BoT), with per-task priority,
// memory footprint, execution length, and a seeded failure process.
//
// The authors replay a one-month production trace; this package
// substitutes a synthetic generator calibrated to the statistics the
// paper publishes — the Figure 8 CDFs of job memory size and execution
// length, the Pareto shape of failure intervals with the exponential
// best fit (lambda = 0.00423445) below 1000 s (Figure 5), and the
// per-priority MNOF/MTBF structure of Table 7. Policies consume only
// these statistics, so the substitution preserves the behavior under
// study.
//
// The package splits into five concerns:
//
//   - trace.go: the Trace, the one in-memory form of a trace —
//     handle-indexed task and job columns plus one string arena of IDs
//     — its job-subset views (BatchJobs, Filter), and the JSON-lines
//     serialization (Write, Read) used by cmd/tracegen;
//   - types.go: the Job and Task values of that JSON-lines boundary
//     and of the plug-in hooks, and their validation;
//   - gen.go: the seeded synthetic generator (trace.Generate), whose
//     per-job/per-task draws come from split RNG streams so any single
//     knob change perturbs only its own stream;
//   - priorities.go: the per-priority Pareto interval models and
//     NewFailureProcess / InitFailureProcess, the bridge from a task to
//     its failure process;
//   - history.go: failure-history replay (BuildEstimator / EstimateFor),
//     the paper's estimate-from-the-trace methodology including its
//     deliberate MTBF-inflation asymmetry.
//
// Generation is on the simulator's hot path at large scales, so the
// generator draws every job's shape first, sizes each column exactly,
// and then writes the draws straight into the columns: a trace costs a
// fixed couple of dozen allocations whatever its size, which
// TestGenerateAllocBudget guards.
package trace
