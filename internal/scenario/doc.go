// Package scenario turns this repository's experiments into data. A
// Scenario declares everything one simulation run depends on — the
// workload to generate, the cluster shape, the checkpointing policy,
// the storage mode, the statistics estimator, and the fault model — and
// compiles down to the trace.GenConfig / engine.Config pair that
// internal/sweep materializes and executes.
//
// The declarative form buys three things over hand-rolled engine
// calls: experiments become sweeps over scenario lists (one code path,
// arbitrary fan-out), the named registry opens workloads beyond the
// paper's figures to the CLI and tests without new Go code at call
// sites, and every field is plain data, so scenarios can be compared,
// cached, and distributed across workers deterministically.
//
// The named registry (Register / Get / Names) is the shared catalog
// behind `cloudsim -scenario <name>` and the benchmark matrix
// (internal/benchkit): registering a scenario makes it runnable from
// the CLI, usable as a sweep entry, and measurable by `simbench`
// without further wiring. Built-ins live in builtin.go.
package scenario
