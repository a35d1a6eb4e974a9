// Package engine runs Google-like workloads through the simulated
// cluster under a checkpointing policy, reproducing the paper's
// evaluation pipeline: jobs arrive per the trace, tasks are placed on
// the host with maximum available memory, failures strike per each
// task's failure process, tasks roll back to their last checkpoint and
// restart on another host, and the per-job Workload-Processing Ratio
// (WPR) and wall-clock length are recorded.
//
// The engine is single-threaded and deterministic: a Config plus a
// trace reproduces a run bit-for-bit. RunWithEstimatorContext, the one
// entry point, takes the history estimator the configuration needs
// (Config.NeedsHistory) from its caller and adds cooperative
// cancellation — the event loop polls the context between chunks and
// returns ctx.Err() without leaving anything behind, since the whole
// simulation lives on the calling goroutine.
//
// The public repro/sim package plugs two Config seams: Policy (a custom
// checkpoint-interval policy) and Progress (streaming observability).
// CustomEstimator (failure statistics), FailureModel (failure
// processes) and LocalBackend/SharedBackend (checkpoint devices) are
// seams for tests and perfbench: the engine's own tests drive them with
// fixed statistics, a never-failing process and constant-cost devices,
// the inputs a reference model of the paper's single-task process
// needs, and perfbench reads CustomEstimator. Every seam, when left
// nil, keeps the built-in behavior and the built-in random streams.
//
// The paper's testbed is fixed, so it is a set of constants rather
// than Config fields: 32 hosts backing 7 x 1 GB VMs each, a 0.5 s
// failure-detection delay, a 0.2 s dispatch delay and a 600 s host
// repair time. The engine keeps no branch a run cannot take; where
// it relies on an invariant instead (a running task holds its
// placement, no milestone lies behind progress), a comment says so.
package engine
