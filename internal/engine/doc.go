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
// Config exposes the seams the public repro/sim package fronts:
// CustomEstimator (failure statistics), FailureModel (failure
// processes), LocalBackend/SharedBackend (checkpoint devices), and
// Progress (streaming observability). Defaults reproduce the paper's
// testbed exactly; every seam, when left nil, keeps the built-in
// behavior and the built-in random streams.
package engine
