// Package sweep executes independent simulation runs across a worker
// pool. It is the parallel backbone of the experiment layer: each
// figure or table is a list of scenario.Scenario values, and
// ScenariosContext fans the corresponding engine runs across GOMAXPROCS
// workers while guaranteeing byte-identical results for any worker
// count.
//
// # Determinism contract
//
// Determinism comes from three properties: every run executes under
// the seed its Run entry carries, used verbatim (0 included) and never
// derived from execution order — callers that derive seeds from a base
// seed and the run index do so with sim.DeriveSeed; traces and history
// estimators are materialized from those seeds alone and shared
// read-only; and results are written into index-addressed slots, so
// scheduling can change only *when* a run executes, never *what* it
// computes or where it lands.
//
// # Batching
//
// Workers claim indices from the shared counter in contiguous chunks
// sized from the index count and the worker count, so sweeps over many
// small runs amortize claim contention instead of hitting the counter
// once per run. Batching is invisible in the output — results stay
// index-addressed — and cancellation stays per-index: a worker mid-
// chunk records ctx.Err() for the chunk's remaining indices without
// executing them.
//
// # Cancellation
//
// MapContext and ScenariosContext stop issuing new work once ctx is
// done, drain every call already in flight, and record ctx.Err() on
// skipped indices; the returned error joins every per-index error,
// organic and canceled alike.
package sweep
