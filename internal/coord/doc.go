// Package coord is the distributed-sweep coordination layer: it shards
// a sweep's index space into leased, re-issuable claims and implements
// the worker side of the claim protocol.
//
// A sweep of n runs is index-addressed — per-run seeds derive only from
// (base seed, index) — so distributing it is purely a question of who
// executes which indices. The Ledger generalizes the in-process chunked
// claim counter (sweep.MapContext) to remote claims: a worker
// leases a contiguous range [start, end) for a bounded time, renews the
// lease while it computes, publishes each run's result bytes into the
// content-addressed cache as it finishes, and finally completes the
// claim. A lease that expires — worker crash, SIGKILL, network
// partition — silently returns the indices the claim still leases to
// the available pool, where the next claim re-issues them under a
// fresh claim ID; the dead claim's ID is invalidated, so a zombie that
// comes back after expiry is fenced off with ErrLeaseLost. The ledger
// records the one claim leasing each index, and a claim answers only
// for the indices it still leases: an index it failed and another claim
// leased is no longer its to publish, release or charge (exactly one
// live leaseholder per index, ever). Indices the zombie already
// published are durable in the cache and heal by probe: re-running
// them produces byte-identical bytes, and the checkpoint log records
// each index at most once — it is the only record of completions, so
// the ledger's write-ahead log never repeats them.
//
// Because results land in a content-addressed cache keyed by (spec
// hash, run seed, engine version) and the merged report is assembled
// exclusively from cache bytes, N workers across M processes — with any
// schedule of crashes and lease expiries — produce a report
// byte-identical to a serial run.
//
// The HTTP surface lives in internal/simsrv (POST /v1/jobs/{id}/claims
// and friends); Worker in this package is the client loop the simw
// binary and the fault-injection tests share.
package coord
