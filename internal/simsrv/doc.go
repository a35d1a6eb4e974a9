// Package simsrv is the simulation-as-a-service layer: an HTTP API
// over the public repro/sim library with a durable, resumable job
// lifecycle (internal/jobstore) and a content-addressed result cache.
//
// Jobs are JSON specs resolved through the scenario registry. A job is
// a sweep of Runs index-addressed simulation runs; per-run seeds derive
// only from (base seed, run index), so every run has a stable identity
// (spec hash, run seed, engine version) that keys its cached result.
// Completed run indices are persisted as they finish — a killed server
// resumes a sweep by re-running exactly the missing indices. The cache
// holds the only copy of each run's result: a job is done once every
// run is cached, and each GET of its report streams the spec header and
// then the cached results, as is, byte-identical to an uninterrupted
// run's report.
//
// A job submitted with "distributed": true is not executed by the
// server's own sweep pool: its index space is sharded into leased
// claims served over the HTTP API (see internal/coord) and executed by
// simw worker processes, whose published results land in the same
// cache.
package simsrv
