package simsrv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/sim"
)

// runJob executes one queued job end to end, choosing the terminal (or
// requeue) transition from how the sweep ended.
func (s *Server) runJob(id string) {
	j, ok := s.store.Get(id)
	if !ok || j.State != jobstore.Queued {
		return // canceled (or otherwise moved) while waiting in the queue
	}
	a := s.watch(id)
	defer s.unwatch(id, a)

	jobCtx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	a.mu.Lock()
	a.cancel = cancel
	a.mu.Unlock()

	if err := s.transition(id, a, jobstore.Running, "picked up by worker"); err != nil {
		s.logf("%s: %v", id, err)
		return
	}
	err := s.execute(jobCtx, id, a)
	a.mu.Lock()
	userCancel := a.userCancel
	a.mu.Unlock()
	switch {
	case err == nil:
		err = s.transition(id, a, jobstore.Done, "sweep complete")
	case userCancel && errors.Is(err, context.Canceled):
		err = s.transition(id, a, jobstore.Canceled, "canceled by request")
	case errors.Is(err, context.Canceled):
		// Drain: completed indices are already durable; the next
		// process resumes from them.
		err = s.transition(id, a, jobstore.Queued, "drained: simd shutting down")
	default:
		err = s.transition(id, a, jobstore.Failed, err.Error())
	}
	if err != nil {
		s.logf("%s: %v", id, err)
	}
}

// runKeys decodes a job's stored spec, normalized, and the cache key of
// each of its runs.
func runKeys(raw json.RawMessage) (sim.JobSpec, []string, error) {
	var sp sim.JobSpec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, nil, fmt.Errorf("bad stored spec: %w", err)
	}
	sp = sp.Normalize()
	keys := make([]string, sp.Runs)
	for i := range keys {
		var err error
		if keys[i], err = sp.RunKey(i); err != nil {
			return sp, nil, err
		}
	}
	return sp, keys, nil
}

// execute runs the job's sweep, skipping every index that is already
// durably complete (checkpoint record or cache hit), and persists each
// run as it finishes. The job is done once every run's result is in the
// cache, from which each GET of its report streams.
func (s *Server) execute(ctx context.Context, id string, a *activeJob) error {
	j, ok := s.store.Get(id)
	if !ok {
		return fmt.Errorf("job %s vanished", id)
	}
	sp, keys, err := runKeys(j.Spec)
	if err != nil {
		return err
	}
	simu, err := sp.Simulation()
	if err != nil {
		return err
	}
	n := sp.Runs

	// Resume point: indices recorded in the job's checkpoint log plus
	// indices whose results another job already cached. Cache hits are
	// promoted into the checkpoint log so the job's own record is
	// complete.
	var done, missing []int
	for i := 0; i < n; i++ {
		if _, ok := j.Runs[i]; !ok {
			if !s.cache.Has(keys[i]) {
				missing = append(missing, i)
				continue
			}
			if err := s.store.RecordRun(id, i, keys[i]); err != nil {
				return err
			}
		}
		done = append(done, i)
	}
	if len(done) > 0 {
		s.logf("%s: resuming with %d/%d runs already complete", id, len(done), n)
	}

	if sp.Distributed {
		return s.executeDistributed(ctx, id, a, sp, j.Spec, keys, done)
	}

	// An empty OnlyIndices means no filter, so a job whose runs are all
	// durable already must not reach the sweep at all.
	if len(missing) > 0 {
		// Every run is pinned to RunSeed, the one seed rule the cache
		// keys and the distributed worker share.
		runs := make([]sim.Run, n)
		for i := range runs {
			runs[i] = sim.Pin(simu, sp.RunSeed(i))
		}
		p := &runPersister{srv: s, job: id, a: a, keys: keys, total: n, lastEvents: make([]uint64, n), done: len(done)}
		_, err := sim.RunSweep(ctx, runs, sim.SweepOptions{
			Workers:     s.sweepWorkers,
			OnlyIndices: missing,
			Observer:    p,
		})
		if err != nil {
			return err
		}
		if p.err != nil { // the pool has drained: no observer call is in flight
			return p.err
		}
	}
	return s.cache.requireAll(keys)
}

// executeDistributed serves one distributed job: instead of running the
// sweep locally, it opens a claim ledger over the index space — durably
// backed by the job's write-ahead log, so a restarted coordinator
// resumes mid-flight with live leases, permanent claim-ID fences, and
// per-index attempt counts intact — marks indices already durable as
// done, and registers the ledger with the HTTP claim surface. It then
// waits for workers to publish every index; for the ledger turning
// fatal (a quarantined run or an unwritable WAL), which fails the job
// loudly with the diagnosis; or for cancellation/drain, which
// unregisters the ledger so outstanding claims are fenced (their
// publishes get 410) and the job takes its normal requeue/cancel
// transition with everything already published still durable. On
// completion every result is in the cache, exactly as after a local run.
func (s *Server) executeDistributed(ctx context.Context, id string, a *activeJob, sp sim.JobSpec, raw json.RawMessage, keys []string, done []int) error {
	led := coord.NewLedger(sp.Runs, s.lease)
	led.SetMaxAttempts(s.maxAttempts)
	wal, recs, err := coord.OpenWAL(filepath.Join(s.store.JobDir(id), "claims.ndjson"))
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := led.Recover(wal, recs); err != nil {
		return err
	}
	if len(recs) > 0 {
		s.logf("%s: replayed %d claim-ledger records", id, len(recs))
	}
	// The WAL holds no completions: the checkpointed and cached indices
	// are the done set, and they override any replayed lease over them.
	led.MarkDone(done...)
	d := &distJob{ledger: led, spec: sp, raw: raw, keys: keys, a: a}
	s.cmu.Lock()
	s.coords[id] = d
	s.cmu.Unlock()
	defer func() {
		s.cmu.Lock()
		delete(s.coords, id)
		s.cmu.Unlock()
		d.handlers.Wait() // a publish past its lookup lands before the job moves on
	}()
	s.logf("%s: accepting claims (%d/%d runs already complete, lease %s)", id, len(done), sp.Runs, s.lease)
	// A fully-recovered sweep may be done (or fatal) already; prefer
	// done — every index durable means the poison verdict is moot.
	select {
	case <-led.Done():
		return s.cache.requireAll(keys)
	default:
	}
	select {
	case <-led.Done():
		return s.cache.requireAll(keys)
	case <-led.Fatal():
		return led.FatalErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// persist makes one finished run durable, in the order every crash
// window depends on: the result bytes go to the content-addressed cache
// first, and only then is the index checkpointed in the job's log. A
// crash between the two leaves cached bytes without a record, which the
// cache probe on resume (or on the next claim) promotes without
// re-running. Local runs and published remote runs both persist here.
func (s *Server) persist(job string, index int, key string, data []byte) error {
	if err := s.cache.Put(key, data); err != nil {
		return err
	}
	return s.store.RecordRun(job, index, key)
}

// runPersister is the local sweep's observer: it persists each run as
// it finishes and streams progress to the job's subscribers.
type runPersister struct {
	srv   *Server
	job   string
	a     *activeJob
	keys  []string
	total int

	mu         sync.Mutex
	lastEvents []uint64 // latest progress per run; a.events is their sum
	done       int
	err        error // first persist failure; it fails the job
}

func (p *runPersister) RunStarted(info sim.RunInfo) {
	idx := info.Index
	p.srv.publishEvent(p.job, p.a, event{Type: "run_started", Index: &idx, Seed: info.Seed, Total: p.total})
}

func (p *runPersister) RunProgress(info sim.RunInfo, prog sim.Progress) {
	p.mu.Lock()
	delta := prog.Events - p.lastEvents[info.Index]
	p.lastEvents[info.Index] = prog.Events
	p.mu.Unlock()
	p.a.mu.Lock()
	p.a.events += delta
	p.a.mu.Unlock()
	idx := info.Index
	p.srv.publishEvent(p.job, p.a, event{
		Type: "run_progress", Index: &idx, Seed: info.Seed,
		Events: prog.Events, SimSeconds: prog.SimSeconds,
	})
}

func (p *runPersister) RunFinished(info sim.RunInfo, out sim.Outcome) {
	if out.Err != nil || out.Result == nil {
		return
	}
	data, err := out.Result.AppendJSON(nil)
	if err == nil {
		err = p.srv.persist(p.job, info.Index, p.keys[info.Index], data)
	}
	if err != nil {
		p.mu.Lock()
		if p.err == nil {
			p.err = fmt.Errorf("run %d: persisting result: %w", info.Index, err)
		}
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	p.done++
	done := p.done
	p.mu.Unlock()
	idx := info.Index
	p.srv.publishEvent(p.job, p.a, event{Type: "run_finished", Index: &idx, Completed: done, Total: p.total})
}
