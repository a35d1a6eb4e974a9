package simsrv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/internal/jsonenc"
	"repro/sim"
)

// maxResultBytes bounds one published run result document.
const maxResultBytes = 64 << 20

// publishBufs holds the buffers publish bodies are read into. A buffer
// grows only with the bytes a body delivers, never from the declared
// Content-Length, which any client may set; one grown past
// maxPooledPublish is dropped instead of pooled, so the pool never pins
// a body near maxResultBytes.
var publishBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledPublish bounds a pooled publish buffer at about 20 times a
// 20-job result.
const maxPooledPublish = 1 << 20

// dist returns the claim-serving state of a distributed job, when it is
// currently accepting claims, and a release func the caller must call
// once it stops using it: the coordinator waits for every holder after it
// stops serving claims, so no request writes to the store once the job
// has left running.
func (s *Server) dist(id string) (*distJob, func()) {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	d := s.coords[id]
	if d == nil {
		return nil, nil
	}
	d.handlers.Add(1)
	return d, d.handlers.Done
}

// noCoordinator writes the verdict for a claim-scoped request that
// found no coordinator serving the job. The distinction matters to
// retrying workers: 503 means the job is merely between processes — a
// restarted simd has requeued it but the dispatcher has not yet
// reopened its ledger — so the worker's transport should retry under
// its lease budget; 410 means the job is truly finished with claims
// (terminal, or never distributed) and the claim must be abandoned.
func (s *Server) noCoordinator(w http.ResponseWriter, id string) {
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	var sp sim.JobSpec
	if err := json.Unmarshal(j.Spec, &sp); err == nil && sp.Normalize().Distributed {
		switch j.State {
		case jobstore.Queued, jobstore.Running:
			writeError(w, http.StatusServiceUnavailable, "job %s: coordinator warming up, retry", id)
			return
		}
	}
	writeError(w, http.StatusGone, "job %s is not accepting claims", id)
}

// handleWork lists the jobs with claimable indices right now, sorted
// for stable output.
func (s *Server) handleWork(w http.ResponseWriter, r *http.Request) {
	var jobs []string
	s.cmu.Lock()
	ids := make([]string, 0, len(s.coords))
	for id := range s.coords {
		ids = append(ids, id)
	}
	s.cmu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		d, release := s.dist(id)
		if d == nil {
			continue
		}
		_, _, available := d.ledger.Counts()
		release()
		if available > 0 {
			jobs = append(jobs, id)
		}
	}
	writeJSON(w, http.StatusOK, coord.WorkList{Jobs: jobs})
}

// handleClaim leases an index range of one distributed job:
// 200 with the claim, 204 when nothing is available right now, 404 for
// an unknown job, 409 when the job is not accepting claims (not
// distributed, not running, already merged) or the worker runs a
// different engine version.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req coord.ClaimRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding claim request: %v", err)
		return
	}
	if req.EngineVersion != sim.Version {
		writeError(w, http.StatusConflict, "engine version mismatch: server %s, worker %q", sim.Version, req.EngineVersion)
		return
	}
	d, release := s.dist(id)
	if d == nil {
		if _, ok := s.store.Get(id); !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		writeError(w, http.StatusConflict, "job %s is not accepting claims", id)
		return
	}
	defer release()
	cl, ok := d.ledger.Claim(req.Worker, req.Max)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	s.logf("%s: claim %s [%d,%d) leased to %q", id, cl.ID, cl.Start, cl.End, req.Worker)
	writeJSON(w, http.StatusOK, coord.ClaimResponse{
		Job:       id,
		ClaimID:   cl.ID,
		Start:     cl.Start,
		End:       cl.End,
		LeaseMS:   s.lease.Milliseconds(),
		Spec:      d.raw,
		RunsTotal: d.spec.Runs,
	})
}

// handleClaimRenew extends a live claim's lease: 200; 503 while the
// coordinator is between processes (retry); 410 once the lease is lost
// (expired, completed, job terminally done with claims).
func (s *Server) handleClaimRenew(w http.ResponseWriter, r *http.Request) {
	id, claim := r.PathValue("id"), r.PathValue("claim")
	d, release := s.dist(id)
	if d == nil {
		s.noCoordinator(w, id)
		return
	}
	defer release()
	cl, err := d.ledger.Renew(claim)
	if err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, coord.ClaimResponse{
		Job: id, ClaimID: cl.ID, Start: cl.Start, End: cl.End,
		LeaseMS: s.lease.Milliseconds(), RunsTotal: d.spec.Runs,
	})
}

// handleClaimComplete retires a claim, returning any indices the worker
// did not publish to the available pool. 410 for a lost lease — which
// already returned them.
func (s *Server) handleClaimComplete(w http.ResponseWriter, r *http.Request) {
	id, claim := r.PathValue("id"), r.PathValue("claim")
	d, release := s.dist(id)
	if d == nil {
		s.noCoordinator(w, id)
		return
	}
	defer release()
	if err := d.ledger.Complete(claim); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "completed"})
}

// handlePublishRun accepts one run's result document from the claim
// holder. A zombie claim is fenced with 410 and a body that is not JSON
// gets 400, both before anything is written; then persist stores the
// body in canonical form, as the local path stores AppendJSON output,
// and the ledger completion comes last — a crash or lost lease between
// any two steps heals on the next claim via the cache probe, and the
// checkpoint log records each index at most once. A body already
// canonical, as every AppendJSON output is, is stored as received; any
// other is stored as json.Marshal re-encodes it.
func (s *Server) handlePublishRun(w http.ResponseWriter, r *http.Request) {
	id, claim := r.PathValue("id"), r.URL.Query().Get("claim")
	index, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad run index %q", r.PathValue("index"))
		return
	}
	// The body is read before the lookup, so a slow upload never holds
	// up a coordinator waiting for its handlers. A body the server could
	// not finish reading says nothing about the run and charges nothing.
	// The buffer goes back to the pool once persist has written it.
	buf := publishBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledPublish {
			buf.Reset()
			publishBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, maxResultBytes+1)); err != nil {
		writeError(w, http.StatusBadRequest, "reading result: %v", err)
		return
	}
	data := buf.Bytes()
	d, release := s.dist(id)
	if d == nil {
		s.noCoordinator(w, id)
		return
	}
	defer release()
	if err := d.ledger.Owns(claim, index); err != nil {
		status := http.StatusConflict
		if errors.Is(err, coord.ErrLeaseLost) {
			status = http.StatusGone
		}
		writeError(w, status, "%v", err)
		return
	}
	// Only a canonical JSON document may reach the cache: reports embed
	// entries verbatim, and a rejected document under the run's content
	// address would fail every later job that shares it. HTML escapes can
	// grow a body up to 6x, so the cap applies after re-encoding too. A
	// refusal charges the index an attempt, as an engine failure does: a
	// run whose result is always refused fails the job with the
	// quarantine diagnosis instead of being claimed and recomputed forever.
	if len(data) <= maxResultBytes {
		data, err = jsonenc.Canonical(data)
	}
	if len(data) > maxResultBytes || err != nil {
		reason := fmt.Sprintf("result refused: not a JSON document of at most %d bytes", maxResultBytes)
		// An error here is a lease lost since Owns; its fence charged the index.
		_ = d.ledger.Fail(claim, index, reason)
		writeError(w, http.StatusBadRequest, "%s", reason)
		return
	}
	if err := s.persist(id, index, d.keys[index], data); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if err := d.ledger.CompleteIndex(claim, index); err != nil {
		// The lease lapsed between the fence and here: the bytes are
		// durable and will be discovered by the next claimant's cache
		// probe, but this worker no longer owns the index.
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	done, _, _ := d.ledger.Counts()
	idx := index
	s.publishEvent(id, d.a, event{Type: "run_finished", Index: &idx, Completed: done, Total: d.spec.Runs})
	writeJSON(w, http.StatusOK, map[string]any{"status": "recorded", "runs_completed": done})
}

// handleRunFailed accepts a worker's report that one run index failed
// inside the engine. The index returns to the pool and is charged one
// attempt toward its quarantine budget — reaching it fails the job
// loudly with the reported reason in the diagnosis. 410 fences zombie
// claims, exactly like a publish.
func (s *Server) handleRunFailed(w http.ResponseWriter, r *http.Request) {
	id, claim := r.PathValue("id"), r.URL.Query().Get("claim")
	index, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad run index %q", r.PathValue("index"))
		return
	}
	var req coord.FailRequest
	if err := readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding failure report: %v", err)
		return
	}
	d, release := s.dist(id)
	if d == nil {
		s.noCoordinator(w, id)
		return
	}
	defer release()
	if err := d.ledger.Fail(claim, index, req.Reason); err != nil {
		status := http.StatusConflict
		if errors.Is(err, coord.ErrLeaseLost) {
			status = http.StatusGone
		}
		writeError(w, status, "%v", err)
		return
	}
	s.logf("%s: run %d failed under claim %s: %s", id, index, claim, req.Reason)
	writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

// handleClaims serves the coordinator's live claim-ledger snapshot for
// one distributed job: index population, every live claim with owner
// and lease deadline, and every index carrying failed attempts — the
// first place to look when a distributed sweep is stuck or dying.
func (s *Server) handleClaims(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d, release := s.dist(id)
	if d == nil {
		s.noCoordinator(w, id)
		return
	}
	defer release()
	writeJSON(w, http.StatusOK, d.ledger.View())
}
