package simsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobstore"
	"repro/sim"
)

// JobView is the API rendering of one job.
type JobView struct {
	ID            string           `json:"id"`
	State         string           `json:"state"`
	Spec          json.RawMessage  `json:"spec"`
	RunsTotal     int              `json:"runs_total"`
	RunsCompleted int              `json:"runs_completed"`
	Events        uint64           `json:"events,omitempty"`
	Created       time.Time        `json:"created"`
	Updated       time.Time        `json:"updated"`
	Transitions   []jobstore.Event `json:"transitions,omitempty"`
}

func (s *Server) view(j jobstore.Job, withTransitions bool) JobView {
	var sp sim.JobSpec
	_ = json.Unmarshal(j.Spec, &sp)
	v := JobView{
		ID:            j.ID,
		State:         string(j.State),
		Spec:          j.Spec,
		RunsTotal:     sp.Normalize().Runs,
		RunsCompleted: len(j.Runs),
		Created:       j.Created,
		Updated:       j.Updated,
	}
	if withTransitions {
		v.Transitions = j.Events
	}
	s.amu.Lock()
	if a := s.active[j.ID]; a != nil {
		a.mu.Lock()
		v.Events = a.events
		a.mu.Unlock()
	}
	s.amu.Unlock()
	return v
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"engine_version": sim.Version})
	})
	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, sim.Scenarios())
	})
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	// The distributed-sweep claim surface (see internal/coord).
	mux.HandleFunc("GET /v1/work", s.handleWork)
	mux.HandleFunc("POST /v1/jobs/{id}/claims", s.handleClaim)
	mux.HandleFunc("GET /v1/jobs/{id}/claims", s.handleClaims)
	mux.HandleFunc("POST /v1/jobs/{id}/claims/{claim}/renew", s.handleClaimRenew)
	mux.HandleFunc("POST /v1/jobs/{id}/claims/{claim}/complete", s.handleClaimComplete)
	mux.HandleFunc("POST /v1/jobs/{id}/runs/{index}", s.handlePublishRun)
	mux.HandleFunc("POST /v1/jobs/{id}/runs/{index}/failed", s.handleRunFailed)
	return mux
}

// maxRequestBytes bounds a JSON request body: a job spec, a claim
// request or a failure report.
const maxRequestBytes = 1 << 20

// readJSON strictly decodes a request body of at most maxRequestBytes
// into out.
func readJSON(w http.ResponseWriter, r *http.Request, out any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp sim.JobSpec
	if err := readJSON(w, r, &sp); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := sp.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := sp.MarshalNormalized()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	j, err := s.store.Create(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.enqueue(j.ID)
	writeJSON(w, http.StatusAccepted, s.view(j, true))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = s.view(j, false)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.view(j, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch j.State {
	case jobstore.Queued:
		a := s.watch(id)
		err := s.transition(id, a, jobstore.Canceled, "canceled by request")
		s.unwatch(id, a)
		if err != nil {
			// A worker may have picked the job up concurrently; report
			// the live state instead of failing the request.
			j, _ = s.store.Get(id)
			if j.State != jobstore.Running {
				writeError(w, http.StatusConflict, "%v", err)
				return
			}
			s.cancelRunning(id)
		}
	case jobstore.Running:
		s.cancelRunning(id)
	default:
		writeError(w, http.StatusConflict, "job %s is already %s", id, j.State)
		return
	}
	j, _ = s.store.Get(id)
	writeJSON(w, http.StatusAccepted, s.view(j, true))
}

// cancelRunning flags the active job as user-canceled and interrupts
// its sweep; the worker records the canceled transition.
func (s *Server) cancelRunning(id string) {
	s.amu.Lock()
	a := s.active[id]
	s.amu.Unlock()
	if a == nil {
		return
	}
	a.mu.Lock()
	a.userCancel = true
	cancel := a.cancel
	a.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// handleResult streams a done job's report from the cache: 404 for an
// unknown job, 409 before it is done, 410 when its runs were computed
// under another engine version, and 500 naming a run whose cache entry
// is missing. A failure once streaming has begun aborts the response,
// so a client never takes a truncated body for a report.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if j.State != jobstore.Done {
		writeError(w, http.StatusConflict, "job %s is %s, not done", id, j.State)
		return
	}
	sp, keys, err := runKeys(j.Spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	for i, key := range keys {
		if j.Runs[i] != key {
			writeError(w, http.StatusGone, "job %s was computed under another engine version than this server's %s; resubmit its spec", id, sim.Version)
			return
		}
	}
	if err := s.cache.requireAll(keys); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.cache.writeReport(w, sp, j.Spec, keys); err != nil {
		s.logf("%s: streaming report: %v", id, err)
		panic(http.ErrAbortHandler)
	}
}

// handleEvents streams the job's lifecycle as NDJSON: each durable
// transition once, in order, interleaved with live run events until the
// job reaches a terminal state or the client disconnects. Run events are
// best-effort: a stream that falls behind drops them, never a transition.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe before reading the job log: a transition after the read
	// leaves a token, so none falls between the log and the live stream.
	a := s.watch(id)
	defer s.unwatch(id, a)
	sub, unsubscribe := a.subscribe()
	defer unsubscribe()
	j, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	writeLine := func(line []byte) bool {
		if _, err := w.Write(append(line, '\n')); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for sent := 0; ; {
		for ; sent < len(j.Events); sent++ {
			ev := j.Events[sent]
			line, err := json.Marshal(event{Type: "transition", Job: id, State: string(ev.To), Reason: ev.Reason})
			if err != nil || !writeLine(line) {
				return
			}
		}
		if j.State.Terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case line := <-sub.lines:
			if !writeLine(line) {
				return
			}
			continue
		case <-sub.changed:
		}
		// Run events published before the transition go out before it.
		for buffered := len(sub.lines); buffered > 0; buffered-- {
			if !writeLine(<-sub.lines) {
				return
			}
		}
		j, _ = s.store.Get(id)
	}
}
