package simsrv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/sim"
)

// newIdleServer returns a server whose dispatcher never starts, so the
// test moves its jobs through their states itself.
func newIdleServer(t *testing.T) *Server {
	t.Helper()
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// get sends one GET straight to the handler.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// stallingWriter records a response, but its first WriteHeader (with
// onHeader) or first Write (without) blocks until release is closed,
// after closing stalled.
type stallingWriter struct {
	*httptest.ResponseRecorder
	onHeader         bool
	once             sync.Once
	stalled, release chan struct{}
}

func newStallingWriter(onHeader bool) *stallingWriter {
	return &stallingWriter{
		ResponseRecorder: httptest.NewRecorder(),
		onHeader:         onHeader,
		stalled:          make(chan struct{}),
		release:          make(chan struct{}),
	}
}

func (w *stallingWriter) stall() {
	w.once.Do(func() {
		close(w.stalled)
		<-w.release
	})
}

func (w *stallingWriter) WriteHeader(code int) {
	if w.onHeader {
		w.stall()
	}
	w.ResponseRecorder.WriteHeader(code)
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if !w.onHeader {
		w.stall()
	}
	return w.ResponseRecorder.Write(p)
}

// streamWhileStalled serves the job's events stream into w, runs drive
// while the handler is stalled in w, and returns the states of the
// stream's transition lines. The stream must end within 3 s of the
// release.
func streamWhileStalled(t *testing.T, srv *Server, id string, w *stallingWriter, drive func()) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(w, req)
	}()
	select {
	case <-w.stalled:
	case <-done:
		t.Fatalf("events handler returned without stalling: %d %s", w.Code, w.Body)
	}
	drive()
	close(w.release)
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		cancel()
		<-done
		t.Fatalf("events stream never ended; it wrote %d lines", strings.Count(w.Body.String(), "\n"))
	}
	var states []string
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Type == "transition" {
			states = append(states, ev.State)
		}
	}
	return states
}

// TestEventsStreamSeesTransitionsDuringSetup: transitions that land
// while the handler is still starting its response each appear once, in
// order, and the stream ends at the terminal one. A transition between
// the handler's read of the job log and its subscription used to be in
// neither, and the stream never ended.
func TestEventsStreamSeesTransitionsDuringSetup(t *testing.T) {
	srv := newIdleServer(t)
	j, err := srv.store.Create(json.RawMessage(`{"scenario":"baseline-f3"}`))
	if err != nil {
		t.Fatal(err)
	}
	states := streamWhileStalled(t, srv, j.ID, newStallingWriter(true), func() {
		a := srv.watch(j.ID)
		defer srv.unwatch(j.ID, a)
		for _, to := range []jobstore.State{jobstore.Running, jobstore.Done} {
			if err := srv.transition(j.ID, a, to, "test"); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := []string{"queued", "running", "done"}; !reflect.DeepEqual(states, want) {
		t.Errorf("stream transitions %v, want %v", states, want)
	}
}

// TestEventsStreamKeepsTransitionsPastFullBuffer: a stream that falls
// so far behind that run events are dropped still gets the terminal
// transition, and ends. It used to be dropped with them.
func TestEventsStreamKeepsTransitionsPastFullBuffer(t *testing.T) {
	srv := newIdleServer(t)
	j, err := srv.store.Create(json.RawMessage(`{"scenario":"baseline-f3"}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.store.Transition(j.ID, jobstore.Running, "test"); err != nil {
		t.Fatal(err)
	}
	states := streamWhileStalled(t, srv, j.ID, newStallingWriter(false), func() {
		a := srv.watch(j.ID)
		defer srv.unwatch(j.ID, a)
		for i := 0; i < 300; i++ {
			idx := i
			srv.publishEvent(j.ID, a, event{Type: "run_progress", Index: &idx, Events: 1})
		}
		if err := srv.transition(j.ID, a, jobstore.Done, "test"); err != nil {
			t.Fatal(err)
		}
	})
	if want := []string{"queued", "running", "done"}; !reflect.DeepEqual(states, want) {
		t.Errorf("stream transitions %v, want %v", states, want)
	}
}

// TestListJobs: GET /v1/jobs lists every job in creation order with its
// state and run counts, and without transitions.
func TestListJobs(t *testing.T) {
	srv := newIdleServer(t)
	a, err := srv.store.Create(json.RawMessage(`{"runs":3,"scenario":"baseline-f3","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv.store.Create(json.RawMessage(`{"runs":2,"scenario":"baseline-young","seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.store.Transition(b.ID, jobstore.Running, "test"); err != nil {
		t.Fatal(err)
	}
	if err := srv.store.RecordRun(b.ID, 1, "k1"); err != nil {
		t.Fatal(err)
	}
	rec := get(srv.Handler(), "/v1/jobs")
	var views []JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &views); rec.Code != http.StatusOK || err != nil {
		t.Fatalf("list: status %d: %s", rec.Code, rec.Body)
	}
	type row struct {
		ID, State       string
		Total, Complete int
	}
	var got []row
	for _, v := range views {
		got = append(got, row{v.ID, v.State, v.RunsTotal, v.RunsCompleted})
	}
	want := []row{{a.ID, "queued", 3, 0}, {b.ID, "running", 2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("list %+v, want %+v", got, want)
	}
	if bytes.Contains(rec.Body.Bytes(), []byte(`"transitions"`)) {
		t.Errorf("list carries transitions: %s", rec.Body)
	}
}

// TestResultRouteErrors: the result route answers 404 for an unknown
// job, 409 before the job is done, 410 for a job whose runs were
// computed under another engine version, and 500 naming a run whose
// cache entry is gone; a cache entry it cannot read once the status line
// is out aborts the response.
func TestResultRouteErrors(t *testing.T) {
	srv := newIdleServer(t)
	sp := sim.JobSpec{Scenario: "baseline-f3", Runs: 1}.Normalize()
	spec, err := sp.MarshalNormalized()
	if err != nil {
		t.Fatal(err)
	}
	key0, err := sp.RunKey(0)
	if err != nil {
		t.Fatal(err)
	}
	create := func() string {
		j, err := srv.store.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	doneWith := func(key string) string {
		id := create()
		if _, err := srv.store.Transition(id, jobstore.Running, "test"); err != nil {
			t.Fatal(err)
		}
		if err := srv.store.RecordRun(id, 0, key); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.store.Transition(id, jobstore.Done, "test"); err != nil {
			t.Fatal(err)
		}
		return id
	}
	for _, tc := range []struct {
		name   string
		id     string
		status int
		msg    string
	}{
		{"unknown job", "j999999", http.StatusNotFound, "unknown job"},
		{"not done", create(), http.StatusConflict, "not done"},
		{"another engine version", doneWith("key-of-another-engine-version"), http.StatusGone, "another engine version"},
		{"cache entry missing", doneWith(key0), http.StatusInternalServerError, "run 0: result missing from cache"},
	} {
		rec := get(srv.Handler(), "/v1/jobs/"+tc.id+"/result")
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.msg) {
			t.Errorf("%s: status %d, body %s; want %d with %q", tc.name, rec.Code, rec.Body, tc.status, tc.msg)
		}
	}

	// A directory where run 0's entry belongs stats, but fails to read.
	if err := os.MkdirAll(srv.cache.path(key0), 0o755); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Errorf("unreadable cache entry: handler panicked with %v, want http.ErrAbortHandler", r)
		}
	}()
	get(srv.Handler(), "/v1/jobs/"+doneWith(key0)+"/result")
}
