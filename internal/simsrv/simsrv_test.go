package simsrv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobstore"
	"repro/sim"
)

// newTestServer assembles a started server over a fresh store.
func newTestServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return newTestServerWithStore(t, store)
}

func submit(t *testing.T, ts *httptest.Server, spec string) JobView {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitState(t *testing.T, ts *httptest.Server, id, want string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State == want {
			return v
		}
		if jobstore.State(v.State).Terminal() {
			t.Fatalf("job %s reached %q, want %q (transitions: %+v)", id, v.State, want, v.Transitions)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return JobView{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitResultMatchesDirectRun is the service's core contract: a
// job's result is exactly what the library produces for the same spec.
func TestSubmitResultMatchesDirectRun(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	v := submit(t, ts, `{"scenario":"baseline-f3","jobs":200,"seed":3}`)
	waitState(t, ts, v.ID, "done", 60*time.Second)
	data := getResult(t, ts, v.ID)

	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.EngineVersion != sim.Version {
		t.Errorf("report engine_version %q, want %q", rep.EngineVersion, sim.Version)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Seed != 3 {
		t.Fatalf("report runs %+v", rep.Runs)
	}

	s, err := sim.ScenarioByName("baseline-f3", sim.WithJobs(200), sim.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Runs[0].Result, want) {
		t.Error("service result differs from direct sim.Run of the same spec")
	}
}

// TestCacheHitServesIdenticalBytes submits the same spec twice: the
// second job must complete from the cache with zero additional run
// records beyond the promoted hits and serve an identical report.
func TestCacheHitServesIdenticalBytes(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	a := submit(t, ts, `{"scenario":"baseline-young","jobs":150,"runs":2}`)
	waitState(t, ts, a.ID, "done", 60*time.Second)
	first := getResult(t, ts, a.ID)

	b := submit(t, ts, `{"runs":2,"jobs":150,"scenario":"baseline-young"}`) // field order differs
	waitState(t, ts, b.ID, "done", 60*time.Second)
	second := getResult(t, ts, b.ID)
	if !bytes.Equal(first, second) {
		t.Error("cache-served report differs from the computed one")
	}
	jb, _ := srv.store.Get(b.ID)
	if len(jb.Runs) != 2 {
		t.Errorf("second job recorded %d runs, want 2 promoted cache hits", len(jb.Runs))
	}
}

// TestCancelRunningJob cancels mid-run and expects the canceled state.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	v := submit(t, ts, `{"scenario":"baseline-f3","jobs":20000,"runs":4}`)
	waitState(t, ts, v.ID, "running", 30*time.Second)
	resp, err := http.Post(ts.URL+"/v1/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		j := getJob(t, ts, v.ID)
		if j.State == "canceled" {
			break
		}
		if jobstore.State(j.State).Terminal() {
			t.Fatalf("job ended %q, want canceled", j.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel never landed (state %q)", j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventsStreamDeliversLifecycle reads the NDJSON stream through to
// the terminal transition.
func TestEventsStreamDeliversLifecycle(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	v := submit(t, ts, `{"scenario":"baseline-f3","jobs":100}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content-type %q", ct)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		seen[ev.Type] = true
		if ev.Type == "transition" {
			seen["state:"+ev.State] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"state:queued", "state:done"} {
		if !seen[want] {
			t.Errorf("stream missing %s (saw %v)", want, seen)
		}
	}
}

// TestSubmitValidation rejects malformed specs up front.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	for _, spec := range []string{
		`{"scenario":"no-such-scenario"}`,
		`{}`,
		`{"scenario":"baseline-f3","policy":"bogus"}`,
		`{"scenario":"baseline-f3","unknown_field":1}`,
		`{"scenario":"baseline-f3","runs":1000000}`,
		`{"scenario":"baseline-f3"` + strings.Repeat(" ", maxRequestBytes) + `}`, // valid, but over the body cap
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %.80s: status %d, want 400", spec, resp.StatusCode)
		}
	}
}

// TestSubmitRejectsUnboundedJobs: a job count past sim.MaxSpecJobs is
// refused at submit. Accepted, it would reach the trace generator's
// make() on a dispatcher goroutine and take simd down on every restart,
// so the dispatcher is not started here.
func TestSubmitRejectsUnboundedJobs(t *testing.T) {
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv, err := New(Config{Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, spec := range []string{
		`{"scenario":"baseline-f3","jobs":4611686018427387904}`,
		`{"scenario":"baseline-f3","workload":{"Jobs":4611686018427387904}}`,
	} {
		if rec := post(h, "/v1/jobs", []byte(spec)); rec.Code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, rec.Code)
		}
	}
	if jobs := store.List(); len(jobs) != 0 {
		t.Errorf("%d jobs stored, want none", len(jobs))
	}
}

// TestScenarioAndVersionEndpoints smoke-tests the read-only endpoints.
func TestScenarioAndVersionEndpoints(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var infos []sim.ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) < 10 {
		t.Errorf("scenarios: %d entries", len(infos))
	}
	resp, err = http.Get(ts.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	var ver map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ver); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ver["engine_version"] != sim.Version {
		t.Errorf("version endpoint %v", ver)
	}
}

// runToCompletion executes a spec on a dedicated server over dir and
// returns the merged report bytes.
func runToCompletion(t *testing.T, dir, spec string) []byte {
	t.Helper()
	_, ts := newTestServer(t, dir)
	v := submit(t, ts, spec)
	waitState(t, ts, v.ID, "done", 120*time.Second)
	return getResult(t, ts, v.ID)
}

// TestDrainResumeByteIdentical is the in-process half of the durability
// acceptance test: interrupt a sweep after k runs (for several k),
// restart the service over the same store, and require the resumed
// job's merged report to be byte-identical to an uninterrupted run of
// the same spec.
func TestDrainResumeByteIdentical(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":800,"runs":6,"seed":9}`
	want := runToCompletion(t, t.TempDir(), spec)

	for _, k := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("interrupt-after-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			store, err := jobstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{Store: store, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			ts := httptest.NewServer(srv.Handler())
			v := submit(t, ts, spec)

			// Interrupt once k runs are durably checkpointed.
			deadline := time.Now().Add(120 * time.Second)
			for {
				j, _ := store.Get(v.ID)
				if len(j.Runs) >= k || j.State == jobstore.Done {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("checkpoints never appeared")
				}
				time.Sleep(2 * time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			cancel()
			ts.Close()

			j, _ := store.Get(v.ID)
			t.Logf("interrupted with %d/6 runs complete in state %s", len(j.Runs), j.State)

			// "Restart": a fresh store + server over the same directory,
			// once the drained store has released it.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			store2, err := jobstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			_, ts2 := newTestServerWithStore(t, store2)
			waitState(t, ts2, v.ID, "done", 120*time.Second)
			got := getResult(t, ts2, v.ID)
			if !bytes.Equal(got, want) {
				t.Error("resumed merged report differs from the uninterrupted run")
			}

			// The resume re-ran only the missing indices: every index is
			// recorded exactly once in the durable checkpoint log.
			j2, _ := store2.Get(v.ID)
			if len(j2.Runs) != 6 {
				t.Errorf("final checkpoint has %d runs, want 6", len(j2.Runs))
			}
		})
	}
}

// newTestServerWithStore assembles a started server over store; the
// cleanup drains it and then closes the store.
func newTestServerWithStore(t *testing.T, store *jobstore.Store) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := store.Close(); err != nil {
			t.Errorf("closing store: %v", err)
		}
	})
	return srv, ts
}
