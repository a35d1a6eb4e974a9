package simsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/sim"
)

// post sends one request straight to the handler, so a handler panic
// fails the calling test instead of being recovered by an HTTP server.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// leaseRuns submits a distributed spec and leases up to max of its
// indices, polling past the window before the dispatcher opens the
// job's ledger.
func leaseRuns(t testing.TB, h http.Handler, spec string, max int) (id string, cl coord.ClaimResponse) {
	t.Helper()
	rec := post(h, "/v1/jobs", []byte(spec))
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); rec.Code != http.StatusAccepted || err != nil {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	req, err := json.Marshal(coord.ClaimRequest{Worker: "w", Max: max, EngineVersion: sim.Version})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		rec := post(h, "/v1/jobs/"+v.ID+"/claims", req)
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &cl); err != nil {
				t.Fatal(err)
			}
			return v.ID, cl
		}
	}
	t.Fatal("no claim granted within 30s")
	return "", cl
}

// TestPublishRejectsNonJSON: under a live claim, a result body that is
// not JSON gets 400 before anything is persisted, so it cannot poison
// the run's content address. The real publish then succeeds, and the
// merged report is byte-identical to one assembled from a direct run.
func TestPublishRejectsNonJSON(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":40,"runs":2,"seed":5,"distributed":true}`
	srv, ts := newTestServer(t, t.TempDir())
	h := srv.Handler()
	id, cl := leaseRuns(t, h, spec, 2)
	publish := func(index int, body []byte) int {
		return post(h, fmt.Sprintf("/v1/jobs/%s/runs/%d?claim=%s", id, index, cl.ClaimID), body).Code
	}
	if code := publish(0, []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("non-JSON publish: status %d, want 400", code)
	}
	var sp sim.JobSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	key, err := sp.RunKey(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv.cache.Get(key); ok {
		t.Fatal("non-JSON publish left a cache entry")
	}
	if j, _ := srv.store.Get(id); len(j.Runs) != 0 {
		t.Fatalf("non-JSON publish checkpointed runs %v", j.CompletedIndices())
	}

	// The direct run: the same spec through the public sweep API.
	simu, err := sp.Simulation()
	if err != nil {
		t.Fatal(err)
	}
	outs, err := sim.RunSweep(context.Background(), []sim.Run{{Sim: simu}, {Sim: simu}},
		sim.SweepOptions{BaseSeed: sp.Normalize().Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := Report{EngineVersion: sim.Version}
	if rep.SpecHash, err = sp.SpecHash(); err != nil {
		t.Fatal(err)
	}
	if rep.Spec, err = sp.MarshalNormalized(); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		data, err := json.Marshal(out.Result)
		if err != nil {
			t.Fatal(err)
		}
		if code := publish(i, data); code != http.StatusOK {
			t.Fatalf("publish %d: status %d", i, code)
		}
		rep.Runs = append(rep.Runs, ReportRun{Index: i, Seed: sp.RunSeed(i), Result: data})
	}
	// The last publish completes the sweep; the coordinator merges.
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, id, "done", 60*time.Second)
	if got := getResult(t, ts, id); !bytes.Equal(got, want) {
		t.Errorf("merged report differs from the direct run's:\n got %.200s\nwant %.200s", got, want)
	}
}

// FuzzClaimRoutes sends fuzzed bodies to the claim, publish and failed
// routes of one server holding a distributed job, under a claim that
// leases every index. No request may panic or get a 500, and whatever
// the server accepts into the cache must be a JSON document.
func FuzzClaimRoutes(f *testing.F) {
	const spec = `{"scenario":"baseline-f3","jobs":10,"runs":64,"seed":3,"distributed":true}`
	store, err := jobstore.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	// A lease and attempt budget no fuzz run exhausts keep the job
	// accepting claims.
	srv, err := New(Config{Store: store, Lease: time.Hour, MaxAttempts: 1 << 30})
	if err != nil {
		f.Fatal(err)
	}
	srv.Start()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			f.Errorf("drain: %v", err)
		}
		store.Close()
	})
	h := srv.Handler()
	id, cl := leaseRuns(f, h, spec, 64)
	var sp sim.JobSpec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		f.Fatal(err)
	}

	const claimRoute, publishRoute, failedRoute = 0, 1, 2
	for _, body := range []string{
		`{"worker":"x","max":1,"engine_version":"` + sim.Version + `"}`,
		`{"worker":"x","engine_version":"0.0.0"}`, `{"worker":1}`, `{"worker":"x","bogus":true}`,
	} {
		f.Add(uint8(claimRoute), 0, []byte(body))
	}
	for i, body := range []string{`{"events":1}`, `not json`, `{"truncated":`, ``, `{"ok":true} trailing`} {
		f.Add(uint8(publishRoute), i, []byte(body))
	}
	f.Add(uint8(publishRoute), -1, []byte(`{}`))
	f.Add(uint8(publishRoute), 64, []byte(`{}`))
	f.Add(uint8(failedRoute), 6, []byte(`{"reason":"boom"}`))
	f.Add(uint8(failedRoute), 7, []byte(`reason`))
	f.Add(uint8(failedRoute), 1<<40, []byte(`{"reason":"far"}`))

	f.Fuzz(func(t *testing.T, route uint8, index int, body []byte) {
		var path string
		switch route % 3 {
		case claimRoute:
			path = "/v1/jobs/" + id + "/claims"
		case publishRoute:
			path = fmt.Sprintf("/v1/jobs/%s/runs/%d?claim=%s", id, index, cl.ClaimID)
		case failedRoute:
			path = fmt.Sprintf("/v1/jobs/%s/runs/%d/failed?claim=%s", id, index, cl.ClaimID)
		}
		rec := post(h, path, body)
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("POST %s with %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if route%3 != publishRoute || index < 0 || index >= sp.Runs {
			return
		}
		key, err := sp.RunKey(index)
		if err != nil {
			t.Fatal(err)
		}
		data, ok := srv.cache.Get(key)
		if rec.Code == http.StatusOK && !ok {
			t.Fatalf("publish of run %d accepted but not cached", index)
		}
		if ok && !json.Valid(data) {
			t.Fatalf("cache holds non-JSON bytes %q for run %d after publishing %q (status %d)", data, index, body, rec.Code)
		}
	})
}
