package simsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
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
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if code, cl := claimRuns(t, h, v.ID, max); code == http.StatusOK {
			return v.ID, cl
		}
	}
	t.Fatal("no claim granted within 30s")
	return "", cl
}

// claimRuns asks a job for a claim on up to max indices, returning the
// response status and, on 200, the claim.
func claimRuns(t testing.TB, h http.Handler, id string, max int) (int, coord.ClaimResponse) {
	t.Helper()
	req, err := json.Marshal(coord.ClaimRequest{Worker: "w", Max: max, EngineVersion: sim.Version})
	if err != nil {
		t.Fatal(err)
	}
	var cl coord.ClaimResponse
	rec := post(h, "/v1/jobs/"+id+"/claims", req)
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &cl); err != nil {
			t.Fatal(err)
		}
	}
	return rec.Code, cl
}

// startServer starts a server with cfg over a fresh store, draining
// both when the test ends.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		store.Close()
	})
	return srv
}

// TestPublishRejectsNonJSON: under a live claim, a result body that is
// not JSON gets 400 before anything is persisted, so it cannot poison
// the run's content address, and the refusal charges the index one
// attempt and takes it from the claim. The real publish then succeeds
// under a fresh claim, and the merged report is byte-identical to one
// assembled from a direct run.
func TestPublishRejectsNonJSON(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":40,"runs":2,"seed":5,"distributed":true}`
	srv, ts := newTestServer(t, t.TempDir())
	h := srv.Handler()
	id, cl := leaseRuns(t, h, spec, 2)
	publish := func(claim string, index int, body []byte) int {
		return post(h, fmt.Sprintf("/v1/jobs/%s/runs/%d?claim=%s", id, index, claim), body).Code
	}
	if code := publish(cl.ClaimID, 0, []byte("not json")); code != http.StatusBadRequest {
		t.Fatalf("non-JSON publish: status %d, want 400", code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/claims", nil))
	var lv coord.LedgerView
	if err := json.Unmarshal(rec.Body.Bytes(), &lv); err != nil {
		t.Fatalf("claims view: status %d: %v", rec.Code, err)
	}
	if len(lv.Troubled) != 1 || lv.Troubled[0].Index != 0 || lv.Troubled[0].Attempts != 1 {
		t.Fatalf("after a refused publish, troubled indices %+v, want index 0 with 1 attempt", lv.Troubled)
	}
	code, fresh := claimRuns(t, h, id, 1)
	if code != http.StatusOK || fresh.Start != 0 || fresh.End != 1 {
		t.Fatalf("re-claim of the refused index: status %d, claim %+v", code, fresh)
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
		t.Fatalf("non-JSON publish checkpointed runs %v", j.Runs)
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
		claim := cl.ClaimID
		if i == 0 {
			claim = fresh.ClaimID
		}
		if code := publish(claim, i, data); code != http.StatusOK {
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

// fill is an endless body of one byte.
type fill byte

func (b fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestPublishDeclaredOverCap: a publish body's declared length sizes
// nothing, so a client cannot make the server hold a buffer of the cap
// by claiming one. A body declared at twice the cap whose connection
// drops after a few bytes gets 400, charges nothing and allocates far
// less than the cap; a body that runs past the cap is refused and
// charges the index an attempt.
func TestPublishDeclaredOverCap(t *testing.T) {
	srv := startServer(t, Config{})
	h := srv.Handler()
	id, cl := leaseRuns(t, h, `{"scenario":"baseline-f3","jobs":10,"runs":1,"seed":6,"distributed":true}`, 1)
	attempts := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/claims", nil))
		var lv coord.LedgerView
		if err := json.Unmarshal(rec.Body.Bytes(), &lv); err != nil {
			t.Fatalf("claims view: status %d: %v", rec.Code, err)
		}
		n := 0
		for _, tr := range lv.Troubled {
			n += tr.Attempts
		}
		return n
	}
	publish := func(body io.Reader) int {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/jobs/%s/runs/0?claim=%s", id, cl.ClaimID), body)
		req.ContentLength = 2 * maxResultBytes
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := publish(io.MultiReader(strings.NewReader(`{"events":1`), iotest.ErrReader(io.ErrUnexpectedEOF)))
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest || attempts() != 0 {
		t.Fatalf("dropped body declared over the cap: status %d, %d attempts charged; want 400 and none", code, attempts())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > maxResultBytes/8 {
		t.Fatalf("dropped body declared over the cap allocated %d bytes; the declared length must size nothing", grew)
	}
	if code := publish(fill(' ')); code != http.StatusBadRequest || attempts() != 1 {
		t.Fatalf("body past the cap: status %d, %d attempts charged; want 400 and one", code, attempts())
	}
}

// TestRefusedPublishFailsTheJob: a run whose result the server always
// refuses is charged an attempt per refusal, so the job fails with the
// quarantine diagnosis within its attempt budget instead of the run
// being claimed and recomputed forever.
func TestRefusedPublishFailsTheJob(t *testing.T) {
	srv := startServer(t, Config{MaxAttempts: 2})
	h := srv.Handler()
	id, cl := leaseRuns(t, h, `{"scenario":"baseline-f3","jobs":10,"runs":1,"distributed":true}`, 1)
	claims := 1
	for {
		if code := post(h, fmt.Sprintf("/v1/jobs/%s/runs/0?claim=%s", id, cl.ClaimID), []byte("not json")).Code; code != http.StatusBadRequest {
			t.Fatalf("refused publish %d: status %d, want 400", claims, code)
		}
		post(h, fmt.Sprintf("/v1/jobs/%s/claims/%s/complete", id, cl.ClaimID), nil)
		var code int
		if code, cl = claimRuns(t, h, id, 1); code != http.StatusOK {
			break
		}
		if claims++; claims > 10 {
			t.Fatalf("run 0 claimed %d times and the job still accepts claims", claims)
		}
	}
	if claims > 2 {
		t.Fatalf("run 0 claimed %d times under an attempt budget of 2", claims)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		j, _ := srv.store.Get(id)
		if j.State == jobstore.Failed {
			last := j.Events[len(j.Events)-1].Reason
			for _, want := range []string{"run 0 quarantined", "result refused"} {
				if !strings.Contains(last, want) {
					t.Fatalf("failure reason %q missing %q", last, want)
				}
			}
			return
		}
		if j.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s is %s, want failed", id, j.State)
		}
	}
}

// TestPublishCachesCanonicalJSON: the publish route caches a result in
// the form encoding/json emits, compact and HTML-escaped, as the local
// path does, so a report embeds every cache entry as is.
func TestPublishCachesCanonicalJSON(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":10,"runs":1,"seed":4,"distributed":true}`
	srv := startServer(t, Config{})
	h := srv.Handler()
	id, cl := leaseRuns(t, h, spec, 1)
	if rec := post(h, fmt.Sprintf("/v1/jobs/%s/runs/0?claim=%s", id, cl.ClaimID), []byte(`{ "a" : "<b>" }`)); rec.Code != http.StatusOK {
		t.Fatalf("publish: status %d: %s", rec.Code, rec.Body)
	}
	_, keys, err := runKeys([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := srv.cache.Get(keys[0]); string(got) != `{"a":"\u003cb\u003e"}` {
		t.Errorf("cache entry %q, want the canonical encoding", got)
	}
}

// FuzzClaimRoutes sends fuzzed bodies to the claim, publish and failed
// routes of one server holding a distributed job, under a claim that
// leases every index. No request may panic or get a 500, and whatever
// the server accepts into the cache must be a canonical JSON document:
// re-encoding it with encoding/json leaves it unchanged.
func FuzzClaimRoutes(f *testing.F) {
	const spec = `{"scenario":"baseline-f3","jobs":10,"runs":64,"seed":3,"distributed":true}`
	// A lease and attempt budget no fuzz run exhausts keep the job
	// accepting claims.
	srv := startServer(f, Config{Lease: time.Hour, MaxAttempts: 1 << 30})
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
		if !ok {
			return
		}
		if canon, err := json.Marshal(json.RawMessage(data)); err != nil || !bytes.Equal(canon, data) {
			t.Fatalf("cache holds non-canonical bytes %q for run %d after publishing %q (status %d)", data, index, body, rec.Code)
		}
	})
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// maxPublishBytes bounds the bytes one publish of a 20-job baseline-f3
// result (47 203 bytes) allocates, request and recorder included, at
// about half the body. With the body read into a pooled buffer and kept as
// received, a publish allocates 10.2 KB, and up to 14.5 KB in 55 runs
// when the handler's goroutine changes processors and misses its pooled
// buffer; reading the body with io.ReadAll and re-encoding it with
// json.Marshal allocated 271 KB, and one copy of it per publish would
// exceed the bound.
const maxPublishBytes = 24 << 10

// TestPublishAllocBudget publishes a real 20-job baseline-f3 result to
// 60 fresh indices through the handler, after a warm-up, and bounds the
// bytes allocated per publish well below the body's size, so the
// publish route keeps neither a per-request copy of the body nor a
// buffer regrown from 512 bytes.
func TestPublishAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation budget needs a full run without the race detector, which drops pooled buffers at random")
	}
	const warm, measured = 10, 60
	s, err := sim.ScenarioByName("baseline-f3", sim.WithJobs(20), sim.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	body, err := res.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	// One index stays unpublished, so the job is still running and its
	// coordinator idle while the publishes are measured.
	spec := fmt.Sprintf(`{"scenario":"baseline-f3","jobs":20,"runs":%d,"seed":11,"distributed":true}`, warm+measured+1)
	srv := startServer(t, Config{Lease: time.Hour})
	h := srv.Handler()
	id, cl := leaseRuns(t, h, spec, warm+measured+1)
	publish := func(index int) {
		if rec := post(h, fmt.Sprintf("/v1/jobs/%s/runs/%d?claim=%s", id, index, cl.ClaimID), body); rec.Code != http.StatusOK {
			t.Fatalf("publish %d: status %d: %s", index, rec.Code, rec.Body)
		}
	}
	for i := 0; i < warm; i++ {
		publish(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+measured; i++ {
		publish(i)
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / measured
	objsPer := (after.Mallocs - before.Mallocs) / measured
	t.Logf("%d B and %d objects per publish of a %d-byte result", bytesPer, objsPer, len(body))
	if bytesPer > maxPublishBytes {
		t.Errorf("a publish allocates %d B, budget %d B (body %d B)", bytesPer, maxPublishBytes, len(body))
	}
}
