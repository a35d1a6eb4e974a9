package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/sim"
)

// TestPublisherReportsEngineFailures: a run the engine failed is
// reported to the coordinator under the claim, so the index's attempt
// budget is charged at once; a run canceled by the worker's own
// shutdown or a lost lease is not the index's fault and sends nothing.
func TestPublisherReportsEngineFailures(t *testing.T) {
	type report struct{ method, path, claim, reason string }
	var (
		mu  sync.Mutex
		got []report
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req FailRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		got = append(got, report{r.Method, r.URL.Path, r.URL.Query().Get("claim"), req.Reason})
		mu.Unlock()
		w.Write([]byte(`{"status":"recorded"}`))
	}))
	defer ts.Close()

	cl := &ClaimResponse{Job: "j1", ClaimID: "c000007", Start: 2, End: 4, LeaseMS: 1000}
	p := &publisher{w: &Worker{Base: ts.URL, Name: "w"}, cl: cl, cancel: func() {}}
	p.RunFinished(sim.RunInfo{Index: 3}, sim.Outcome{Err: errors.New("engine: boom")})
	p.RunFinished(sim.RunInfo{Index: 2}, sim.Outcome{Err: fmt.Errorf("run 2: %w", context.Canceled)})

	want := []report{{http.MethodPost, "/v1/jobs/j1/runs/3/failed", "c000007", "engine: boom"}}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("failure reports %+v, want %+v", got, want)
	}
	if p.err != nil || p.aborted {
		t.Fatalf("a reported failure stopped the claim: err %v, aborted %v", p.err, p.aborted)
	}
}
