// Coordinator-side fault injection: the simd process dying and coming
// back over the same store (in-process: drain + reopen, with the gap
// served as 503s), a flaky network between workers and coordinator
// (chaos RoundTripper), and a deterministically poisoned run hitting
// the quarantine budget. The process-level SIGKILL variant lives in
// cmd/simw's tests; these run the same protocol surface fast enough
// for -race.
package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/internal/simsrv"
	"repro/sim"
)

// openServer opens (or reopens, for restart scenarios) an in-process
// simd over dir. Callers drain it themselves.
func openServer(t *testing.T, dir string, cfg simsrv.Config) (*jobstore.Store, *simsrv.Server) {
	t.Helper()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	srv, err := simsrv.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return store, srv
}

// drainServer drains srv and then closes its store, releasing the
// store directory for a restart.
func drainServer(t *testing.T, store *jobstore.Store, srv *simsrv.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// swapHandler lets a test replace the HTTP surface behind a stable URL
// — the in-process analogue of a coordinator restarting on its port.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) Set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func submitTo(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, v.ID)
	}
	return v.ID
}

// claimOnce POSTs one claim, polling past the window where the job has
// not been picked up by the dispatcher yet.
func claimOnce(t *testing.T, base, id, worker string, max int) coord.ClaimResponse {
	t.Helper()
	body, err := json.Marshal(coord.ClaimRequest{Worker: worker, Max: max, EngineVersion: sim.Version})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Post(base+"/v1/jobs/"+id+"/claims", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var cl coord.ClaimResponse
			err := json.NewDecoder(resp.Body).Decode(&cl)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			return cl
		}
		resp.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no claim granted within 30s")
	return coord.ClaimResponse{}
}

func getLedgerView(t *testing.T, base, id string) coord.LedgerView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/claims")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET claims: status %d: %s", resp.StatusCode, msg)
	}
	var v coord.LedgerView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitDoneStore waits for the job to be done in store, then fetches its
// report from the server at base.
func waitDoneStore(t *testing.T, store *jobstore.Store, base, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := store.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.State {
		case jobstore.Done:
			return fetchReport(t, base, id)
		case jobstore.Failed, jobstore.Canceled:
			t.Fatalf("job %s ended %s: %+v", id, j.State, j.Events)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// TestCoordinatorRestartPreservesFencesAndLeases is the durable-ledger
// acceptance scenario, in-process: a distributed job is mid-flight with
// a fenced zombie claim and two live workers when the coordinator goes
// down and comes back over the same store behind the same URL. The
// workers' retrying transport rides out the 503 gap, the replayed
// ledger keeps the zombie's claim ID fenced (410, never re-accepted),
// every index lands exactly once, and the merged report is
// byte-identical to an uninterrupted run.
func TestCoordinatorRestartPreservesFencesAndLeases(t *testing.T) {
	want := referenceReport(t, chaosSpec)
	dir := t.TempDir()
	const lease = 1500 * time.Millisecond

	store1, srv1 := openServer(t, dir, simsrv.Config{Workers: 1, SweepWorkers: 1, Lease: lease})
	var swap swapHandler
	swap.Set(srv1.Handler())
	ts := httptest.NewServer(&swap)
	defer ts.Close()

	id := submitTo(t, ts.URL, chaosSpec)

	// A zombie claims a range and dies: no renew, no complete. After the
	// lease lapses, any ledger inspection reaps it and logs the fence.
	zombie := claimOnce(t, ts.URL, id, "zombie", 2)
	time.Sleep(lease + 300*time.Millisecond)
	if view := getLedgerView(t, ts.URL, id); view.Fenced < 1 {
		t.Fatalf("zombie lease not fenced after expiry: %+v", view)
	}

	// Two live workers chew through the sweep.
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &coord.Worker{
			Base: ts.URL, Name: fmt.Sprintf("w%d", i), Max: 2, Poll: 5 * time.Millisecond,
			Retry: coord.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(wctx) }()
	}
	defer wg.Wait()
	defer wcancel()

	// Wait until the sweep is genuinely mid-flight, then take the
	// coordinator down: drain (the job requeues durably; claim-scoped
	// requests now answer 503 "warming up") and reopen over the same
	// store. The new coordinator replays the claim ledger's WAL.
	waitRunsRecorded(t, ts.URL, id, 2)
	drainServer(t, store1, srv1)
	store2, srv2 := openServer(t, dir, simsrv.Config{Workers: 1, SweepWorkers: 1, Lease: lease})
	defer drainServer(t, store2, srv2)
	swap.Set(srv2.Handler())

	// The pre-restart zombie must still be fenced by the replayed
	// ledger: once the coordinator is serving again, its renew gets 410.
	renewURL := ts.URL + "/v1/jobs/" + id + "/claims/" + zombie.ClaimID + "/renew"
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(renewURL, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		status := resp.StatusCode
		resp.Body.Close()
		if status != http.StatusServiceUnavailable {
			if status != http.StatusGone {
				t.Fatalf("zombie renew after restart: status %d, want 410", status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never came back")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := waitDoneStore(t, store2, ts.URL, id, 2*time.Minute)
	if !bytes.Equal(got, want) {
		t.Error("merged report differs from the uninterrupted run after coordinator restart")
	}
	assertExactlyOnce(t, checkpointIndices(t, store2, id), 10)
}

// waitRunsRecorded polls the job view over HTTP until at least k run
// indices are durably recorded.
func waitRunsRecorded(t *testing.T, base, id string, k int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			RunsCompleted int `json:"runs_completed"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err == nil && v.RunsCompleted >= k {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %d recorded runs", id, k)
}

// chaosTransport injects transport-level faults between worker and
// coordinator: refused connections, responses torn after the server
// already processed the request (the duplicate-delivery case), injected
// 500s, and stalls past the per-attempt deadline.
type chaosTransport struct {
	mu    sync.Mutex
	rng   *rand.Rand
	next  http.RoundTripper
	stall time.Duration
}

func (c *chaosTransport) roll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Intn(100)
}

func (c *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch dice := c.roll(); {
	case dice < 8: // never reaches the server
		return nil, errors.New("chaos: connection refused")
	case dice < 16: // server processed it; the response is lost
		resp, err := c.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("chaos: connection reset while reading response")
	case dice < 24: // a proxy in the middle has a bad day
		return &http.Response{
			Status:     "500 chaos",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  make(http.Header),
			Body:    io.NopCloser(strings.NewReader("chaos: injected 500")),
			Request: req,
		}, nil
	case dice < 29: // stall past the per-attempt deadline
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(c.stall):
		}
		return c.next.RoundTrip(req)
	default:
		return c.next.RoundTrip(req)
	}
}

// TestFlakyTransportChaosMatrix drives two workers through a chaos
// RoundTripper (timeouts, resets, 5xx, duplicate deliveries) across 3
// seeds. The retrying transport must absorb all of it: the job
// completes, every index is checkpointed exactly once (duplicate
// deliveries land idempotently), and the report is byte-identical to
// the uninterrupted reference. The server's attempt budget is raised
// because orphaned duplicate claims legitimately expire under chaos —
// that is attrition, not poison.
func TestFlakyTransportChaosMatrix(t *testing.T) {
	want := referenceReport(t, chaosSpec)
	seeds := []int64{41, 42, 43}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			store, srv := openServer(t, t.TempDir(), simsrv.Config{
				Workers: 1, SweepWorkers: 1,
				Lease:       800 * time.Millisecond,
				MaxAttempts: 100,
			})
			defer drainServer(t, store, srv)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			id := submitTo(t, ts.URL, chaosSpec)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				ct := &chaosTransport{
					rng:   rand.New(rand.NewSource(seed*10 + int64(i))),
					next:  http.DefaultTransport,
					stall: 400 * time.Millisecond,
				}
				w := &coord.Worker{
					Base: ts.URL, Name: fmt.Sprintf("flaky%d", i), Max: 3, Poll: 5 * time.Millisecond,
					Client: &http.Client{Transport: ct},
					Retry: coord.RetryPolicy{
						PerTryTimeout: 150 * time.Millisecond,
						Budget:        5 * time.Second,
						BaseDelay:     5 * time.Millisecond,
						MaxDelay:      50 * time.Millisecond,
					},
				}
				wg.Add(1)
				go func() { defer wg.Done(); w.Run(ctx) }()
			}
			got := waitDoneStore(t, store, ts.URL, id, 2*time.Minute)
			cancel()
			wg.Wait()
			if !bytes.Equal(got, want) {
				t.Error("merged report differs from the uninterrupted reference under transport chaos")
			}
			assertExactlyOnce(t, checkpointIndices(t, store, id), 10)
		})
	}
}

// TestPoisonedRunQuarantinesLoudly: a worker that deterministically
// crashes whenever it reaches one particular index (abandoning the
// claim, so the lease expires and the attempt is charged) must not
// livelock the sweep. After the attempt budget, the index is
// quarantined and the job fails with a per-index diagnosis naming it.
func TestPoisonedRunQuarantinesLoudly(t *testing.T) {
	const poisoned = 3
	store, srv := openServer(t, t.TempDir(), simsrv.Config{
		Workers: 1, SweepWorkers: 1,
		Lease:       250 * time.Millisecond,
		MaxAttempts: 2,
	})
	defer drainServer(t, store, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := submitTo(t, ts.URL, chaosSpec)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &coord.Worker{
		Base: ts.URL, Name: "crasher", Max: 1, Poll: 5 * time.Millisecond,
		Retry: coord.RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		BeforePublish: func(job string, index int) error {
			if index == poisoned {
				return fmt.Errorf("chaos: crasher dies on index %d every time", index)
			}
			return nil
		},
	}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	defer func() { <-done }()
	defer cancel()

	deadline := time.Now().Add(time.Minute)
	for {
		j, ok := store.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if j.State == jobstore.Failed {
			last := j.Events[len(j.Events)-1]
			for _, want := range []string{"poisoned", fmt.Sprintf("run %d", poisoned), "failed attempts"} {
				if !strings.Contains(last.Reason, want) {
					t.Fatalf("failure reason %q missing %q", last.Reason, want)
				}
			}
			return
		}
		if j.State == jobstore.Done {
			t.Fatal("job completed despite a poisoned run")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never failed; state %s", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
