package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/sim"
)

// Worker is the claim-protocol client: it discovers jobs with claimable
// work, leases index ranges, executes them through the public sim API,
// publishes each run's result bytes as it finishes, and completes the
// claim. The simw binary wraps one Worker; the fault-injection tests
// run many in-process, killing them at randomized points.
type Worker struct {
	// Base is the simd server's base URL (http://host:port).
	Base string
	// Name identifies the worker in claims and logs.
	Name string
	// Max bounds the indices leased per claim (0 selects 1; simw's -max
	// defaults to 8).
	Max int
	// SweepWorkers is the local pool width within one claim
	// (0 selects 1: one claim, one core — scale out with processes).
	SweepWorkers int
	// Poll is the idle/backoff sleep between work checks (0 selects
	// 250ms).
	Poll time.Duration
	// Retry shapes the transport's per-attempt deadlines and backoff;
	// the zero value selects sane defaults (see RetryPolicy).
	Retry RetryPolicy
	// Client is the HTTP client (nil selects a shared default with
	// dial and handshake timeouts — never the deadline-free
	// http.DefaultClient).
	Client *http.Client
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// BeforePublish, when non-nil, runs just before the result of one
	// run index is published. Returning an error abandons the claim
	// as a simulated crash — no complete, no release, the lease just
	// expires. The fault-injection harness kills workers here.
	BeforePublish func(job string, index int) error
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultHTTPClient
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 250 * time.Millisecond
}

// Run drives the worker until ctx is done: verify the server's engine
// version, then claim/execute/complete in a loop, sleeping Poll between
// empty work checks. Transient errors are logged and retried.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.CheckVersion(ctx); err != nil {
		return err
	}
	for {
		worked, err := w.Step(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			w.logf("step: %v", err)
		}
		if !worked {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(w.poll()):
			}
		}
	}
}

// CheckVersion refuses to work against a server running a different
// engine version: result content addresses include the version, so a
// mismatched worker could only compute bytes the job would never merge.
func (w *Worker) CheckVersion(ctx context.Context) error {
	status, data, err := w.roundTrip(ctx, http.MethodGet, "/v1/version", nil, 0)
	if err != nil {
		return fmt.Errorf("coord: version check: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("coord: version check: status %d: %s", status, clip(data))
	}
	var v struct {
		EngineVersion string `json:"engine_version"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("coord: version check: %w", err)
	}
	if v.EngineVersion != sim.Version {
		return fmt.Errorf("coord: engine version mismatch: server %s, worker %s", v.EngineVersion, sim.Version)
	}
	return nil
}

// Step performs at most one claim cycle: discover jobs with claimable
// work, lease a range from the first that grants one, execute and
// publish it. It reports whether any work was performed.
func (w *Worker) Step(ctx context.Context) (bool, error) {
	var work WorkList
	if err := w.getJSON(ctx, "/v1/work", &work); err != nil {
		return false, err
	}
	for _, job := range work.Jobs {
		cl, ok, err := w.claim(ctx, job)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		return true, w.executeClaim(ctx, cl)
	}
	return false, nil
}

func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	status, data, err := w.roundTrip(ctx, http.MethodGet, path, nil, 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(data, out)
}

// claim asks one job for a leased range. ok is false when the job has
// nothing available (all indices done or leased) or is gone.
func (w *Worker) claim(ctx context.Context, job string) (*ClaimResponse, bool, error) {
	body, err := json.Marshal(ClaimRequest{Worker: w.Name, Max: w.Max, EngineVersion: sim.Version})
	if err != nil {
		return nil, false, err
	}
	status, data, err := w.roundTrip(ctx, http.MethodPost, "/v1/jobs/"+job+"/claims", body, 0)
	if err != nil {
		return nil, false, err
	}
	switch status {
	case http.StatusOK:
		var cl ClaimResponse
		if err := json.Unmarshal(data, &cl); err != nil {
			return nil, false, err
		}
		return &cl, true, nil
	case http.StatusNoContent, http.StatusNotFound, http.StatusConflict, http.StatusGone:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("claim %s: status %d: %s", job, status, clip(data))
	}
}

// executeClaim runs the leased range through the public sim API,
// heartbeating the lease and publishing each result as it lands, then
// completes the claim (handing back any indices it could not finish).
func (w *Worker) executeClaim(ctx context.Context, cl *ClaimResponse) error {
	var sp sim.JobSpec
	if err := json.Unmarshal(cl.Spec, &sp); err != nil {
		return fmt.Errorf("claim %s: bad spec: %w", cl.ClaimID, err)
	}
	sp = sp.Normalize()
	simu, err := sp.Simulation()
	if err != nil {
		return fmt.Errorf("claim %s: %w", cl.ClaimID, err)
	}
	n := sp.Runs
	if cl.RunsTotal != 0 && cl.RunsTotal != n {
		return fmt.Errorf("claim %s: runs_total %d disagrees with spec runs %d", cl.ClaimID, cl.RunsTotal, n)
	}
	runs := make([]sim.Run, n)
	for i := range runs {
		runs[i] = sim.Pin(simu, sp.RunSeed(i)) // the seed rule the cache keys use
	}
	only := make([]int, 0, cl.End-cl.Start)
	for i := cl.Start; i < cl.End; i++ {
		only = append(only, i)
	}
	w.logf("claim %s: job %s indices [%d,%d)", cl.ClaimID, cl.Job, cl.Start, cl.End)

	claimCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeat at a third of the lease; a failed renewal means the
	// lease is lost and the remaining work is abandoned mid-flight.
	interval := time.Duration(cl.LeaseMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = DefaultLease / 3
	}
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-claimCtx.Done():
				return
			case <-t.C:
				if err := w.renew(claimCtx, cl); err != nil {
					w.logf("claim %s: %v", cl.ClaimID, err)
					cancel()
					return
				}
			}
		}
	}()

	pub := &publisher{w: w, cl: cl, cancel: cancel}
	_, sweepErr := sim.RunSweep(claimCtx, runs, sim.SweepOptions{
		Workers:     w.sweepWorkers(),
		OnlyIndices: only,
		Observer:    pub,
	})
	cancel()
	hb.Wait()

	pub.mu.Lock()
	aborted, pubErr := pub.aborted, pub.err
	pub.mu.Unlock()
	if aborted {
		// Simulated crash: vanish without completing — the lease
		// expires and the server re-issues the unfinished indices.
		return pubErr
	}
	// Complete even after a partial failure: published indices are
	// recorded, unfinished ones return to the pool immediately instead
	// of waiting out the lease. A lost lease (410) means the server
	// already did that.
	if err := w.complete(ctx, cl); err != nil {
		w.logf("claim %s: complete: %v", cl.ClaimID, err)
	}
	switch {
	case pubErr != nil:
		return pubErr
	case sweepErr != nil && ctx.Err() == nil:
		return fmt.Errorf("claim %s: %w", cl.ClaimID, sweepErr)
	default:
		return nil
	}
}

func (w *Worker) sweepWorkers() int {
	if w.SweepWorkers > 0 {
		return w.SweepWorkers
	}
	return 1
}

// renew extends the claim's lease. Retries run under the lease-derived
// budget: a renew that cannot land before twice the lease has elapsed
// is a lease already lost.
func (w *Worker) renew(ctx context.Context, cl *ClaimResponse) error {
	status, _, err := w.roundTrip(ctx, http.MethodPost, "/v1/jobs/"+cl.Job+"/claims/"+cl.ClaimID+"/renew", nil, w.leaseBudget(cl))
	if err != nil {
		return err
	}
	if status == http.StatusGone {
		return ErrLeaseLost
	}
	if status != http.StatusOK {
		return fmt.Errorf("renew: status %d", status)
	}
	return nil
}

// complete retires the claim.
func (w *Worker) complete(ctx context.Context, cl *ClaimResponse) error {
	status, _, err := w.roundTrip(ctx, http.MethodPost, "/v1/jobs/"+cl.Job+"/claims/"+cl.ClaimID+"/complete", nil, w.leaseBudget(cl))
	if err != nil {
		return err
	}
	if status != http.StatusOK && status != http.StatusGone {
		return fmt.Errorf("complete: status %d", status)
	}
	return nil
}

// publishRun sends one run's result bytes to the server, which persists
// them (cache + checkpoint) and marks the index done under our claim.
func (w *Worker) publishRun(ctx context.Context, cl *ClaimResponse, index int, data []byte) error {
	status, msg, err := w.roundTrip(ctx, http.MethodPost, fmt.Sprintf("/v1/jobs/%s/runs/%d?claim=%s", cl.Job, index, cl.ClaimID), data, w.leaseBudget(cl))
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusGone:
		return fmt.Errorf("publishing index %d: %w", index, ErrLeaseLost)
	default:
		return fmt.Errorf("publishing index %d: status %d: %s", index, status, clip(msg))
	}
}

// reportFailure tells the coordinator one run index failed in the
// engine, so the index's attempt budget is charged now instead of when
// the lease expires. Best-effort: a report that cannot land changes
// nothing — the lease expiring charges the attempt anyway.
func (w *Worker) reportFailure(ctx context.Context, cl *ClaimResponse, index int, reason string) {
	body, err := json.Marshal(FailRequest{Reason: reason})
	if err != nil {
		return
	}
	status, msg, err := w.roundTrip(ctx, http.MethodPost, fmt.Sprintf("/v1/jobs/%s/runs/%d/failed?claim=%s", cl.Job, index, cl.ClaimID), body, w.leaseBudget(cl))
	if err != nil {
		w.logf("claim %s: reporting index %d failure: %v", cl.ClaimID, index, err)
		return
	}
	if status != http.StatusOK && status != http.StatusGone {
		w.logf("claim %s: reporting index %d failure: status %d: %s", cl.ClaimID, index, status, clip(msg))
	}
}

// publisher is the sweep observer that streams finished runs to the
// server as they land. Publish failures cancel the claim's context so
// the sweep stops promptly; the BeforePublish chaos hook turns the
// worker into a simulated crash instead.
type publisher struct {
	w      *Worker
	cl     *ClaimResponse
	cancel context.CancelFunc

	mu      sync.Mutex
	err     error
	aborted bool
}

func (p *publisher) RunStarted(sim.RunInfo)                {}
func (p *publisher) RunProgress(sim.RunInfo, sim.Progress) {}

func (p *publisher) RunFinished(info sim.RunInfo, out sim.Outcome) {
	if out.Skipped {
		return
	}
	if out.Err != nil {
		// A run the engine itself failed is reported so the coordinator
		// charges the index's attempt budget immediately; a run canceled
		// by our own shutdown or a lost lease is not the index's fault.
		if !errors.Is(out.Err, context.Canceled) {
			p.w.reportFailure(context.Background(), p.cl, info.Index, out.Err.Error())
		}
		return
	}
	if out.Result == nil {
		return
	}
	if hook := p.w.BeforePublish; hook != nil {
		if err := hook(p.cl.Job, info.Index); err != nil {
			p.fail(err, true)
			return
		}
	}
	data, err := out.Result.AppendJSON(nil)
	if err == nil {
		err = p.w.publishRun(context.Background(), p.cl, info.Index, data)
	}
	if err != nil {
		p.w.logf("claim %s: %v", p.cl.ClaimID, err)
		p.fail(err, false)
	}
}

func (p *publisher) fail(err error, aborted bool) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.aborted = p.aborted || aborted
	p.mu.Unlock()
	p.cancel()
}
