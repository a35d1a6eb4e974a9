package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/internal/simsrv"
	"repro/sim"
)

// shape sizes one service workload.
type shape struct {
	clients     int  // closed-loop clients, each with one job in flight
	jobs        int  // simulated jobs per run
	runs        int  // runs per submitted job
	distributed bool // executed by in-process coord.Workers over HTTP
	repeatEvery int  // every n-th submission of a client repeats a done spec (0: never)
}

// service-local: 2 clients against simd's own sweep pool, every 4th
// submission a cache hit. service-dist: 1 client, every run through
// the claim ledger, its WAL and an HTTP publish by one of 2 workers.
var (
	localShape = shape{clients: 2, jobs: 20, runs: 8, repeatEvery: 4}
	distShape  = shape{clients: 1, jobs: 20, runs: 16, distributed: true}
)

func runServiceLocal(ctx context.Context, cfg config, res *result) error {
	return runService(ctx, cfg, res, localShape)
}

func runServiceDist(ctx context.Context, cfg config, res *result) error {
	return runService(ctx, cfg, res, distShape)
}

// service-dist runs two workers with simw's defaults (8 indices per
// claim, one run at a time) except the idle poll: 10 ms instead of
// simw's 250 ms.
const (
	distWorkers = 2
	distMax     = 8
	distPoll    = 10 * time.Millisecond
)

// service is one in-process simd (simsrv.New with its defaults over a
// fresh jobstore, behind a loopback listener) plus, for distributed
// workloads, its coord.Workers.
type service struct {
	dir     string
	srv     *simsrv.Server
	httpSrv *http.Server
	base    string
	served  chan error
	stopW   context.CancelFunc
	wg      sync.WaitGroup
}

// startService opens a fresh store under dir and serves it.
func startService(ctx context.Context, dir string, sh shape, wt *workerTransport) (*service, error) {
	st, err := jobstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	srv, err := simsrv.New(simsrv.Config{Store: st})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, srv: srv, httpSrv: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	srv.Start()
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	if !sh.distributed {
		return s, nil
	}
	client := &http.Client{Transport: newTransport()}
	if wt != nil {
		client = &http.Client{Transport: wt}
	}
	wctx, stop := context.WithCancel(context.Background())
	s.stopW = stop
	for i := 0; i < distWorkers; i++ {
		w := &coord.Worker{Base: s.base, Name: fmt.Sprintf("w%d", i+1), Max: distMax, SweepWorkers: 1, Poll: distPoll, Client: client}
		if wt != nil {
			w.BeforePublish = wt.beforePublish
		}
		if err := w.CheckVersion(ctx); err != nil {
			s.stop()
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(wctx) // returns the context's error once stopped
		}()
	}
	return s, nil
}

// stopWorkers stops the distributed workers and waits for them.
func (s *service) stopWorkers() {
	if s.stopW != nil {
		s.stopW()
		s.wg.Wait()
		s.stopW = nil
	}
}

// stop shuts the service down the way simd does on SIGTERM and waits
// for every goroutine it started.
func (s *service) stop() error {
	s.stopWorkers()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errShut := s.httpSrv.Shutdown(ctx)
	errDrain := s.srv.Drain(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(errShut, errDrain)
}

// newTransport is the benchmark's HTTP transport: plain keep-alive
// connections, enough idle ones for every client's stream and request.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
}

// spec returns client c's i-th fresh job spec.
func (sh shape) spec(seed uint64, c, i int) sim.JobSpec {
	return sim.JobSpec{
		Scenario:    engineScenario,
		Jobs:        sh.jobs,
		Runs:        sh.runs,
		Seed:        sim.DeriveSeed(seed, c*1000000+i) | 1, // never 0, which means "default"
		Distributed: sh.distributed,
	}
}

// jobRecord is one submitted job as its client saw it.
type jobRecord struct {
	id       string
	spec     sim.JobSpec
	repeatOf *jobRecord // the done job whose spec this one repeats
	state    string
	report   [sha256.Size]byte // digest of the merged report; the bytes are not kept
	size     int               // merged report bytes
	start    time.Time
	latency  time.Duration
	submit   time.Duration
	queued   time.Duration // submit start to the "running" transition
	exec     time.Duration // "running" to the terminal transition
	fetch    time.Duration
	err      error
}

// client is one closed-loop caller of the HTTP API.
type client struct {
	base   string
	http   *http.Client
	tracer *Tracer
}

// do runs one job end to end: POST the spec, follow its events stream
// to a terminal state, fetch the merged report.
func (c *client) do(ctx context.Context, rec *jobRecord) {
	body, err := json.Marshal(rec.spec)
	if err != nil {
		rec.err = err
		return
	}
	rec.start = time.Now()
	var view struct {
		ID string `json:"id"`
	}
	status, data, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	rec.submit = time.Since(rec.start)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, data)
	}
	if err == nil {
		err = json.Unmarshal(data, &view)
	}
	if err != nil {
		rec.err = err
		return
	}
	rec.id = view.ID
	root := c.tracer.Record(rec.id, "job", nil, rec.start, rec.start)
	c.tracer.Record(rec.id, "http.submit", root, rec.start, rec.start.Add(rec.submit))

	running, ended, err := c.follow(ctx, rec)
	if err != nil {
		rec.err = err
		return
	}
	if !running.IsZero() {
		rec.queued = running.Sub(rec.start)
		rec.exec = ended.Sub(running)
		c.tracer.Record(rec.id, "simsrv.queue_wait", root, rec.start, running)
		c.tracer.Record(rec.id, "simsrv.exec", root, running, ended)
	}
	if rec.state != string(jobstore.Done) {
		rec.err = fmt.Errorf("job %s ended %s", rec.id, rec.state)
		return
	}

	t0 := time.Now()
	status, data, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+rec.id+"/result", nil)
	rec.fetch = time.Since(t0)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: status %d: %s", status, data)
	}
	if err != nil {
		rec.err = err
		return
	}
	rec.report, rec.size = sha256.Sum256(data), len(data)
	rec.latency = time.Since(rec.start)
	c.tracer.Record(rec.id, "http.result", root, t0, t0.Add(rec.fetch)).Set("bytes", fmt.Sprint(len(data)))
	if root != nil {
		root.End()
	}
}

// follow reads the job's NDJSON events stream until a terminal
// transition, returning when the "running" and terminal lines arrived.
func (c *client) follow(ctx context.Context, rec *jobRecord) (running, ended time.Time, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+rec.id+"/events", nil)
	if err != nil {
		return running, ended, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return running, ended, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return running, ended, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return running, ended, fmt.Errorf("events: %w", err)
		}
		if ev.Type != "transition" {
			continue
		}
		now := time.Now()
		if ev.State == string(jobstore.Running) && running.IsZero() {
			running = now
		}
		if jobstore.State(ev.State).Terminal() {
			rec.state, ended = ev.State, now
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return running, ended, nil
		}
	}
	if err := sc.Err(); err != nil {
		return running, ended, err
	}
	return running, ended, fmt.Errorf("events stream of %s ended before a terminal state", rec.id)
}

// call performs one request and reads the whole response.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// loop drives the closed loop for d: each client submits its next job
// only after the previous one's report arrived, and stops submitting
// once d has passed. It returns every job in submission order per
// client and the window from the first submission to the last report.
func loop(ctx context.Context, s *service, sh shape, seed uint64, first int, d time.Duration, tracer *Tracer) ([]*jobRecord, time.Duration) {
	hc := &http.Client{Transport: newTransport()}
	defer hc.CloseIdleConnections()
	perClient := make([][]*jobRecord, sh.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sh.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{base: s.base, http: hc, tracer: tracer}
			for i := first; i == first || time.Since(start) < d; i++ {
				rec := &jobRecord{spec: sh.spec(seed, c, i)}
				if n := len(perClient[c]); sh.repeatEvery > 0 && (n+1)%sh.repeatEvery == 0 {
					// Repeat the first fresh spec of this group of
					// repeatEvery submissions; it is done by now.
					if orig := perClient[c][n+1-sh.repeatEvery]; orig.err == nil {
						rec.spec, rec.repeatOf = orig.spec, orig
					}
				}
				cl.do(ctx, rec)
				perClient[c] = append(perClient[c], rec)
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	var all []*jobRecord
	for _, recs := range perClient {
		all = append(all, recs...)
	}
	return all, window
}

// runService measures one service workload: the set-ups, the timed
// closed loop, then the correctness gate and (traced) the per-layer
// measurements, all outside the timed window.
func runService(ctx context.Context, cfg config, res *result, sh shape) error {
	if cfg.smoke {
		sh.jobs = 5
	}
	var wt *workerTransport
	if cfg.traced && sh.distributed {
		wt = newWorkerTransport(res.tracer)
	}

	// Set-up: open a fresh store, start the server (and the workers,
	// with their version check) and complete one warm-up job. All but
	// the last set-up are torn down; the median is setup_s.
	var setups []float64
	var s *service
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var w *workerTransport // only the kept service is traced
		if i == setupRepeats-1 {
			w = wt
		}
		var err error
		s, err = startService(ctx, filepath.Join(cfg.outDir, fmt.Sprint("svc", i)), sh, w)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		warm := &jobRecord{spec: sh.spec(cfg.seed, 99, i)}
		hc := &http.Client{Transport: newTransport()}
		(&client{base: s.base, http: hc}).do(ctx, warm)
		hc.CloseIdleConnections()
		if warm.err != nil {
			s.stop()
			return fmt.Errorf("set-up warm-up job: %w", warm.err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := s.stop(); err != nil {
				return err
			}
			if err := os.RemoveAll(s.dir); err != nil {
				return err
			}
		}
	}
	defer func() {
		if err := s.stop(); err != nil {
			res.fail("shutting the service down: %v", err)
		}
	}()

	// The timed window. A traced run first repeats the untraced loop for
	// half the window, then traces the second half, so the tracing
	// overhead is measured against the same server.
	hs := startHeapSampler()
	var plain, recs []*jobRecord
	var window time.Duration
	if cfg.traced {
		half := max(cfg.seconds/2, time.Second)
		plain, _ = loop(ctx, s, sh, cfg.seed, 0, half, nil)
		wt.enable()
		recs, window = loop(ctx, s, sh, cfg.seed, 500000, half, res.tracer)
		wt.disable()
	} else {
		recs, window = loop(ctx, s, sh, cfg.seed, 0, cfg.seconds, nil)
	}
	peak := hs.Stop()
	res.extra["heap_max_mb"] = hs.max()
	s.stopWorkers()

	all := append(append([]*jobRecord(nil), plain...), recs...)
	sampleSize := 20
	if cfg.smoke {
		sampleSize = 3
	}
	sample := spread(fresh(recs), sampleSize)
	floors, report, runResult := gateJobs(ctx, res, all, sample)
	if len(floors) == 0 {
		return fmt.Errorf("no job completed")
	}
	runTimes, err := facadeRuns(ctx, sample)
	if err != nil {
		return err
	}

	lat := func(recs []*jobRecord) []float64 {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, ms(r.latency))
		}
		return xs
	}
	freshRecs, cachedRecs := fresh(recs), cached(recs)
	res.extra["jobs"] = float64(len(freshRecs))
	res.extra["cached_jobs"] = float64(len(cachedRecs))
	res.extra["window_s"] = window.Seconds()
	if len(cachedRecs) > 0 {
		res.extra["job_cached_p50_ms"] = median(lat(cachedRecs))
	}
	if !cfg.traced {
		res.e2e["setup_s"] = median(setups)
		res.e2e["sim_run_s"] = median(runTimes)
		res.e2e["peak_heap_mb"] = peak
		res.e2e["job_p50_ms"] = median(lat(freshRecs))
		res.extra["job_p90_ms"] = quantile(lat(freshRecs), 0.9)
		res.e2e["runs_per_s"] = float64(len(freshRecs)*sh.runs) / window.Seconds()
		return nil
	}

	// Per-layer metrics of the traced half.
	L := res.layers
	L["bench.tracing_overhead_pct"] = 100 * (median(lat(freshRecs)) - median(lat(fresh(plain)))) / median(lat(fresh(plain)))
	var submits, fetches, sizes, queued, execs []float64
	for _, r := range append(append([]*jobRecord(nil), freshRecs...), cachedRecs...) {
		submits = append(submits, ms(r.submit))
		fetches = append(fetches, ms(r.fetch))
		sizes = append(sizes, float64(r.size)/1024)
	}
	for _, r := range freshRecs {
		queued = append(queued, ms(r.queued))
		execs = append(execs, ms(r.exec))
	}
	L["http.submit_ms"] = median(submits)
	L["http.result_ms"] = median(fetches)
	L["http.result_kb"] = median(sizes)
	L["simsrv.queue_wait_ms"] = median(queued)
	L["simsrv.exec_ms"] = median(execs)
	L["simsrv.cached_job_p50_ms"] = res.extra["job_cached_p50_ms"]
	L["sweep.floor_ms"] = 1000 * median(floors)
	L["simsrv.overhead_ratio"] = L["simsrv.exec_ms"] / L["sweep.floor_ms"]

	st, err := storeStats(filepath.Join(s.dir, "store"))
	if err != nil {
		return err
	}
	L["store.records_per_run"] = ratio(float64(st.records), float64(st.runs))
	L["store.kb_per_run"] = ratio(float64(st.bytes)/1024, float64(st.runs))
	if sh.distributed {
		L["coord.wal_records_per_run"] = ratio(float64(st.walRecords), float64(st.distRuns))
		wt.layerMetrics(L, len(recs))
		if err := renewProbe(ctx, s, sh, cfg.seed, wt); err != nil {
			return fmt.Errorf("renew probe: %w", err)
		}
		wt.renewMetrics(L)
		if err := coordSideCalls(L, filepath.Join(cfg.outDir, "coord")); err != nil {
			return err
		}
	}
	if err := storeSideCalls(L, filepath.Join(cfg.outDir, "sidecar"), report, runResult); err != nil {
		return err
	}

	// The simulator layers at this workload's run size.
	seed := sample[0].spec.RunSeed(0)
	one, err := newEngineSim(sh.jobs, seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	out, err := one.Run(ctx)
	if err != nil {
		return err
	}
	if err := engineLayers(ctx, res, sh.jobs, seed, time.Since(t0), out.Events); err != nil {
		return err
	}
	res.extra["setup_s"] = median(setups)
	zeroMissingLayers(res)
	return nil
}

// gateJobs is the service workloads' correctness gate: every job must
// reach done, every cached repeat must return its original's report
// byte for byte, and every sampled report must equal the report a
// direct sim.RunSweep of its spec assembles. It returns the sampled
// RunSweep wall times (the sweep floor) and one report and run result
// for the side calls.
func gateJobs(ctx context.Context, res *result, all, sample []*jobRecord) (floors []float64, report []byte, run *sim.Result) {
	res.attempted += len(all)
	for _, rec := range all {
		switch {
		case rec.err != nil:
			res.fail("job %s (seed %d): %v", rec.id, rec.spec.Seed, rec.err)
		case rec.repeatOf != nil && rec.report != rec.repeatOf.report:
			res.fail("cached repeat %s differs from its original %s", rec.id, rec.repeatOf.id)
		}
	}
	for _, rec := range sample {
		want, out, d, err := directReport(ctx, rec.spec)
		if err != nil {
			res.fail("direct sweep of %s: %v", rec.id, err)
			continue
		}
		if sha256.Sum256(want) != rec.report {
			res.fail("report of %s differs from a direct sim.RunSweep of its spec", rec.id)
		}
		floors = append(floors, d.Seconds())
		report, run = want, out
	}
	return floors, report, run
}

// facadeRuns times one public Simulation.Run of every run of the
// sampled jobs, one at a time: the simulator's own cost of one run of
// this workload, with no service around it.
func facadeRuns(ctx context.Context, sample []*jobRecord) ([]float64, error) {
	var xs []float64
	for _, rec := range sample {
		sp := rec.spec.Normalize()
		for i := 0; i < sp.Runs; i++ {
			s, err := newEngineSim(sp.Jobs, sp.RunSeed(i))
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := s.Run(ctx); err != nil {
				return nil, err
			}
			xs = append(xs, time.Since(t0).Seconds())
		}
	}
	return xs, nil
}

// fresh returns the completed jobs that computed their runs.
func fresh(recs []*jobRecord) []*jobRecord {
	var out []*jobRecord
	for _, r := range recs {
		if r.err == nil && r.repeatOf == nil {
			out = append(out, r)
		}
	}
	return out
}

// cached returns the completed repeats of already-done specs.
func cached(recs []*jobRecord) []*jobRecord {
	var out []*jobRecord
	for _, r := range recs {
		if r.err == nil && r.repeatOf != nil {
			out = append(out, r)
		}
	}
	return out
}

// spread picks up to n records evenly spaced over recs.
func spread(recs []*jobRecord, n int) []*jobRecord {
	if len(recs) <= n {
		return recs
	}
	out := make([]*jobRecord, n)
	for i := range out {
		out[i] = recs[i*len(recs)/n]
	}
	return out
}

// directReport runs the spec through sim.RunSweep with no service and
// assembles the merged report simd would serve for it. It returns the
// report, one run's result and the RunSweep wall time.
func directReport(ctx context.Context, sp sim.JobSpec) ([]byte, *sim.Result, time.Duration, error) {
	sp = sp.Normalize()
	simu, err := sp.Simulation()
	if err != nil {
		return nil, nil, 0, err
	}
	runs := make([]sim.Run, sp.Runs)
	for i := range runs {
		runs[i] = sim.Run{Sim: simu}
		if sp.Runs == 1 {
			runs[i] = sim.Pin(simu, sp.Seed)
		}
	}
	t0 := time.Now()
	outs, err := sim.RunSweep(ctx, runs, sim.SweepOptions{BaseSeed: sp.Seed})
	d := time.Since(t0)
	if err != nil {
		return nil, nil, 0, err
	}
	h, err := sp.SpecHash()
	if err != nil {
		return nil, nil, 0, err
	}
	raw, err := sp.MarshalNormalized()
	if err != nil {
		return nil, nil, 0, err
	}
	rep := simsrv.Report{SpecHash: h, EngineVersion: sim.Version, Spec: raw, Runs: make([]simsrv.ReportRun, len(outs))}
	for i, o := range outs {
		data, err := json.Marshal(o.Result)
		if err != nil {
			return nil, nil, 0, err
		}
		rep.Runs[i] = simsrv.ReportRun{Index: i, Seed: sp.RunSeed(i), Result: data}
	}
	data, err := json.Marshal(rep)
	return data, outs[0].Result, d, err
}

// renewProbe times the renew route: with the default 15 s lease a
// worker renews only after 5 s, which no 16-run claim lasts, so a probe
// holds a claim on a fresh distributed job through the workers'
// transport, renews it, hands it back and cancels the job.
func renewProbe(ctx context.Context, s *service, sh shape, seed uint64, wt *workerTransport) error {
	cl := &client{base: s.base, http: &http.Client{Transport: wt}}
	body, err := json.Marshal(sh.spec(seed, 98, 0))
	if err != nil {
		return err
	}
	status, data, err := cl.call(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("submit: %d %s %v", status, data, err)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &view); err != nil {
		return err
	}
	req, err := json.Marshal(coord.ClaimRequest{Worker: "probe", Max: sh.runs, EngineVersion: sim.Version})
	if err != nil {
		return err
	}
	var claim coord.ClaimResponse
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		status, data, err = cl.call(ctx, http.MethodPost, "/v1/jobs/"+view.ID+"/claims", req)
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			if err := json.Unmarshal(data, &claim); err != nil {
				return err
			}
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("claim: status %d: %s", status, data)
		}
	}
	wt.enable()
	prefix := "/v1/jobs/" + view.ID + "/claims/" + claim.ClaimID
	for i := 0; i < 30; i++ {
		if status, data, err = cl.call(ctx, http.MethodPost, prefix+"/renew", nil); err != nil || status != http.StatusOK {
			return fmt.Errorf("renew: %d %s %v", status, data, err)
		}
	}
	wt.disable()
	if status, data, err = cl.call(ctx, http.MethodPost, prefix+"/complete", nil); err != nil || status != http.StatusOK {
		return fmt.Errorf("complete: %d %s %v", status, data, err)
	}
	if status, data, err = cl.call(ctx, http.MethodPost, "/v1/jobs/"+view.ID+"/cancel", nil); err != nil || status != http.StatusAccepted {
		return fmt.Errorf("cancel: %d %s %v", status, data, err)
	}
	return nil
}
