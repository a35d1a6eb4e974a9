package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/internal/simsrv"
	"repro/sim"
)

// workerTransport is the coord.Worker.Client transport of a traced
// service-dist run: it times every worker request by route, records a
// span per request under the job's ID, and counts idle polls, granted
// claims and accepted publishes. With recording disabled it only passes
// requests through.
type workerTransport struct {
	base   http.RoundTripper
	tracer *Tracer
	on     atomic.Bool

	mu        sync.Mutex
	durs      map[string][]float64 // by route: work, claim, renew, publish, complete, failed
	idlePolls int
	claims    int
	published int
	executed  int // runs that reached BeforePublish
}

func newWorkerTransport(tracer *Tracer) *workerTransport {
	return &workerTransport{base: newTransport(), tracer: tracer, durs: make(map[string][]float64)}
}

// enable and disable switch recording; a nil transport (untraced, or
// no workers) ignores them.
func (t *workerTransport) enable() {
	if t != nil {
		t.on.Store(true)
	}
}

func (t *workerTransport) disable() {
	if t != nil {
		t.on.Store(false)
	}
}

// route names a claim-protocol request and the job it concerns.
func route(req *http.Request) (name, job string) {
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/") // v1 jobs {id} ...
	switch {
	case req.URL.Path == "/v1/work":
		return "work", ""
	case len(parts) < 4 || parts[1] != "jobs":
		return "other", ""
	case parts[3] == "claims" && len(parts) == 4:
		return "claim", parts[2]
	case parts[3] == "claims" && len(parts) == 6:
		return parts[5], parts[2] // renew, complete
	case parts[3] == "runs" && len(parts) == 5:
		return "publish", parts[2]
	case parts[3] == "runs" && len(parts) == 6:
		return "failed", parts[2]
	}
	return "other", parts[2]
}

// RoundTrip implements http.RoundTripper. The body is read here so the
// recorded time covers the whole exchange, as the worker's own
// per-attempt deadline does.
func (t *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.base.RoundTrip(req)
	}
	name, job := route(req)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tracer.Record(job, "worker."+name, nil, start, time.Now()).Set("error", err.Error())
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	t.tracer.Record(job, "worker."+name, nil, start, end).Set("status", fmt.Sprint(resp.StatusCode))

	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], ms(end.Sub(start)))
	switch {
	case name == "work":
		var wl coord.WorkList
		if json.Unmarshal(data, &wl) == nil && len(wl.Jobs) == 0 {
			t.idlePolls++
		}
	case name == "claim" && resp.StatusCode == http.StatusOK:
		t.claims++
	case name == "publish" && resp.StatusCode == http.StatusOK:
		t.published++
	}
	return resp, nil
}

// beforePublish is the workers' BeforePublish hook: it counts runs
// executed to completion, whether or not the publish is then accepted.
func (t *workerTransport) beforePublish(string, int) error {
	if t.on.Load() {
		t.mu.Lock()
		t.executed++
		t.mu.Unlock()
	}
	return nil
}

// layerMetrics fills the worker-side metrics of jobs distributed jobs.
func (t *workerTransport) layerMetrics(L map[string]float64, jobs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range []string{"work", "claim", "publish"} {
		L["http."+name+"_p50_ms"] = quantile(t.durs[name], 0.5)
		L["http."+name+"_p90_ms"] = quantile(t.durs[name], 0.9)
	}
	L["coord.idle_polls_per_job"] = ratio(float64(t.idlePolls), float64(jobs))
	L["coord.claims_per_job"] = ratio(float64(t.claims), float64(jobs))
	L["coord.useful_ratio"] = ratio(float64(t.published), float64(t.executed))
}

func (t *workerTransport) renewMetrics(L map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	L["http.renew_p50_ms"] = quantile(t.durs["renew"], 0.5)
	L["http.renew_p90_ms"] = quantile(t.durs["renew"], 0.9)
}

// storeTally counts what a service left in its store directory.
type storeTally struct {
	records    int64 // NDJSON lines plus cache and result files: one fsync each
	bytes      int64
	walRecords int64 // claims.ndjson lines
	runs       int   // runs of every job in the store
	distRuns   int   // runs of its distributed jobs
}

func storeStats(dir string) (storeTally, error) {
	var t storeTally
	cacheDir := filepath.Join(dir, "cache") + string(filepath.Separator)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		t.bytes += int64(len(data))
		name := d.Name()
		switch {
		case strings.HasSuffix(name, ".ndjson"):
			lines := int64(bytes.Count(data, []byte{'\n'}))
			t.records += lines
			if name == "claims.ndjson" {
				t.walRecords += lines
			}
		case name == "result.json", strings.HasPrefix(path, cacheDir):
			t.records++
		case name == "spec.json":
			var sp sim.JobSpec
			if err := json.Unmarshal(data, &sp); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			sp = sp.Normalize()
			t.runs += sp.Runs
			if sp.Distributed {
				t.distRuns += sp.Runs
			}
		}
		return nil
	})
	return t, err
}

// sideCallN is how many times each durable side call is timed.
const sideCallN = 30

// storeSideCalls times the store's and the cache's durable operations
// directly, on the same filesystem as the service's store, with a real
// merged report and a real run result as payloads.
func storeSideCalls(L map[string]float64, dir string, report []byte, run *sim.Result) error {
	st, err := jobstore.Open(dir)
	if err != nil {
		return err
	}
	j, err := st.Create(json.RawMessage(`{"scenario":"baseline-f3"}`))
	if err != nil {
		return err
	}
	cache, err := simsrv.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	runBytes, err := json.Marshal(run)
	if err != nil {
		return err
	}
	keys := make([]string, sideCallN)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		keys[i] = hex.EncodeToString(sum[:])
	}
	timed := func(name string, op func(i int) error) error {
		var xs []float64
		for i := 0; i < sideCallN; i++ {
			t0 := time.Now()
			if err := op(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		L[name] = median(xs)
		return nil
	}
	for _, step := range []struct {
		name string
		op   func(i int) error
	}{
		{"jobstore.append_ms", func(i int) error { return st.RecordRun(j.ID, i, keys[i]) }},
		{"jobstore.set_result_ms", func(int) error { return st.SetResult(j.ID, report) }},
		{"cache.put_ms", func(i int) error { return cache.Put(keys[i], runBytes) }},
		{"cache.get_ms", func(i int) error {
			if _, ok := cache.Get(keys[i]); !ok {
				return fmt.Errorf("key %s missing", keys[i])
			}
			return nil
		}},
		{"sim.marshal_ms", func(int) error { _, err := json.Marshal(run); return err }},
	} {
		if err := timed(step.name, step.op); err != nil {
			return err
		}
	}
	return nil
}

// coordSideCalls times the claim ledger directly: one fsynced WAL
// append (a claim on a WAL-backed ledger) and one in-memory ledger
// operation (claim, fence check, index completion and claim completion
// averaged on a ledger without a WAL).
func coordSideCalls(L map[string]float64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	led := coord.NewLedger(sideCallN, coord.DefaultLease)
	wal, recs, err := coord.OpenWAL(filepath.Join(dir, "claims.ndjson"))
	if err != nil {
		return err
	}
	defer wal.Close()
	if err := led.Recover(wal, recs); err != nil {
		return err
	}
	var xs []float64
	for i := 0; i < sideCallN; i++ {
		t0 := time.Now()
		if _, ok := led.Claim("probe", 1); !ok {
			return fmt.Errorf("WAL-backed ledger refused claim %d", i)
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	L["coord.wal_append_ms"] = median(xs)

	const n = 20000
	mem := coord.NewLedger(n, coord.DefaultLease)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		cl, ok := mem.Claim("probe", 1)
		if !ok {
			return fmt.Errorf("in-memory ledger refused claim %d", i)
		}
		if err := mem.Owns(cl.ID, cl.Start); err != nil {
			return err
		}
		if err := mem.CompleteIndex(cl.ID, cl.Start); err != nil {
			return err
		}
		if err := mem.Complete(cl.ID); err != nil {
			return err
		}
	}
	L["coord.ledger_op_us"] = float64(time.Since(t0).Microseconds()) / (4 * n)
	return nil
}
