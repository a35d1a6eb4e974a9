// Fault-injection harness for distributed sweeps: real simsrv server
// over httptest, real Worker clients, and a chaos hook that "kills"
// workers at randomized points mid-claim (the worker stops dead without
// completing or releasing — exactly what SIGKILL looks like to the
// server). The assertions are the protocol's whole contract: the job
// finishes, every index lands in the checkpoint log exactly once, and
// the merged report is byte-identical to the same sweep executed by a
// single uninterrupted worker and to a serial in-process run.
package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/jobstore"
	"repro/internal/simsrv"
	"repro/sim"
)

// testServer is one in-process simd: store + simsrv + HTTP listener.
type testServer struct {
	store *jobstore.Store
	srv   *simsrv.Server
	ts    *httptest.Server
}

func startServer(t *testing.T, lease time.Duration) *testServer {
	t.Helper()
	store, err := jobstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := simsrv.New(simsrv.Config{Store: store, Workers: 1, SweepWorkers: 1, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
		ts.Close()
		store.Close()
	})
	return &testServer{store: store, srv: srv, ts: ts}
}

func (s *testServer) submit(t *testing.T, spec string) string {
	t.Helper()
	resp, err := http.Post(s.ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
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

func (s *testServer) waitDone(t *testing.T, id string, timeout time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		j, ok := s.store.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch j.State {
		case jobstore.Done:
			return fetchReport(t, s.ts.URL, id)
		case jobstore.Failed, jobstore.Canceled:
			t.Fatalf("job %s ended %s: %+v", id, j.State, j.Events)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// fetchReport GETs a done job's report.
func fetchReport(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result of %s: status %d: %s", id, resp.StatusCode, data)
	}
	return data
}

// checkpointIndices reads a job's runs.ndjson and returns every
// recorded index, in file order — the exactly-once evidence.
func checkpointIndices(t *testing.T, store *jobstore.Store, id string) []int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(store.Dir(), "jobs", id, "runs.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rr struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal([]byte(line), &rr); err != nil {
			t.Fatalf("bad runs.ndjson line %q: %v", line, err)
		}
		out = append(out, rr.Index)
	}
	return out
}

func assertExactlyOnce(t *testing.T, indices []int, n int) {
	t.Helper()
	seen := make(map[int]int)
	for _, i := range indices {
		seen[i]++
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d checkpointed %d times, want exactly 1", i, seen[i])
		}
	}
	if len(indices) != n {
		t.Errorf("%d checkpoint records, want %d", len(indices), n)
	}
}

// chaosFleet keeps `size` workers claiming against base. Each worker
// carries a kill point: after its fleet-wide publish budget hits, it
// dies mid-claim (no complete, no release) and a replacement is spawned
// until the kill budget is exhausted. Stop cancels the fleet and waits.
type chaosFleet struct {
	t      *testing.T
	base   string
	size   int
	max    int
	rng    *rand.Rand
	kills  atomic.Int64 // remaining kills
	pubs   atomic.Int64 // fleet-wide successful publish count
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func startFleet(t *testing.T, base string, size, max, kills int, seed int64) *chaosFleet {
	ctx, cancel := context.WithCancel(context.Background())
	f := &chaosFleet{t: t, base: base, size: size, max: max, rng: rand.New(rand.NewSource(seed)), cancel: cancel}
	f.kills.Store(int64(kills))
	for i := 0; i < size; i++ {
		f.spawn(ctx, fmt.Sprintf("w%d", i), int64(f.rng.Intn(6)))
	}
	t.Cleanup(f.Stop)
	return f
}

// spawn starts one worker that dies after `after` further fleet-wide
// publishes (if the kill budget allows) and is then replaced.
func (f *chaosFleet) spawn(ctx context.Context, name string, after int64) {
	wctx, die := context.WithCancel(ctx)
	killAt := f.pubs.Load() + after
	var dead atomic.Bool
	w := &coord.Worker{
		Base: f.base,
		Name: name,
		Max:  f.max,
		Poll: 5 * time.Millisecond,
		BeforePublish: func(job string, index int) error {
			if f.pubs.Load() >= killAt && f.kills.Add(-1) >= 0 {
				dead.Store(true)
				die()
				return fmt.Errorf("chaos: %s killed before publishing index %d", name, index)
			}
			f.pubs.Add(1)
			return nil
		},
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer die()
		w.Run(wctx)
		if dead.Load() && ctx.Err() == nil {
			// Replacement worker, with a fresh kill point further out.
			f.spawn(ctx, name+"r", 1+int64(f.pubs.Load())%4)
		}
	}()
}

func (f *chaosFleet) Stop() {
	f.cancel()
	f.wg.Wait()
}

const chaosSpec = `{"scenario":"baseline-f3","jobs":60,"runs":10,"seed":11,"distributed":true}`

// referenceReport runs spec on a fresh server with one uninterrupted
// worker — the distributed protocol's "-parallel 1" — and returns the
// merged report bytes.
func referenceReport(t *testing.T, spec string) []byte {
	t.Helper()
	s := startServer(t, time.Minute)
	id := s.submit(t, spec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &coord.Worker{Base: s.ts.URL, Name: "ref", Max: 3, Poll: 5 * time.Millisecond}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	rep := s.waitDone(t, id, 2*time.Minute)
	cancel()
	<-done
	return rep
}

// TestChaosKilledWorkersNeverChangeTheReport is the acceptance test for
// the claim protocol: across 3 seeds, a fleet of workers is killed
// mid-claim at randomized points (dying between computing a run and
// publishing it — the worst instant), leases expire, ranges are
// re-issued, and the merged report must come out byte-identical to the
// uninterrupted single-worker run, with every index checkpointed
// exactly once.
func TestChaosKilledWorkersNeverChangeTheReport(t *testing.T) {
	want := referenceReport(t, chaosSpec)
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := startServer(t, 250*time.Millisecond)
			id := s.submit(t, chaosSpec)
			f := startFleet(t, s.ts.URL, 3, 1+int(seed)%4, 4, seed)
			got := s.waitDone(t, id, 2*time.Minute)
			f.Stop()
			if !bytes.Equal(got, want) {
				t.Error("merged report differs from the uninterrupted single-worker run")
			}
			assertExactlyOnce(t, checkpointIndices(t, s.store, id), 10)
		})
	}
}

// TestDistributedMatchesSerialSweep is the cross-mode differential:
// every per-run result byte in a distributed job's report must equal
// the corresponding result of a serial in-process sim.RunSweep, and the
// report must agree with the local (non-distributed) service path on
// everything but the execution-mode flag in the echoed spec.
func TestDistributedMatchesSerialSweep(t *testing.T) {
	rep := referenceReport(t, chaosSpec)
	var got struct {
		SpecHash      string `json:"spec_hash"`
		EngineVersion string `json:"engine_version"`
		Runs          []struct {
			Index  int             `json:"index"`
			Seed   uint64          `json:"seed"`
			Result json.RawMessage `json:"result"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(rep, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 10 {
		t.Fatalf("%d runs in report, want 10", len(got.Runs))
	}

	// Serial oracle: the same spec through the public sweep API, one
	// worker, in this process.
	var sp sim.JobSpec
	if err := json.Unmarshal([]byte(chaosSpec), &sp); err != nil {
		t.Fatal(err)
	}
	sp = sp.Normalize()
	simu, err := sp.Simulation()
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]sim.Run, sp.Runs)
	for i := range runs {
		runs[i] = sim.Run{Sim: simu}
	}
	outs, err := sim.RunSweep(context.Background(), runs, sim.SweepOptions{BaseSeed: sp.Seed, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got.Runs {
		if r.Index != i || r.Seed != sp.RunSeed(i) {
			t.Fatalf("run %d: index %d seed %d, want index %d seed %d", i, r.Index, r.Seed, i, sp.RunSeed(i))
		}
		want, err := json.Marshal(outs[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Result, want) {
			t.Errorf("run %d: distributed result differs from serial sim.RunSweep", i)
		}
	}

	// Local-mode report: identical modulo the echoed spec's
	// execution-mode flag.
	local := startServer(t, time.Minute)
	localSpec := strings.Replace(chaosSpec, `,"distributed":true`, "", 1)
	id := local.submit(t, localSpec)
	localRep := local.waitDone(t, id, 2*time.Minute)
	var lgot struct {
		SpecHash      string          `json:"spec_hash"`
		EngineVersion string          `json:"engine_version"`
		Runs          json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(localRep, &lgot); err != nil {
		t.Fatal(err)
	}
	if lgot.SpecHash != got.SpecHash {
		t.Errorf("spec_hash differs across modes: %s vs %s", lgot.SpecHash, got.SpecHash)
	}
	distRuns, _ := json.Marshal(got.Runs)
	var lruns []json.RawMessage
	if err := json.Unmarshal(lgot.Runs, &lruns); err != nil {
		t.Fatal(err)
	}
	var druns []json.RawMessage
	if err := json.Unmarshal(distRuns, &druns); err != nil {
		t.Fatal(err)
	}
	if len(lruns) != len(druns) {
		t.Fatalf("local %d runs, distributed %d", len(lruns), len(druns))
	}
}

// TestPropertyRandomizedMatrix is the property/differential test: a
// randomized matrix over (worker count, claim width, lease duration,
// kill schedule), each cell asserting the merged report byte-identical
// to the uninterrupted reference and every index checkpointed exactly
// once. Short mode trims the matrix.
func TestPropertyRandomizedMatrix(t *testing.T) {
	const spec = `{"scenario":"baseline-f3","jobs":40,"runs":8,"seed":23,"distributed":true}`
	want := referenceReport(t, spec)
	cells := 4
	if testing.Short() {
		cells = 2
	}
	rng := rand.New(rand.NewSource(77))
	for c := 0; c < cells; c++ {
		workers := 1 + rng.Intn(4)
		max := 1 + rng.Intn(5)
		lease := time.Duration(150+rng.Intn(300)) * time.Millisecond
		kills := rng.Intn(5)
		name := fmt.Sprintf("w%d_max%d_lease%s_kills%d", workers, max, lease, kills)
		t.Run(name, func(t *testing.T) {
			s := startServer(t, lease)
			id := s.submit(t, spec)
			f := startFleet(t, s.ts.URL, workers, max, kills, int64(c)+100)
			got := s.waitDone(t, id, 2*time.Minute)
			f.Stop()
			if !bytes.Equal(got, want) {
				t.Error("merged report differs from the uninterrupted reference")
			}
			assertExactlyOnce(t, checkpointIndices(t, s.store, id), 8)
		})
	}
}

// TestZombieWorkerPublishIsFencedButHealed pins the duplicate-claim
// story end to end over HTTP: a worker claims a range, stops
// heartbeating, stalls past its lease, and then publishes anyway. The
// late publish must be fenced with a lease-lost rejection, a second
// worker must re-claim and finish the range, and the job's report must
// still be byte-identical to the reference — the zombie's bytes and the
// winner's are identical by construction, so the fence only keeps the
// ledger's single-winner invariant, never correctness.
func TestZombieWorkerPublishIsFencedButHealed(t *testing.T) {
	want := referenceReport(t, chaosSpec)
	const lease = 200 * time.Millisecond
	s := startServer(t, lease)
	id := s.submit(t, chaosSpec)

	// The zombie claims, computes its first run, then — inside the
	// publish path — kills its own heartbeat and sleeps until the lease
	// is long gone before letting the publish proceed.
	var zlog safeLog
	zctx, zcancel := context.WithCancel(context.Background())
	defer zcancel()
	var stalled atomic.Bool
	zombie := &coord.Worker{
		Base: s.ts.URL, Name: "zombie", Max: 4, Poll: 5 * time.Millisecond,
		Logf: zlog.Logf,
		BeforePublish: func(job string, index int) error {
			if stalled.CompareAndSwap(false, true) {
				zcancel() // heartbeat dies with the worker context
				time.Sleep(3 * lease)
			}
			return nil // publish anyway — the server must fence it
		},
	}
	zombieDone := make(chan struct{})
	go func() { defer close(zombieDone); zombie.Run(zctx) }()

	// Healthy worker arrives after the zombie stalls and finishes the
	// job, re-claiming the zombie's expired range.
	for !stalled.Load() {
		time.Sleep(time.Millisecond)
	}
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	healthy := &coord.Worker{Base: s.ts.URL, Name: "healthy", Max: 4, Poll: 5 * time.Millisecond}
	healthyDone := make(chan struct{})
	go func() { defer close(healthyDone); healthy.Run(hctx) }()

	got := s.waitDone(t, id, 2*time.Minute)
	<-zombieDone
	hcancel()
	<-healthyDone
	if !bytes.Equal(got, want) {
		t.Error("report differs after zombie + re-claim")
	}
	assertExactlyOnce(t, checkpointIndices(t, s.store, id), 10)
	if !zlog.Contains("lease lost") {
		t.Errorf("zombie's late publish was not fenced; log:\n%s", zlog.String())
	}
}

// safeLog is a concurrency-safe log capture for worker output.
type safeLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *safeLog) Logf(format string, args ...any) {
	l.mu.Lock()
	fmt.Fprintf(&l.buf, format+"\n", args...)
	l.mu.Unlock()
}

func (l *safeLog) Contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Contains(l.buf.String(), sub)
}

func (l *safeLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}
