package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/sim"
)

// TestRunMatchesInternalSweep pins the facade to the implementation:
// the public builder must produce exactly the outcome of the internal
// scenario/sweep path it fronts.
func TestRunMatchesInternalSweep(t *testing.T) {
	const seed, jobs = 99, 200
	s, err := sim.New(sim.WithSeed(seed), sim.WithJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	outs, err := sweep.ScenariosContext(context.Background(),
		[]sweep.Run{{Scenario: scenario.Scenario{Workload: scenario.Workload{Jobs: jobs}}, Seed: seed}},
		sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []*engine.Result{outs[0].Result}

	if got.Events != want[0].Events {
		t.Errorf("events: sim %d vs engine %d", got.Events, want[0].Events)
	}
	if got.MakespanSec != want[0].MakespanSec {
		t.Errorf("makespan: sim %g vs engine %g", got.MakespanSec, want[0].MakespanSec)
	}
	if len(got.Jobs) != len(want[0].Jobs) {
		t.Fatalf("jobs: sim %d vs engine %d", len(got.Jobs), len(want[0].Jobs))
	}
	if w := want[0].MeanWPR(nil); math.Abs(got.MeanWPR()-w) > 1e-12 {
		t.Errorf("mean WPR: sim %g vs engine %g", got.MeanWPR(), w)
	}
	if w := want[0].MeanWPR(engine.WithFailures); math.Abs(got.MeanWPRFailing()-w) > 1e-12 {
		t.Errorf("mean failing WPR: sim %g vs engine %g", got.MeanWPRFailing(), w)
	}
}

// runJSON runs a Simulation built from opts and marshals its Result.
func runJSON(t *testing.T, opts ...sim.Option) []byte {
	t.Helper()
	s, err := sim.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunDeterminism: identical Simulations marshal to identical JSON.
func TestRunDeterminism(t *testing.T) {
	opts := []sim.Option{sim.WithSeed(5), sim.WithJobs(120)}
	if a, b := runJSON(t, opts...), runJSON(t, opts...); !bytes.Equal(a, b) {
		t.Fatal("two runs with the same seed produced different JSON")
	}
}

// TestSharedStorageSelectsDevice: SharedDMNFS is the default shared
// device, and SharedNFS swaps in a single server that prices the run's
// writes differently.
func TestSharedStorageSelectsDevice(t *testing.T) {
	opts := []sim.Option{sim.WithSeed(6), sim.WithJobs(60), sim.WithStorage(sim.StorageShared)}
	def := runJSON(t, opts...)
	if !bytes.Equal(def, runJSON(t, append(opts, sim.WithSharedStorage(sim.SharedDMNFS))...)) {
		t.Error("SharedDMNFS is not the default shared device")
	}
	if bytes.Equal(def, runJSON(t, append(opts, sim.WithSharedStorage(sim.SharedNFS))...)) {
		t.Error("SharedNFS ran the default shared device")
	}
}

// TestResultJSONRoundTrip: the stable Result type survives a JSON
// round trip whole: decoding skips the derived wall_sec and wpr keys,
// which the records' methods recompute.
func TestResultJSONRoundTrip(t *testing.T) {
	s, err := sim.New(sim.WithSeed(3), sim.WithJobs(80))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back sim.Result
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, res) {
		t.Fatalf("round trip mutated the result:\n got %+v\nwant %+v", back.Summary, res.Summary)
	}
}

// countingPolicy is a custom Policy recording how often it was asked.
type countingPolicy struct {
	mu    sync.Mutex
	calls int
}

func (p *countingPolicy) Name() string { return "counting" }

func (p *countingPolicy) Intervals(te, c float64, est sim.Estimate) int {
	p.mu.Lock()
	p.calls++
	p.mu.Unlock()
	return 1
}

// TestCustomPolicy: a plugged-in policy is consulted, and its name
// labels the result.
func TestCustomPolicy(t *testing.T) {
	pol := &countingPolicy{}
	s, err := sim.New(
		sim.WithSeed(8),
		sim.WithJobs(40),
		sim.WithPolicy(pol),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "counting" {
		t.Errorf("result policy = %q, want %q", res.Policy, "counting")
	}
	if pol.calls == 0 {
		t.Error("custom policy was never consulted")
	}
}

// recordingObserver collects lifecycle events.
type recordingObserver struct {
	mu                            sync.Mutex
	started, progressed, finished int
}

func (o *recordingObserver) RunStarted(sim.RunInfo) {
	o.mu.Lock()
	o.started++
	o.mu.Unlock()
}

func (o *recordingObserver) RunProgress(_ sim.RunInfo, p sim.Progress) {
	o.mu.Lock()
	o.progressed++
	o.mu.Unlock()
}

func (o *recordingObserver) RunFinished(_ sim.RunInfo, out sim.Outcome) {
	o.mu.Lock()
	o.finished++
	o.mu.Unlock()
}

// TestObserverStreamsEvents: every run reports start and finish, and a
// tight progress stride yields streaming progress callbacks.
func TestObserverStreamsEvents(t *testing.T) {
	obs := &recordingObserver{}
	s, err := sim.New(sim.WithSeed(13), sim.WithJobs(100), sim.WithProgressEvery(512))
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	runs := make([]sim.Run, n)
	for i := range runs {
		runs[i] = sim.Run{Sim: s}
	}
	if _, err := sim.RunSweep(context.Background(), runs, sim.SweepOptions{
		BaseSeed: 4,
		Workers:  2,
		Observer: obs,
	}); err != nil {
		t.Fatal(err)
	}
	if obs.started != n || obs.finished != n {
		t.Errorf("observer saw %d starts / %d finishes, want %d each", obs.started, obs.finished, n)
	}
	if obs.progressed == 0 {
		t.Error("observer saw no progress events despite a 512-event stride")
	}
}

// TestPerSimulationObserverInSweep: a WithObserver observer fires even
// when the simulation runs through RunSweep (not only Simulation.Run),
// and Simulation.Run does not double-notify it.
func TestPerSimulationObserverInSweep(t *testing.T) {
	obs := &recordingObserver{}
	s, err := sim.New(
		sim.WithSeed(19),
		sim.WithJobs(60),
		sim.WithObserver(obs),
		sim.WithProgressEvery(512),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunSweep(context.Background(),
		[]sim.Run{sim.Pin(s, 19), sim.Pin(s, 20)},
		sim.SweepOptions{}); err != nil {
		t.Fatal(err)
	}
	if obs.started != 2 || obs.finished != 2 {
		t.Fatalf("per-simulation observer saw %d starts / %d finishes in a 2-run sweep, want 2 each",
			obs.started, obs.finished)
	}
	if obs.progressed == 0 {
		t.Error("per-simulation observer saw no progress events")
	}

	*obs = recordingObserver{}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if obs.started != 1 || obs.finished != 1 {
		t.Fatalf("Run notified the observer %d/%d times, want exactly once each", obs.started, obs.finished)
	}
}

// TestSweepSharesPairedTraces: two policies pinned to one seed replay
// the identical workload (the paper's paired-comparison methodology).
func TestSweepSharesPairedTraces(t *testing.T) {
	build := func(p sim.Policy) *sim.Simulation {
		s, err := sim.New(sim.WithPolicy(p), sim.WithJobs(80))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	outs, err := sim.RunSweep(context.Background(),
		[]sim.Run{sim.Pin(build(sim.Formula3()), 31), sim.Pin(build(sim.Young()), 31)},
		sim.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := outs[0].Result, outs[1].Result
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("paired runs replayed %d vs %d jobs", len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		if a.Jobs[i].ID != b.Jobs[i].ID {
			t.Fatalf("job order diverged at %d: %s vs %s", i, a.Jobs[i].ID, b.Jobs[i].ID)
		}
	}
	if a.Policy == b.Policy {
		t.Errorf("both runs report policy %q", a.Policy)
	}
}

// TestScenarioRegistryFacade: the registry lists scenarios and builds
// runnable simulations from them.
func TestScenarioRegistryFacade(t *testing.T) {
	infos := sim.Scenarios()
	if len(infos) == 0 {
		t.Fatal("no registered scenarios")
	}
	if _, err := sim.ScenarioByName("definitely-not-registered"); err == nil {
		t.Error("unknown scenario produced no error")
	}
	s, err := sim.ScenarioByName(infos[0].Name, sim.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != infos[0].Name {
		t.Errorf("scenario name %q, want %q", s.Name(), infos[0].Name)
	}
}

// TestTraceRoundTrip: generated traces survive serialization.
func TestTraceRoundTrip(t *testing.T) {
	tr, err := sim.GenerateTrace(sim.DefaultTraceConfig(17, 50))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sim.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumJobs() != tr.NumJobs() || back.NumTasks() != tr.NumTasks() {
		t.Fatalf("round trip changed the trace: %v vs %v", back, tr)
	}
}
