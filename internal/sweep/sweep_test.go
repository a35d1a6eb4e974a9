package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func TestMapOrderAndErrors(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		vals, err := MapContext(context.Background(), 10, workers, func(i int) (int, error) {
			if i == 4 {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i * i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error from index 4 lost", workers)
		}
		for i, v := range vals {
			want := i * i
			if i == 4 {
				want = 0
			}
			if v != want {
				t.Fatalf("workers=%d: vals[%d] = %d, want %d", workers, i, v, want)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	vals, err := MapContext(context.Background(), 0, 4, func(i int) (int, error) { return 1, nil })
	if err != nil || vals != nil {
		t.Fatalf("empty map: %v, %v", vals, err)
	}
}

// fingerprint flattens the scheduling-independent content of a result
// for exact comparison: per-job identity, WPR, wall, failure and
// checkpoint counts, plus the aggregate makespan and event count.
func fingerprint(r *engine.Result) []string {
	out := []string{fmt.Sprintf("%s|%v|%d", r.PolicyName, r.MakespanSec, r.Events)}
	for _, jr := range r.Jobs {
		ck := 0
		for _, tr := range jr.Tasks {
			ck += tr.Checkpoints
		}
		out = append(out, fmt.Sprintf("%s|%v|%v|%d|%d",
			jr.Job.ID, jr.WPR(), jr.Wall(), jr.Failures(), ck))
	}
	return out
}

// The acceptance property of the sweep layer: the same scenario set run
// with 1 worker and with N workers yields identical engine.Results.
func TestScenariosSerialParallelIdentical(t *testing.T) {
	runs := []Run{
		// A same-seed pair sharing one trace (the paired-comparison
		// shape used by the figures)...
		{Scenario: scenario.Scenario{Name: "f3", Policy: "formula3", Workload: scenario.Workload{Jobs: 300}}, Seed: 7},
		{Scenario: scenario.Scenario{Name: "young", Policy: "young", Workload: scenario.Workload{Jobs: 300}}, Seed: 7},
		// ...plus runs over distinct seeds, workloads and modes.
		{Scenario: scenario.Scenario{Name: "flip", Policy: "formula3", Engine: engine.Config{Dynamic: true},
			Workload: scenario.Workload{Jobs: 200, PriorityChangeFraction: 1}}, Seed: 123},
		{Scenario: scenario.Scenario{Name: "oracle", Policy: "formula3", Engine: engine.Config{Estimates: engine.EstimateOracle},
			Workload: scenario.Workload{Jobs: 200}}, Seed: 124},
		{Scenario: scenario.Scenario{Name: "crash", Policy: "none", Engine: engine.Config{HostMTBF: 2000},
			Workload: scenario.Workload{Jobs: 150}}, Seed: 125},
	}
	sweepWith := func(workers int) []Outcome {
		outs, err := ScenariosContext(context.Background(), runs, Options{DefaultJobs: 200, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return outs
	}
	serial := sweepWith(1)
	// Shared materialization never hands a run another run's inputs:
	// each run computes exactly what it computes swept alone.
	for i, r := range runs {
		alone := results(t, []Run{r}, Options{DefaultJobs: 200})
		if !reflect.DeepEqual(fingerprint(serial[i].Result), fingerprint(alone[0])) {
			t.Fatalf("run %s differs from the same run swept alone", r.Scenario.Name)
		}
	}
	for _, workers := range []int{2, 8} {
		parallel := sweepWith(workers)
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d outcomes, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			a, b := fingerprint(serial[i].Result), fingerprint(parallel[i].Result)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("workers=%d: run %s diverged from serial execution", workers, runs[i].Scenario.Name)
			}
		}
	}
}

// results runs a sweep that must succeed and unwraps its results.
func results(t *testing.T, runs []Run, opt Options) []*engine.Result {
	t.Helper()
	outs, err := ScenariosContext(context.Background(), runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]*engine.Result, len(outs))
	for i, out := range outs {
		res[i] = out.Result
	}
	return res
}

// Same-seed runs over the same workload must replay the same trace:
// the job sets of the two results must align pairwise.
func TestScenariosSharedTraceAligns(t *testing.T) {
	res := results(t, []Run{
		{Scenario: scenario.Scenario{Name: "a", Policy: "formula3", Workload: scenario.Workload{Jobs: 250}}, Seed: 11},
		{Scenario: scenario.Scenario{Name: "b", Policy: "young", Workload: scenario.Workload{Jobs: 250}}, Seed: 11},
	}, Options{Workers: 2})
	if _, err := engine.PairJobs(res[0], res[1]); err != nil {
		t.Fatalf("same-seed runs diverged: %v", err)
	}
}

// Seed 0 must be honored verbatim — 0 is a valid seed, not a
// derive-me sentinel — and both seed-0 runs must share one trace.
func TestScenariosPinnedZeroSeed(t *testing.T) {
	w := scenario.Workload{Jobs: 120}
	res := results(t, []Run{
		{Scenario: scenario.Scenario{Name: "a", Policy: "formula3", Workload: w}, Seed: 0},
		{Scenario: scenario.Scenario{Name: "b", Policy: "young", Workload: w}, Seed: 0},
	}, Options{Workers: 2})
	if _, err := engine.PairJobs(res[0], res[1]); err != nil {
		t.Fatalf("seed-0 runs replayed different traces: %v", err)
	}

	// The first run is exactly a direct engine run under seed 0.
	sc := scenario.Scenario{Policy: "formula3", Workload: w}
	cfg, err := sc.EngineConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Materialize(0, DefaultJobs)
	direct, err := engine.RunWithEstimatorContext(context.Background(), cfg, tr.BatchJobs(),
		trace.BuildEstimator(tr, sc.EffectiveLimits()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fingerprint(res[0]), fingerprint(direct)) {
		t.Fatal("seed 0 was not used verbatim")
	}
}

// A failing run is a per-run error: its sibling still succeeds, and the
// joined error names the failing run.
func TestScenariosBadPolicyIsPerRunError(t *testing.T) {
	runs := []Run{
		{Scenario: scenario.Scenario{Name: "ok", Policy: "formula3", Workload: scenario.Workload{Jobs: 100}}, Seed: 5},
		{Scenario: scenario.Scenario{Name: "bad", Policy: "quantum", Workload: scenario.Workload{Jobs: 100}}, Seed: 6},
	}
	outs, err := ScenariosContext(context.Background(), runs, Options{Workers: 2})
	if outs[0].Err != nil || outs[0].Result == nil {
		t.Fatalf("healthy run poisoned: %v", outs[0].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err == nil || !strings.HasPrefix(err.Error(), "bad: ") || !errors.Is(err, outs[1].Err) {
		t.Fatalf("joined error %v does not wrap the run error as \"bad: <err>\"", err)
	}
}
