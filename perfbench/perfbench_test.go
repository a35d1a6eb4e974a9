package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload at smoke size. From this directory:
//
//	go test ./...

// TestBenchmarkJSONListsTheRegistry keeps BENCHMARK.json and the
// binary's metric and workload lists identical.
func TestBenchmarkJSONListsTheRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the binary %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the binary", w.Name)
		}
	}
	same := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), binary %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced and
// traced at smoke size and checks the final line: the gate passed and
// every metric is there with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: time.Second, traced: traced, smoke: true, outDir: t.TempDir()}
			res, err := execute(context.Background(), cfg, run)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
			if err != nil {
				t.Fatal(err)
			}
			line, err := emit(out, cfg, res)
			out.Close()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var got struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("%s traced=%v: final line %q: %v", name, traced, line, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", name, traced, got.Correct, got.Attempted, got.Failed, res.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := got.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: no %s", name, traced, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", name, traced, m.name, v.Unit, m.unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, name+"-seed3-trace1.spans.ndjson")); err != nil {
					t.Errorf("%s: no spans written: %v", name, err)
				}
			}
		}
	}
}

// TestAnchorGateTrips checks the engine gate against the smoke anchor,
// as is and tampered.
func TestAnchorGateTrips(t *testing.T) {
	s, err := newEngineSim(smokeAnchor.jobs, smokeAnchor.seed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := smokeAnchor.check(fingerprintOf(out)); err != nil {
		t.Fatalf("untampered anchor: %v", err)
	}
	for _, tamper := range []func(*fingerprint){
		func(f *fingerprint) { f.events++ },
		func(f *fingerprint) { f.makespan += 1e-9 },
		func(f *fingerprint) { f.meanWPR *= 1 + 1e-15 },
	} {
		a := smokeAnchor
		tamper(&a.want)
		if err := a.check(fingerprintOf(out)); err == nil {
			t.Errorf("tampered anchor %+v passed the gate", a)
		}
	}
}

// TestReportGateTrips runs a tiny closed loop with cached repeats,
// then checks the service gate passes as is and trips on a tampered
// fresh report and on a tampered cached repeat.
func TestReportGateTrips(t *testing.T) {
	ctx := context.Background()
	sh := shape{clients: 1, jobs: 5, runs: 2, repeatEvery: 2}
	s, err := startService(ctx, t.TempDir(), sh, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := loop(ctx, s, sh, 7, 0, 300*time.Millisecond, nil)
	if err := s.stop(); err != nil {
		t.Fatal(err)
	}
	if len(cached(recs)) == 0 {
		t.Fatalf("no cached repeat among %d jobs", len(recs))
	}

	gate := func() *result {
		res := newResult()
		gateJobs(ctx, res, recs, fresh(recs))
		return res
	}
	if res := gate(); res.failed != 0 {
		t.Fatalf("untampered jobs fail the gate: %v", res.problems)
	}

	// Repeats are not in the direct-sweep sample, so a tampered repeat
	// trips only the repeat comparison.
	rep := cached(recs)[len(cached(recs))-1]
	rep.report[0] ^= 1
	if res := gate(); res.failed != 1 || !strings.Contains(res.problems[0], "cached repeat") {
		t.Errorf("tampered repeat: failed=%d %v", res.failed, res.problems)
	}
	rep.report[0] ^= 1

	orig := fresh(recs)[0]
	orig.report[len(orig.report)-1] ^= 1
	res := gate()
	found := false
	for _, p := range res.problems {
		found = found || strings.Contains(p, "differs from a direct sim.RunSweep")
	}
	if !found {
		t.Errorf("tampered report passed the direct-sweep comparison: %v", res.problems)
	}
}
