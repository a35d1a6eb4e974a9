package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/sim"
)

// TestSpecHashIgnoresAddressingAndMode pins the content-address
// contract: seed, sweep width, and the distributed execution-mode flag
// identify the run or how it is scheduled — never the work — so none of
// them may move the spec hash, while any field that changes what is
// computed must.
func TestSpecHashIgnoresAddressingAndMode(t *testing.T) {
	base := sim.JobSpec{Scenario: "baseline-f3", Jobs: 50}
	want, err := base.SpecHash()
	if err != nil {
		t.Fatal(err)
	}
	same := []sim.JobSpec{
		{Scenario: "baseline-f3", Jobs: 50, Seed: 777},
		{Scenario: "baseline-f3", Jobs: 50, Runs: 32},
		{Scenario: "baseline-f3", Jobs: 50, Distributed: true},
		{Scenario: "baseline-f3", Jobs: 50, Seed: 9, Runs: 4, Distributed: true},
	}
	for _, sp := range same {
		h, err := sp.SpecHash()
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Errorf("spec %+v hashed %s, want %s — addressing/mode field leaked into the hash", sp, h, want)
		}
	}
	diff := []sim.JobSpec{
		{Scenario: "baseline-f3", Jobs: 51},
		{Scenario: "baseline-f3", Jobs: 50, Policy: "young"},
	}
	for _, sp := range diff {
		h, err := sp.SpecHash()
		if err != nil {
			t.Fatal(err)
		}
		if h == want {
			t.Errorf("spec %+v hashed identically to the base — work-defining field ignored", sp)
		}
	}
}

// TestRunKeyMatchesSweepSeeds: run keys embed exactly the seeds RunSweep
// assigns — the base seed verbatim for a 1-run job, the (seed, index)
// derivation for sweeps — and the distributed flag shares keys across
// execution modes.
func TestRunKeyMatchesSweepSeeds(t *testing.T) {
	single := sim.JobSpec{Scenario: "baseline-f3", Seed: 42}
	if got := single.RunSeed(0); got != 42 {
		t.Errorf("1-run RunSeed = %d, want the base seed verbatim", got)
	}
	sweep := sim.JobSpec{Scenario: "baseline-f3", Seed: 42, Runs: 8}
	for i := 0; i < 8; i++ {
		if got, want := sweep.RunSeed(i), sim.DeriveSeed(42, i); got != want {
			t.Errorf("RunSeed(%d) = %d, want DeriveSeed %d", i, got, want)
		}
	}
	keys := make(map[string]int)
	for i := 0; i < 8; i++ {
		k, err := sweep.RunKey(i)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := keys[k]; dup {
			t.Fatalf("indices %d and %d share run key %s", prev, i, k)
		}
		keys[k] = i
	}
	dist := sweep
	dist.Distributed = true
	for i := 0; i < 8; i++ {
		k, err := dist.RunKey(i)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := keys[k]; !ok {
			t.Fatalf("distributed run key for index %d not shared with local mode", i)
		}
	}
}

// TestSweepOnlyIndicesPartition is the resume and remote-claim seam:
// executing a sweep as disjoint OnlyIndices partitions must produce,
// slot for slot, exactly the serialized outcomes of the full sweep —
// with every out-of-partition slot skipped, not erred.
func TestSweepOnlyIndicesPartition(t *testing.T) {
	mk := func() []sim.Run {
		runs := make([]sim.Run, 6)
		for i := range runs {
			s, err := sim.New(sim.WithJobs(60))
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = sim.Run{Sim: s}
		}
		return runs
	}
	opts := sim.SweepOptions{BaseSeed: 7, Workers: 2}
	full, err := sim.RunSweep(context.Background(), mk(), opts)
	if err != nil {
		t.Fatal(err)
	}

	merged := make([]sim.Outcome, len(full))
	for _, part := range [][]int{{0, 3, 4}, {1, 2, 5}} {
		popts := opts
		popts.OnlyIndices = part
		outs, err := sim.RunSweep(context.Background(), mk(), popts)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[int]bool)
		for _, i := range part {
			in[i] = true
		}
		for i, o := range outs {
			if in[i] {
				if o.Skipped || o.Result == nil {
					t.Fatalf("partition index %d not executed: %+v", i, o)
				}
				merged[i] = o
			} else if !o.Skipped {
				t.Fatalf("out-of-partition index %d executed", i)
			}
		}
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partitioned sweep outcomes diverge from the full sweep")
	}
}

// TestValidateCapsJobs: a spec may not ask the trace generator for more
// than MaxSpecJobs jobs, through either field. An uncapped count once
// reached make() and panicked the service on every restart.
func TestValidateCapsJobs(t *testing.T) {
	for _, c := range []struct {
		sp sim.JobSpec
		ok bool
	}{
		{sim.JobSpec{Scenario: "baseline-f3", Jobs: sim.MaxSpecJobs}, true},
		{sim.JobSpec{Scenario: "baseline-f3", Workload: &sim.Workload{Jobs: sim.MaxSpecJobs}}, true},
		{sim.JobSpec{Scenario: "baseline-f3", Jobs: sim.MaxSpecJobs + 1}, false},
		{sim.JobSpec{Scenario: "baseline-f3", Jobs: 1 << 62}, false},
		{sim.JobSpec{Scenario: "baseline-f3", Workload: &sim.Workload{Jobs: 1 << 62}}, false},
	} {
		if err := c.sp.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(jobs %d, workload %+v) = %v, want ok=%v", c.sp.Jobs, c.sp.Workload, err, c.ok)
		}
	}
}

// TestJobCountsCappedAtEveryEntry: a job count past MaxSpecJobs is an
// error at every public entry point that sizes a workload, not only in
// Validate. Each case runs what the caller would run next, because an
// uncapped count reaches the trace generator's make() and panics.
func TestJobCountsCappedAtEveryEntry(t *testing.T) {
	const huge = 1 << 62
	ctx := context.Background()
	run := func(opts ...sim.Option) error {
		s, err := sim.ScenarioByName("baseline-f3", opts...)
		if err != nil {
			return err
		}
		_, err = s.Run(ctx)
		return err
	}
	sweep := func(defaultJobs int) error {
		s, err := sim.ScenarioByName("baseline-f3")
		if err != nil {
			return err
		}
		_, err = sim.RunSweep(ctx, []sim.Run{sim.Pin(s, 1)}, sim.SweepOptions{DefaultJobs: defaultJobs})
		return err
	}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"WithJobs", func() error { return run(sim.WithJobs(huge)) }},
		{"WithWorkload", func() error { return run(sim.WithWorkload(sim.Workload{Jobs: huge})) }},
		{"SweepOptions.DefaultJobs", func() error { return sweep(huge) }},
		{"ExperimentOptions.Jobs", func() error {
			_, err := sim.RunExperiment(ctx, "fig9", sim.ExperimentOptions{Jobs: huge})
			return err
		}},
		{"TraceConfig.Jobs", func() error {
			_, err := sim.GenerateTrace(sim.DefaultTraceConfig(1, huge))
			return err
		}},
	} {
		if err := c.call(); err == nil {
			t.Errorf("%s: %d jobs accepted", c.name, huge)
		}
	}
	// The cap itself is a valid size: options accept it without
	// generating anything.
	if _, err := sim.ScenarioByName("baseline-f3", sim.WithJobs(sim.MaxSpecJobs),
		sim.WithWorkload(sim.Workload{Jobs: sim.MaxSpecJobs})); err != nil {
		t.Errorf("MaxSpecJobs rejected: %v", err)
	}
}

// TestRefusalsCarryOneSimPrefix: every option New refuses, and every
// spec Validate refuses, yields one error with exactly one "sim:"
// prefix that names what was refused. WithWorkload's errors once read
// "sim: sim: ...", through New and in the service's 400 bodies alike.
func TestRefusalsCarryOneSimPrefix(t *testing.T) {
	check := func(name string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "sim: ") || strings.Count(msg, "sim:") != 1 || !strings.Contains(msg, want) ||
			strings.Contains(msg, "\n") {
			t.Errorf("%s: error %q, want one line with one leading \"sim: \" and a mention of %q", name, msg, want)
		}
	}
	workloads := []struct {
		w    sim.Workload
		want string
	}{
		{sim.Workload{Jobs: -1}, "Jobs"},
		{sim.Workload{Jobs: sim.MaxSpecJobs + 1}, "Jobs"},
		{sim.Workload{BoTFraction: 2}, "BoTFraction"},
		{sim.Workload{MinTaskLengthSec: 500, MaxTaskLengthSec: 100}, "MinTaskLengthSec"},
		{sim.Workload{MinTaskLengthSec: 7 * 3600}, "MaxTaskLengthSec"},
		{sim.Workload{MinTaskMemMB: 500, MaxTaskMemMB: 100}, "MinTaskMemMB"},
		{sim.Workload{MaxTaskMemMB: 5}, "MaxTaskMemMB"},
		{sim.Workload{BoTFraction: math.NaN()}, "BoTFraction"},
		{sim.Workload{ArrivalRate: math.NaN()}, "ArrivalRate"},
		{sim.Workload{MaxTaskLengthSec: math.NaN()}, "MaxTaskLengthSec"},
		{sim.Workload{MinTaskMemMB: math.NaN()}, "MinTaskMemMB"},
		{sim.Workload{PriorityChangeFraction: math.NaN()}, "PriorityChangeFraction"},
		{sim.Workload{ServiceFraction: math.NaN()}, "ServiceFraction"},
	}
	options := []struct {
		name string
		opt  sim.Option
		want string
	}{
		{"WithJobs(-1)", sim.WithJobs(-1), "WithJobs"},
		{"WithJobs(cap+1)", sim.WithJobs(sim.MaxSpecJobs + 1), "WithJobs"},
		{"WithPolicy(nil)", sim.WithPolicy(nil), "WithPolicy"},
		{"WithPolicyName", sim.WithPolicyName("nope"), `"nope"`},
		{"WithStorage(-1)", sim.WithStorage(-1), "WithStorage"},
		{"WithStorage(3)", sim.WithStorage(sim.StorageShared + 1), "WithStorage"},
		{"WithSharedStorage", sim.WithSharedStorage(sim.SharedNFS + 1), "WithSharedStorage"},
	}
	for _, c := range workloads {
		options = append(options, struct {
			name string
			opt  sim.Option
			want string
		}{fmt.Sprintf("WithWorkload(%+v)", c.w), sim.WithWorkload(c.w), c.want})
	}
	for _, c := range options {
		_, err := sim.New(c.opt)
		check("New "+c.name, err, c.want)
		_, err = sim.ScenarioByName("baseline-f3", c.opt)
		check("ScenarioByName "+c.name, err, c.want)
	}

	specs := []struct {
		name string
		sp   sim.JobSpec
		want string
	}{
		{"no scenario", sim.JobSpec{}, "scenario"},
		{"unknown scenario", sim.JobSpec{Scenario: "nope"}, `"nope"`},
		{"runs", sim.JobSpec{Scenario: "baseline-f3", Runs: sim.MaxSpecRuns + 1}, "runs"},
		{"negative jobs", sim.JobSpec{Scenario: "baseline-f3", Jobs: -1}, "jobs"},
		{"jobs cap", sim.JobSpec{Scenario: "baseline-f3", Jobs: sim.MaxSpecJobs + 1}, "jobs"},
		{"policy", sim.JobSpec{Scenario: "baseline-f3", Policy: "nope"}, `"nope"`},
	}
	for _, c := range workloads {
		w := c.w
		specs = append(specs, struct {
			name string
			sp   sim.JobSpec
			want string
		}{fmt.Sprintf("workload %+v", w), sim.JobSpec{Scenario: "baseline-f3", Workload: &w}, c.want})
	}
	for _, c := range specs {
		check("Validate "+c.name, c.sp.Validate(), c.want)
	}

	// Two refusals: one line, one prefix, each cause still reachable.
	_, err := sim.New(sim.WithStorage(9), sim.WithJobs(-2))
	check("New with two refusals", err, "WithStorage: unknown mode 9; WithJobs: negative count -2")
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("two refusals do not unwrap to their two causes: %v", err)
	}
	for _, cause := range joined.Unwrap() {
		if !errors.Is(err, cause) {
			t.Errorf("errors.Is does not reach %q", cause)
		}
	}
	if _, err := sim.GenerateTrace(sim.TraceConfig{Jobs: 3, ArrivalRate: math.NaN(), BoTFraction: 0.5}); err == nil ||
		!strings.Contains(err.Error(), "ArrivalRate") {
		t.Errorf("GenerateTrace with a NaN rate: %v, want a refusal naming ArrivalRate", err)
	}
}

// decodeSpec decodes a job spec strictly, as the simd service does.
func decodeSpec(data []byte) (sim.JobSpec, error) {
	var sp sim.JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sp)
	return sp, err
}

// FuzzJobSpec: Validate never panics on a decoded spec, and every spec
// that validates has a stable stored form. Its normalized bytes survive
// a decode and re-marshal unchanged, and its spec hash and first run key
// are the same before and after, so a replayed job addresses the cache
// exactly as its submission did.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"scenario":"baseline-f3"}`,
		`{"scenario":"baseline-f3","seed":18446744073709551615,"jobs":10,"runs":3,"policy":"Young","distributed":true}`,
		`{"scenario":"spot-market","workload":{"Jobs":5,"BoTFraction":-1,"ArrivalRate":1e-300}}`,
		`{"scenario":"hpc-long-jobs","seed":0,"runs":-4,"workload":{"MaxTaskLengthSec":10,"MinTaskLengthSec":20}}`,
		`{"scenario":"baseline-f3","runs":100001}`,
		`{"scenario":"baseline-f3","jobs":4611686018427387904}`,
		`{"scenario":"baseline-f3","workload":{"Jobs":1000001}}`,
		`{"scenario":"nope"}`,
		`{"scenario":"baseline-f3","extra":1}`,
		`{"scenario":1}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := decodeSpec(data)
		if err != nil || sp.Validate() != nil {
			return
		}
		raw, err := sp.MarshalNormalized()
		if err != nil {
			t.Fatalf("valid spec %s does not marshal: %v", data, err)
		}
		back, err := decodeSpec(raw)
		if err != nil {
			t.Fatalf("stored form %s does not decode: %v", raw, err)
		}
		if again, err := back.MarshalNormalized(); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("stored form changed on a round trip: %s -> %s (%v)", raw, again, err)
		}
		for _, c := range []struct {
			name string
			of   func(sim.JobSpec) (string, error)
		}{
			{"SpecHash", sim.JobSpec.SpecHash},
			{"RunKey(0)", func(sp sim.JobSpec) (string, error) { return sp.RunKey(0) }},
		} {
			want, err1 := c.of(sp)
			got, err2 := c.of(back)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("%s changed on a round trip of %s: %s (%v) -> %s (%v)", c.name, raw, want, err1, got, err2)
			}
		}
	})
}
