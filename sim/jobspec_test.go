package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
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
