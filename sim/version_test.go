package sim

import (
	"context"
	"encoding/json"
	"testing"
)

func TestSpecHashCanonicalizesKeyOrderAndSource(t *testing.T) {
	a, err := SpecHash(map[string]any{"scenario": "baseline-f3", "seed": uint64(7), "runs": 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpecHash(map[string]any{"runs": 3, "seed": uint64(7), "scenario": "baseline-f3"})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("map key order changed the hash: %s vs %s", a, b)
	}
	type spec struct {
		Scenario string `json:"scenario"`
		Seed     uint64 `json:"seed"`
		Runs     int    `json:"runs"`
	}
	c, err := SpecHash(spec{Scenario: "baseline-f3", Seed: 7, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Errorf("struct and equivalent map hash differently: %s vs %s", a, c)
	}
	d, err := SpecHash(spec{Scenario: "baseline-f3", Seed: 8, Runs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Error("different seeds produced the same hash")
	}
}

func TestCanonicalJSONPreservesLargeIntegers(t *testing.T) {
	// 2^64-1 is not representable in float64; a naive round-trip
	// through interface{} would corrupt it.
	canon, err := CanonicalJSON([]byte(`{"b": 1, "a": 18446744073709551615}`))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":18446744073709551615,"b":1}`
	if string(canon) != want {
		t.Errorf("canonical form = %s, want %s", canon, want)
	}
}

func TestResultStampsEngineVersion(t *testing.T) {
	s, err := New(WithJobs(20))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineVersion != Version {
		t.Errorf("Result.EngineVersion = %q, want %q", res.EngineVersion, Version)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["engine_version"] != Version {
		t.Errorf(`result JSON "engine_version" = %v, want %q`, m["engine_version"], Version)
	}
}

func TestDeriveSeedMatchesRunSweepAssignment(t *testing.T) {
	s, err := New(WithJobs(10))
	if err != nil {
		t.Fatal(err)
	}
	runs := []Run{{Sim: s}, {Sim: s}, {Sim: s}}
	var seeds []uint64
	outs, err := RunSweep(context.Background(), runs, SweepOptions{
		BaseSeed: 99,
		Workers:  1,
		Observer: ObserverFuncs{OnStarted: func(info RunInfo) {
			seeds = append(seeds, info.Seed)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		want := DeriveSeed(99, i)
		if out.Seed != want {
			t.Errorf("run %d: sweep assigned seed %d, DeriveSeed says %d", i, out.Seed, want)
		}
		// The derived seed is the one the run executed under.
		pinned, err := RunSweep(context.Background(), []Run{Pin(s, want)}, SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(out.Result)
		b, _ := json.Marshal(pinned[0].Result)
		if string(a) != string(b) {
			t.Errorf("run %d: result differs from a run pinned to DeriveSeed(99, %d)", i, i)
		}
	}
	if len(seeds) != 3 {
		t.Errorf("observer saw %d runs, want 3", len(seeds))
	}
}

func TestDeriveSeedDeterministicAndDistinct(t *testing.T) {
	seen := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(42, i)
		if s != DeriveSeed(42, i) {
			t.Fatal("DeriveSeed not deterministic")
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", j, i)
		}
		seen[s] = i
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Fatal("base seed ignored")
	}
	// Cached results and resumed sweeps are addressed by these seeds, so
	// the rule itself is pinned.
	for _, c := range []struct {
		base  uint64
		index int
		want  uint64
	}{{42, 0, 0x57e1faba65107204}, {42, 1, 0xf4abd143feb24055}, {0, 0, 0xa706dd2f4d197e6f}} {
		if got := DeriveSeed(c.base, c.index); got != c.want {
			t.Errorf("DeriveSeed(%d, %d) = %#x, want %#x", c.base, c.index, got, c.want)
		}
	}
}
