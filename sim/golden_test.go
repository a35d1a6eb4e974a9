package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/sim"
)

// The pins below are the bytes Version 7.0.0 produces. Any change to
// them — a moved JSON key, a reordered task record, a different float
// sum — is a change to what archived results and cache keys mean, and
// must come with a Version bump.

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenResultBytes pins the JSON bytes of one small run with host
// crashes: job and task records, their order, and the summary.
func TestGoldenResultBytes(t *testing.T) {
	s, err := sim.ScenarioByName("hostfail-storm", sim.WithJobs(80), sim.WithSeed(7))
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
	const want = "49b5ca97ac9239200cbce3ca180ee7e710d4700de39b273ab1fd169b7a6b1a78"
	if got := sha(b); got != want {
		t.Errorf("json.Marshal(Result) SHA-256 = %s, want %s (%d bytes)", got, want, len(b))
	}
}

// TestGoldenJobSpecWithWorkload pins the stored form and the content
// addresses of a spec that sets every Workload field: the workload's
// JSON keys are its Go field names, so renaming a field moves every
// cache key.
func TestGoldenJobSpecWithWorkload(t *testing.T) {
	sp := sim.JobSpec{
		Scenario: "spot-market",
		Seed:     11,
		Runs:     2,
		Workload: &sim.Workload{
			Jobs:                   40,
			ArrivalRate:            0.2,
			BoTFraction:            0.6,
			MaxTaskLengthSec:       5000,
			MinTaskLengthSec:       60,
			MaxTaskMemMB:           2048,
			MinTaskMemMB:           32,
			PriorityChangeFraction: 0.25,
			ServiceFraction:        -1,
		},
	}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	raw, err := sp.MarshalNormalized()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sp.SpecHash()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sp.RunKey(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"MarshalNormalized", string(raw), `{"runs":2,"scenario":"spot-market","seed":11,"workload":{"ArrivalRate":0.2,"BoTFraction":0.6,"Jobs":40,"MaxTaskLengthSec":5000,"MaxTaskMemMB":2048,"MinTaskLengthSec":60,"MinTaskMemMB":32,"PriorityChangeFraction":0.25,"ServiceFraction":-1}}`},
		{"SpecHash", hash, "78b49d0655724340a040b46d3035bdd2fe34cb2dc8ddcab71c3dda619ce97a45"},
		{"RunKey(0)", key, "93dbd61f1ce4687c5aafd722d7ec9810aca2b1f0a99ae7d44edf5ace617f0e0a"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestGoldenCurveJSON pins the JSON shape of an experiment's plottable
// curves: objects keyed "series" and "points", each point keyed "x"
// and "y", series sorted by name.
func TestGoldenCurveJSON(t *testing.T) {
	res, err := sim.RunExperiment(context.Background(), "fig14", sim.ExperimentOptions{Seed: 3, Jobs: 200, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.CurveData)
	if err != nil {
		t.Fatal(err)
	}
	var curves []map[string]json.RawMessage
	if err := json.Unmarshal(b, &curves); err != nil {
		t.Fatal(err)
	}
	if len(curves) == 0 {
		t.Fatal("fig14 has no curves")
	}
	var series []string
	for _, c := range curves {
		if got := keys(c); !reflect.DeepEqual(got, []string{"points", "series"}) {
			t.Fatalf("curve keys = %v, want points and series", got)
		}
		var name string
		var points []map[string]json.RawMessage
		if json.Unmarshal(c["series"], &name) != nil || json.Unmarshal(c["points"], &points) != nil || len(points) == 0 {
			t.Fatalf("curve %s does not decode", b)
		}
		series = append(series, name)
		for _, p := range points {
			if got := keys(p); !reflect.DeepEqual(got, []string{"x", "y"}) {
				t.Fatalf("point keys = %v, want x and y", got)
			}
		}
	}
	if !sort.StringsAreSorted(series) {
		t.Errorf("series %v not sorted", series)
	}
	const want = "f5a8aa437383fa1c3f92347c5d6e6bbee248166b821b1bfda68b282ae8329dc2"
	if got := sha(b); got != want {
		t.Errorf("fig14 curves SHA-256 = %s, want %s", got, want)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
