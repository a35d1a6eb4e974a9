package benchkit

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// TestRunSmallMatrix exercises a tiny matrix end to end and checks the
// report invariants the JSON consumers rely on.
func TestRunSmallMatrix(t *testing.T) {
	cfg := Config{
		Scenarios:    []string{"baseline-f3", "no-checkpoint"},
		Scales:       []int{50, 100},
		Seed:         11,
		SkipBaseline: true,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, SchemaVersion)
	}
	if got, want := len(rep.Results), 4; got != want {
		t.Fatalf("got %d results, want %d", got, want)
	}
	for _, m := range rep.Results {
		if m.Error != "" {
			t.Fatalf("%s @ %d: %s", m.Scenario, m.Jobs, m.Error)
		}
		if m.Events == 0 || m.NsPerOp <= 0 || m.EventsPerSec <= 0 {
			t.Errorf("%s @ %d: empty measurement %+v", m.Scenario, m.Jobs, m)
		}
		if m.AllocsPerOp == 0 || m.BytesPerOp == 0 {
			t.Errorf("%s @ %d: allocation counters not captured", m.Scenario, m.Jobs)
		}
		if m.JobsReplayed == 0 || m.JobsReplayed > m.Jobs || m.Tasks < m.JobsReplayed {
			t.Errorf("%s @ %d: implausible replay size %d jobs / %d tasks",
				m.Scenario, m.Jobs, m.JobsReplayed, m.Tasks)
		}
	}
	if rep.Baseline != nil {
		t.Error("SkipBaseline did not suppress the budget cell")
	}
}

// TestReportRecordsGCSettings: the report records the GC settings in
// effect, however they were set, and omits them at the defaults.
func TestReportRecordsGCSettings(t *testing.T) {
	cfg := Config{Scenarios: []string{"baseline-f3"}, Scales: []int{50}, Seed: 11, SkipBaseline: true}
	prev := debug.SetGCPercent(400)
	defer debug.SetGCPercent(prev)
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(math.MaxInt64))
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOGC == nil || *rep.GOGC != 400 || rep.MemLimitBytes != nil {
		t.Errorf("under GOGC 400 the report records gogc %v, mem_limit_bytes %v; want 400 and no limit", show(rep.GOGC), show(rep.MemLimitBytes))
	}
	debug.SetGCPercent(100)
	if rep, err = Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if rep.GOGC != nil {
		t.Errorf("at the default GOGC the report records gogc %v, want it omitted", *rep.GOGC)
	}
}

// TestGCSettingsRecordZero: GOGC=0 and GOMEMLIMIT=0 are recorded as 0,
// not omitted as the defaults are. No cell runs while they are set: a
// zero percent or limit collects continuously.
func TestGCSettingsRecordZero(t *testing.T) {
	prevPercent := debug.SetGCPercent(0)
	prevLimit := debug.SetMemoryLimit(0)
	gogc, limit := gcSettings()
	debug.SetMemoryLimit(prevLimit)
	debug.SetGCPercent(prevPercent)
	if gogc == nil || *gogc != 0 || limit == nil || *limit != 0 {
		t.Errorf("under GOGC=0 and GOMEMLIMIT=0 the report records gogc %v, mem_limit_bytes %v; want 0 and 0", show(gogc), show(limit))
	}
}

// show prints an optional setting, "omitted" when it is nil.
func show[T any](p *T) string {
	if p == nil {
		return "omitted"
	}
	return fmt.Sprint(*p)
}

// TestCPUProfilePerCell: with CPUProfileDir set, a run leaves exactly
// one non-empty <scenario>@<jobs>.pprof per cell, extra cells included.
func TestCPUProfilePerCell(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Scenarios:     []string{"baseline-f3", "no-checkpoint"},
		Scales:        []int{50, 100},
		ExtraCells:    []Cell{{Scenario: "spot-market", Jobs: 60}},
		Seed:          11,
		SkipBaseline:  true,
		CPUProfileDir: dir,
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range rep.Results {
		if m.Error != "" {
			t.Fatalf("%s @ %d: %s", m.Scenario, m.Jobs, m.Error)
		}
		want[fmt.Sprintf("%s@%d.pprof", m.Scenario, m.Jobs)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("%d files for %d cells", len(entries), len(want))
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("unexpected file %s", e.Name())
			continue
		}
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", e.Name())
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("no profile %s", name)
	}
}

// TestRunDeterministicAnchors verifies the drift anchors: two runs of
// the same cell must agree on events, makespan, and WPR exactly.
func TestRunDeterministicAnchors(t *testing.T) {
	cfg := Config{
		Scenarios:    []string{"baseline-f3"},
		Scales:       []int{80},
		Seed:         5,
		SkipBaseline: true,
	}
	a, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := a.Results[0], b.Results[0]
	if ma.Events != mb.Events || ma.MakespanSec != mb.MakespanSec || ma.MeanWPR != mb.MeanWPR {
		t.Errorf("anchors drifted between identical runs:\n%+v\n%+v", ma, mb)
	}
}

// TestUnknownScenarioFails pins the only whole-run failure mode.
func TestUnknownScenarioFails(t *testing.T) {
	_, err := Run(context.Background(), Config{Scenarios: []string{"no-such"}, Scales: []int{10}})
	if err == nil {
		t.Fatal("unknown scenario did not fail the run")
	}
}

// TestReportMarshalStable ensures the JSON field set matches the schema
// the docs promise (spot-checking the load-bearing keys).
func TestReportMarshalStable(t *testing.T) {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Baseline:      &AllocBaseline{PrePRAllocsPerOp: PrePRAllocsPerOp},
		Results:       []Measurement{{Scenario: "baseline-f3", Jobs: 10}},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "go_version", "scales", "alloc_baseline", "results"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report JSON lost key %q", key)
		}
	}
	res := m["results"].([]any)[0].(map[string]any)
	for _, key := range []string{"scenario", "jobs", "ns_per_op", "allocs_per_op", "events_per_sec", "peak_heap_bytes",
		"queue_rebuilds", "queue_bucket_appends", "queue_top_appends", "queue_replaced", "queue_spill_pushes", "queue_sorted",
		"peak_live_slots", "peak_queued_plans"} {
		if _, ok := res[key]; !ok {
			t.Errorf("measurement JSON lost key %q", key)
		}
	}
}
