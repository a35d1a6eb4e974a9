package repro

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/predict"
	"repro/internal/trace"
)

// TestEndToEndPipeline exercises the full reproduction pipeline the way
// the cloudsim CLI does: generate a trace, persist and reload it, build
// history estimates, run both formulas, and verify the headline shape.
func TestEndToEndPipeline(t *testing.T) {
	tr := trace.Generate(trace.DefaultGenConfig(777, 600))

	// Persist to disk and reload: the replayed workload must survive
	// serialization bit-for-bit.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	reloaded, err := trace.Read(g)
	if err != nil {
		t.Fatal(err)
	}

	est := trace.BuildEstimator(reloaded, trace.DefaultLengthLimits)
	replay := reloaded.BatchJobs()

	f3, err := engine.RunWithEstimatorContext(context.Background(), engine.Config{
		Seed: 777, Policy: core.MNOFPolicy{},
	}, replay, est)
	if err != nil {
		t.Fatal(err)
	}
	young, err := engine.RunWithEstimatorContext(context.Background(), engine.Config{
		Seed: 777, Policy: core.YoungPolicy{},
	}, replay, est)
	if err != nil {
		t.Fatal(err)
	}

	wprF3 := f3.MeanWPR(engine.WithFailures)
	wprYoung := young.MeanWPR(engine.WithFailures)
	if !(wprF3 > wprYoung) {
		t.Errorf("headline shape violated end to end: F3 %v vs Young %v", wprF3, wprYoung)
	}
	if wprF3 < 0.5 || wprF3 > 1 {
		t.Errorf("implausible WPR %v", wprF3)
	}
}

// TestExperimentRegistryMatchesBenchmarks ensures every benchmark's
// experiment id exists — the bench harness and registry must not drift.
func TestExperimentRegistryMatchesBenchmarks(t *testing.T) {
	wanted := []string{
		"fig4", "fig5", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "table2", "table3", "table4", "table5", "table6",
		"table7", "ablation-daly", "ablation-storage", "ablation-theorem2",
		"ablation-prediction", "ablation-hostfail", "ablation-nonblocking",
	}
	names := make(map[string]bool)
	for _, n := range experiments.Names() {
		names[n] = true
	}
	for _, id := range wanted {
		if !names[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(names) != len(wanted) {
		t.Errorf("registry has %d experiments, benchmarks cover %d", len(names), len(wanted))
	}
}

// TestWorkloadPredictionPipeline trains the job parser on one trace and
// applies it to another, as a deployment would.
func TestWorkloadPredictionPipeline(t *testing.T) {
	trainTrace := trace.Generate(trace.DefaultGenConfig(100, 800)).BatchJobs()
	applyTrace := trace.Generate(trace.DefaultGenConfig(200, 300))

	parser, err := predict.TrainRegression(trainTrace.Tasks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	mare := predict.Evaluate(parser, applyTrace.BatchJobs().Tasks())
	if math.IsNaN(mare) || mare > 0.3 {
		t.Fatalf("cross-trace prediction error %v", mare)
	}

	est := trace.BuildEstimator(applyTrace, trace.DefaultLengthLimits)
	res, err := engine.RunWithEstimatorContext(context.Background(), engine.Config{
		Seed: 200, Policy: core.MNOFPolicy{}, Predictor: parser,
	}, applyTrace.BatchJobs(), est)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanWPR(nil) <= 0.5 {
		t.Fatalf("predicted-planning WPR %v implausibly low", res.MeanWPR(nil))
	}
}

// TestCSVExportEndToEnd runs a figure experiment and exports its curves.
func TestCSVExportEndToEnd(t *testing.T) {
	res, err := experiments.Fig9(experiments.Opts{Seed: 5, Jobs: 300})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := experiments.WriteCurvesCSV(&buf, res.Curves()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 200 {
		t.Fatalf("CSV export too small: %d bytes", buf.Len())
	}
}
