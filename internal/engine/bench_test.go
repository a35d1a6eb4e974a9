package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// benchTrace generates the default workload at the given size once per
// benchmark; the engine replays the batch tier, mirroring the paper's
// methodology (and benchkit's).
func benchTrace(b *testing.B, jobs int) *trace.Trace {
	b.Helper()
	return trace.Generate(trace.DefaultGenConfig(7, jobs)).BatchJobs()
}

// saturatedGen is the dispatch-storm regime: short bag-of-tasks work
// arriving eight times faster than the default, so the cluster
// saturates, the pending queue stays thousands of tasks deep, and
// every task completion triggers a dispatch pass over it. This is the
// regime the indexed dispatch path (host tournament tree + demand-
// indexed queue + saturation early-exit) exists for.
func saturatedGen(seed uint64, jobs int) trace.GenConfig {
	cfg := trace.DefaultGenConfig(seed, jobs)
	cfg.ArrivalRate = 0.96
	cfg.BoTFraction = 0.95
	cfg.MaxTaskLengthSec = 1800
	cfg.ServiceFraction = -1
	return cfg
}

func benchRunGen(b *testing.B, gen trace.GenConfig) {
	full := trace.Generate(gen)
	replay := full.BatchJobs()
	est := trace.BuildEstimator(full, nil)
	cfg := Config{Seed: gen.Seed, Policy: core.MNOFPolicy{}}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := RunWithEstimatorContext(context.Background(), cfg, replay, est)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

func benchRun(b *testing.B, jobs int) {
	benchRunGen(b, trace.DefaultGenConfig(7, jobs))
}

// BenchmarkRun1k runs the headline configuration over a 1k-job trace.
func BenchmarkRun1k(b *testing.B) { benchRun(b, 1000) }

// BenchmarkRun10k runs the headline configuration over a 10k-job trace
// — the scale the allocation-regression budget is pinned at.
func BenchmarkRun10k(b *testing.B) { benchRun(b, 10000) }

// BenchmarkDispatchSaturated1k runs the saturated dispatch-storm
// regime: before the indexed dispatch path this cell was queue-scan
// bound (~130k events/s against ~2M for the same trace size under the
// default arrival rate).
func BenchmarkDispatchSaturated1k(b *testing.B) { benchRunGen(b, saturatedGen(7, 1000)) }

// TestDispatchSaturatedAllocBudget extends the PR-3 allocation budget
// to the saturated-queue regime: dispatch passes over a deep pending
// queue must stay on the pooled/indexed path, allocating only on the
// queue's high-water growth. It shares maxAllocsPerEvent with
// TestRunAllocBudget so the indexed structures cannot silently
// reintroduce a per-event (or per-scan) allocation.
func TestDispatchSaturatedAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a full run")
	}
	full := trace.Generate(saturatedGen(3, 400))
	replay := full.BatchJobs()
	est := trace.BuildEstimator(full, nil)
	cfg := Config{Seed: 3, Policy: core.MNOFPolicy{}}

	var events uint64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := RunWithEstimatorContext(context.Background(), cfg, replay, est)
		if err != nil {
			t.Fatal(err)
		}
		events = res.Events
	})
	if events == 0 {
		t.Fatal("run fired no events")
	}
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs over %d events = %.4f allocs/event", allocs, events, perEvent)
	if perEvent > maxAllocsPerEvent {
		t.Errorf("saturated dispatch allocates %.4f per event, budget %.4f — the dispatch pass is allocating again",
			perEvent, maxAllocsPerEvent)
	}
}

// BenchmarkTraceGenerate10k measures the synthetic generator alone.
func BenchmarkTraceGenerate10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trace.Generate(trace.DefaultGenConfig(7, 10000))
	}
}

// BenchmarkRun100k runs the headline configuration over a 100k-job
// trace — the tier whose per-event cost used to cliff ~9x over 10k
// (estimator scans growing with trace size plus the pointer-graph
// working set) and now matches the smaller tiers.
func BenchmarkRun100k(b *testing.B) { benchRun(b, 100000) }
