package engine

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// maxAllocsPerEvent is the engine's allocation budget: the hot path
// runs at ~0.11 allocations per fired event after the PR-3 overhaul
// (event and placement pooling, one reusable callback per task, pooled
// storage ops). The pre-overhaul engine sat near 2.9. The guard leaves
// ~3x headroom for incidental churn while catching any change that
// reintroduces a per-event allocation (+1.0 or more).
const maxAllocsPerEvent = 0.35

// maxBytesPerEvent is the companion bytes budget: after the columnar
// memory-layout overhaul (handle-indexed slabs, chunked run state,
// slab-resident failure processes) the engine allocates ~10 bytes per
// fired event on the guard workload — almost all of it the one-time
// table/slab setup amortized over the run. ~4x headroom; a regression
// past this budget means per-task state went back to the heap.
const maxBytesPerEvent = 40

// maxPeakHeapBytes bounds the live heap during the guard workload
// (300-job default trace): the columnar engine peaks around 2.7 MB
// there, most of it the trace and the result slabs. ~4x headroom; a
// regression past this budget means the working set re-inflated.
const maxPeakHeapBytes = 12 << 20

// TestRunAllocBudget regression-guards the event loop: a full engine
// run over the default workload must stay under maxAllocsPerEvent.
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a full run")
	}
	full := trace.Generate(trace.DefaultGenConfig(3, 300))
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
		t.Errorf("engine hot path allocates %.4f per event, budget %.2f — a per-event allocation crept back in",
			perEvent, maxAllocsPerEvent)
	}
}

// TestRunBytesAndPeakHeapBudget regression-guards the memory layout:
// total bytes allocated per fired event and the peak live heap must
// stay within the columnar engine's budgets. It complements the
// allocation-count guard — a change can keep allocs flat while fattening
// objects (bytes/event catches it) or keep churn low while pinning
// slabs too long (peak heap catches it).
func TestRunBytesAndPeakHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory budget needs a full run")
	}
	full := trace.Generate(trace.DefaultGenConfig(3, 300))
	replay := full.BatchJobs()
	est := trace.BuildEstimator(full, nil)

	var peak uint64
	var ms runtime.MemStats
	cfg := Config{Seed: 3, Policy: core.MNOFPolicy{},
		ProgressEvery: 4096,
		Progress: func(events uint64, simNow float64) {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
		},
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunWithEstimatorContext(context.Background(), cfg, replay, est)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("run fired no events")
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Events)
	t.Logf("%d bytes over %d events = %.1f bytes/event; peak heap %d bytes",
		after.TotalAlloc-before.TotalAlloc, res.Events, perEvent, peak)
	if perEvent > maxBytesPerEvent {
		t.Errorf("engine allocates %.1f bytes per event, budget %d — per-task state crept back onto the heap",
			perEvent, maxBytesPerEvent)
	}
	if peak > maxPeakHeapBytes {
		t.Errorf("peak heap %d bytes exceeds budget %d — the working set re-inflated", peak, maxPeakHeapBytes)
	}
}

// TestNonBlockingAllocBudget guards the async-checkpoint path, which
// legitimately allocates one in-flight write record per checkpoint but
// must not regress beyond that.
func TestNonBlockingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a full run")
	}
	full := trace.Generate(trace.DefaultGenConfig(3, 300))
	replay := full.BatchJobs()
	est := trace.BuildEstimator(full, nil)
	cfg := Config{Seed: 3, Policy: core.MNOFPolicy{}, NonBlockingCheckpoints: true}

	var events uint64
	allocs := testing.AllocsPerRun(3, func() {
		res, err := RunWithEstimatorContext(context.Background(), cfg, replay, est)
		if err != nil {
			t.Fatal(err)
		}
		events = res.Events
	})
	perEvent := allocs / float64(events)
	t.Logf("%.0f allocs over %d events = %.4f allocs/event", allocs, events, perEvent)
	if perEvent > 2*maxAllocsPerEvent {
		t.Errorf("non-blocking path allocates %.4f per event, budget %.2f", perEvent, 2*maxAllocsPerEvent)
	}
}
