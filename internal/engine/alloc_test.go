package engine

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/trace"
)

// The three budgets below sit about 25% above the largest of 30
// readings each at GOMAXPROCS 1 and 2 (go test -count=30 -run Budget);
// the runs are deterministic, so the readings barely move.

// maxAllocsPerEvent is the engine's allocation budget, shared by three
// guards: the hot path runs at 0.0048 allocations per fired event on
// the default workload (798 over 165 512 events: event and placement
// pooling, one reusable callback per task, pooled storage ops, pooled
// run state, failure processes that keep no history), 0.0050 with
// non-blocking checkpoints and 0.0061 on the saturated dispatch trace
// (bench_test.go), the largest reading. The engine before pooling sat
// near 2.9.
const maxAllocsPerEvent = 0.0076

// maxBytesPerEvent is the companion bytes budget: with the columnar
// memory layout (handle-indexed slabs, pooled run state, slot-resident
// failure processes, one TaskOutcome per task written at completion)
// the engine allocates 5.12 bytes per fired event on the guard
// workload — almost all of it the one-time slab setup amortized over
// the run. A regression past this budget means per-task state went
// back to the heap.
const maxBytesPerEvent = 6.4

// maxPeakHeapBytes bounds the live heap during the guard workload
// (300-job default trace): the columnar engine peaks at 1.09–1.14 MB
// there (1.18 MB at GOMAXPROCS 4), most of it the trace and the
// outcome slab. A regression past
// this budget means the working set re-inflated.
const maxPeakHeapBytes = 1_425_000

// TestOutcomeRecordBudget pins the result records' sizes on 64-bit
// platforms, where one TaskOutcome per replayed task and one JobOutcome
// per job are most of a finished run's live heap. A record stores only
// what its run decided: TaskOutcome derives WallSec and WPR and packs
// its int8 priority beside UsedSharedStorage (144 bytes when both were
// stored and the priority was an int), and JobOutcome derives WallSec
// (104 bytes when stored).
func TestOutcomeRecordBudget(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(TaskOutcome{}); got != 120 {
		t.Errorf("TaskOutcome is %d bytes, want 120", got)
	}
	if got := unsafe.Sizeof(JobOutcome{}); got != 96 {
		t.Errorf("JobOutcome is %d bytes, want 96", got)
	}
}

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
		t.Errorf("engine hot path allocates %.4f per event, budget %.4f — a per-event allocation crept back in",
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
		t.Errorf("engine allocates %.1f bytes per event, budget %.1f — per-task state crept back onto the heap",
			perEvent, maxBytesPerEvent)
	}
	if peak > maxPeakHeapBytes {
		t.Errorf("peak heap %d bytes exceeds budget %d — the working set re-inflated", peak, maxPeakHeapBytes)
	}
}

// TestNonBlockingAllocBudget guards the async-checkpoint path, whose
// in-flight write records come from a slab that grows only on its
// high-water mark.
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
	if perEvent > maxAllocsPerEvent {
		t.Errorf("non-blocking path allocates %.4f per event, budget %.4f", perEvent, maxAllocsPerEvent)
	}
}

// maxSmallRunBytes bounds the bytes one small run allocates: a 20-job
// run (132 tasks, the size of a service run) allocates about 115 KB
// once its run state is sized to its task count; 4096 task-run slots
// alone would be about 1.5 MB. ~4x headroom.
const maxSmallRunBytes = 512 << 10

// TestSmallRunBytesBudget guards small runs against paying for run state
// sized for large ones.
func TestSmallRunBytesBudget(t *testing.T) {
	full := trace.Generate(trace.DefaultGenConfig(3, 20))
	replay := full.BatchJobs()
	est := trace.BuildEstimator(full, nil)
	cfg := Config{Seed: 3, Policy: core.MNOFPolicy{}}

	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := RunWithEstimatorContext(context.Background(), cfg, replay, est); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d tasks: %d bytes per run", replay.NumTasks(), perRun)
	if perRun > maxSmallRunBytes {
		t.Errorf("a %d-task run allocates %d bytes, budget %d — small runs pay for full-size run state",
			replay.NumTasks(), perRun, maxSmallRunBytes)
	}
}

// maxSaturatedRunBytesPerTask bounds what one Run of the saturated
// dispatch-storm regime allocates per replayed task. At 2000 jobs
// (23 977 tasks) most tasks wait queued at once: a Run allocates about
// 319 bytes per task, of which 120 are the task's outcome record and
// about 70 its share of plans and slots (10 267 plans of 48 bytes and
// 3 191 slots of 360 at the peaks). Giving every submitted task a full
// taskRun in 4096-entry chunks, as the engine once did, allocates
// about 678; a queued task holding a full taskRun instead of its plan
// would add about 130. The bound leaves about 15% headroom.
const maxSaturatedRunBytesPerTask = 368

// TestSaturatedRunStateBudget guards run state sized by running tasks:
// on a trace whose tasks mostly wait in the queue, a queued fresh task
// may hold only its plan.
func TestSaturatedRunStateBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory budget needs a full run")
	}
	full := trace.Generate(saturatedGen(3, 2000))
	replay := full.BatchJobs()
	est := trace.BuildEstimator(full, nil)
	cfg := Config{Seed: 3, Policy: core.MNOFPolicy{}}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := RunWithEstimatorContext(context.Background(), cfg, replay, est)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(replay.NumTasks())
	t.Logf("%d tasks, %d events: %.0f bytes per task", replay.NumTasks(), res.Events, perTask)
	if perTask > maxSaturatedRunBytesPerTask {
		t.Errorf("a saturated Run allocates %.0f bytes per task, budget %d — queued tasks hold more than their plans",
			perTask, maxSaturatedRunBytesPerTask)
	}
}
