package sim_test

import (
	"context"
	"runtime"
	"testing"

	"repro/sim"
)

// maxRunBytesPerTask bounds what one Simulation.Run allocates per
// replayed task, trace generation and history estimation included. A
// 10 000-job baseline-f3 Run on one processor allocates about 538 bytes
// per task when the engine writes each task's TaskOutcome once and
// recycles failure-time backings. Allocating a backing per task takes
// it to about 616, and also copying the records in the facade to about
// 712. The bound sits below both, so either waste coming back fails.
const maxRunBytesPerTask = 600

// TestRunBytesPerTaskBudget regression-guards the facade's memory: the
// public Run may not add a second copy of the task records on top of
// the engine's.
func TestRunBytesPerTaskBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("memory budget needs a full run")
	}
	// One processor: the estimator build fans out over GOMAXPROCS
	// goroutines, each with its own accumulators.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	warm, err := sim.ScenarioByName("baseline-f3", sim.WithJobs(20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(ctx); err != nil { // lazily built tables
		t.Fatal(err)
	}
	s, err := sim.ScenarioByName("baseline-f3", sim.WithJobs(10000), sim.WithSeed(20130601))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := s.Run(ctx)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Summary.Tasks)
	t.Logf("%d bytes over %d tasks = %.0f bytes/task", after.TotalAlloc-before.TotalAlloc, res.Summary.Tasks, perTask)
	if perTask > maxRunBytesPerTask {
		t.Errorf("Simulation.Run allocates %.0f bytes per task, budget %d — task records are copied or per-task state is back on the heap",
			perTask, maxRunBytesPerTask)
	}
}
