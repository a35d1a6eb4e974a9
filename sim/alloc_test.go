package sim_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"repro/sim"
)

// maxRunBytesPerTask bounds what one Simulation.Run allocates per
// replayed task, trace generation and history estimation included. A
// 10 000-job baseline-f3 Run on one processor allocates about 342 bytes
// per task when the trace is generated straight into its columns and
// the engine reads them in place. Generating Task objects and copying
// their fields into a per-run column table, as the simulator once did,
// takes it to about 538. The bound leaves about 10% headroom, so even
// the per-run column copy alone (about 50 bytes per task) fails it.
const maxRunBytesPerTask = 380

// TestRunBytesPerTaskBudget regression-guards the facade's memory: the
// public Run may not add a second copy of the trace or of the task
// records.
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

// TestTraceNumTasksAllocatesNothing: counting a trace's tasks reads a
// stored count, for a generated trace and for one read back alike.
func TestTraceNumTasksAllocatesNothing(t *testing.T) {
	tr, err := sim.GenerateTrace(sim.DefaultTraceConfig(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := sim.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if allocs := testing.AllocsPerRun(100, func() { n = tr.NumTasks() + back.NumTasks() }); allocs != 0 {
		t.Errorf("NumTasks allocates %v times per call pair", allocs)
	}
	// Summary walks every task instead of reading the count.
	if want := tr.Summary().Tasks + back.Summary().Tasks; n != want || tr.NumTasks() <= tr.NumJobs() {
		t.Errorf("NumTasks: generated %d, read back %d; want a sum of %d, more tasks than the %d jobs",
			tr.NumTasks(), back.NumTasks(), want, tr.NumJobs())
	}
}
