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
// 10 000-job baseline-f3 Run on one processor allocates about 218 bytes
// per task when the trace is generated straight into its columns, the
// engine reads them in place, holds run state only for live tasks and
// keeps no failure-time history, the Result hands out the engine's own
// job records, and a task record stores no value it derives (120 bytes
// instead of 144). Storing a record's WallSec and WPR again takes it to
// about 243; run state in 4096-task chunks and failure processes that
// record every failure time, as the engine once had, to about 330;
// copying every job record into a second slice as well, as the facade
// once did, to about 342; generating Task objects and copying their
// fields into a per-run column table, as the simulator once did, to
// about 538. The bound leaves about 10% headroom: a per-run column copy
// (about 50 bytes per task), a second copy of the trace (about 66) or
// of the task records (120) exceeds it.
const maxRunBytesPerTask = 240

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
