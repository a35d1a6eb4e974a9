package trace

import (
	"bytes"
	"testing"
)

// buildTrace assembles a hand-written trace without going through the
// generator, so table tests control IDs and ordering exactly.
func tableTask(id, jobID string, idx int, length float64) *Task {
	return &Task{
		ID: id, JobID: jobID, Index: idx, Priority: 3,
		LengthSec: length, MemMB: 100, FailureSeed: uint64(idx) + 1,
	}
}

func TestTableHandlesAreDenseAndPositional(t *testing.T) {
	tr := Generate(DefaultGenConfig(11, 40))
	tb := BuildTable(tr)

	if tb.NumJobs() != len(tr.Jobs) {
		t.Fatalf("NumJobs = %d, want %d", tb.NumJobs(), len(tr.Jobs))
	}
	h := uint32(0)
	for ji, job := range tr.Jobs {
		first, limit := tb.TasksOf(uint32(ji))
		if first != h || limit != h+uint32(len(job.Tasks)) {
			t.Fatalf("job %d task range [%d,%d), want [%d,%d)", ji, first, limit, h, h+uint32(len(job.Tasks)))
		}
		if tb.Job(uint32(ji)) != job {
			t.Fatalf("job %d interning mismatch", ji)
		}
		if tb.Arrival[ji] != job.ArrivalSec || tb.Sequential[ji] != (job.Structure == Sequential) {
			t.Fatalf("job %d column mismatch", ji)
		}
		for _, task := range job.Tasks {
			if tb.Task(h) != task || tb.TaskID(h) != task.ID {
				t.Fatalf("task handle %d interning mismatch", h)
			}
			if tb.Len[h] != task.LengthSec || tb.Mem[h] != task.MemMB ||
				tb.Seed[h] != task.FailureSeed || int(tb.Prio[h]) != task.Priority {
				t.Fatalf("task handle %d column mismatch", h)
			}
			if int(tb.JobOf[h]) != ji {
				t.Fatalf("task handle %d JobOf = %d, want %d", h, tb.JobOf[h], ji)
			}
			if task.Change.Active() {
				if int(tb.ChangePrio[h]) != task.Change.NewPriority || tb.ChangeFrac[h] != task.Change.AtFraction {
					t.Fatalf("task handle %d change column mismatch", h)
				}
			} else if tb.ChangePrio[h] != 0 {
				t.Fatalf("task handle %d has phantom change", h)
			}
			h++
		}
	}
	if int(h) != tb.NumTasks() {
		t.Fatalf("NumTasks = %d, want %d", tb.NumTasks(), h)
	}
}

// Handles are assigned by position, never by ID: a trace with duplicate
// task (and job) IDs still gets one distinct handle per task, where the
// old map-by-string engine state would have collided.
func TestTableDuplicateIDs(t *testing.T) {
	mk := func(jobID string, arrival float64) *Job {
		return &Job{
			ID: jobID, Structure: BagOfTasks, ArrivalSec: arrival, Priority: 3,
			Tasks: []*Task{
				tableTask("dup", jobID, 0, 100),
				tableTask("dup", jobID, 1, 200),
			},
		}
	}
	tr := &Trace{Jobs: []*Job{mk("j", 0), mk("j", 1)}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tb := BuildTable(tr)
	if tb.NumTasks() != 4 || tb.NumJobs() != 2 {
		t.Fatalf("got %d tasks / %d jobs", tb.NumTasks(), tb.NumJobs())
	}
	seen := map[*Task]bool{}
	for h := uint32(0); h < 4; h++ {
		task := tb.Task(h)
		if seen[task] {
			t.Fatalf("handle %d aliases an earlier task object", h)
		}
		seen[task] = true
		if tb.TaskID(h) != "dup" {
			t.Fatalf("handle %d ID %q", h, tb.TaskID(h))
		}
	}
	if tb.Len[0] == tb.Len[1] {
		t.Fatal("duplicate-ID tasks collapsed onto one column entry")
	}
}

// Job IDs out of lexical order (arrival order is what Validate checks)
// do not perturb handle assignment: handles follow trace position.
func TestTableOutOfOrderJobIDs(t *testing.T) {
	tr := &Trace{Jobs: []*Job{
		{ID: "zz-late-name", Structure: Sequential, ArrivalSec: 0, Priority: 2,
			Tasks: []*Task{tableTask("zz-late-name.t0", "zz-late-name", 0, 50)}},
		{ID: "aa-early-name", Structure: Sequential, ArrivalSec: 5, Priority: 2,
			Tasks: []*Task{tableTask("aa-early-name.t0", "aa-early-name", 0, 60)}},
	}}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tb := BuildTable(tr)
	if tb.Job(0).ID != "zz-late-name" || tb.Job(1).ID != "aa-early-name" {
		t.Fatalf("handles reordered by ID: %q, %q", tb.Job(0).ID, tb.Job(1).ID)
	}
	if tb.Arrival[0] != 0 || tb.Arrival[1] != 5 {
		t.Fatal("arrival columns out of trace order")
	}
	if tb.Len[0] != 50 || tb.Len[1] != 60 {
		t.Fatal("task columns out of trace order")
	}
}

// Building a table (ID interning) must not perturb the trace it views:
// serialization before and after interning is byte-identical.
func TestTableInterningLeavesSerializationByteIdentical(t *testing.T) {
	cfg := DefaultGenConfig(13, 60)
	cfg.PriorityChangeFraction = 0.2
	tr := Generate(cfg)

	var before bytes.Buffer
	if err := tr.Write(&before); err != nil {
		t.Fatal(err)
	}
	tb := BuildTable(tr)
	var after bytes.Buffer
	if err := tr.Write(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("serialization changed after BuildTable")
	}
	if tb.NumTasks() == 0 {
		t.Fatal("empty table")
	}
}
