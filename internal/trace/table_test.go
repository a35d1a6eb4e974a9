package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// tableTask is a hand-written task of job jobID at position idx.
func tableTask(id, jobID string, idx int, length float64) Task {
	return Task{
		ID: id, JobID: jobID, Index: idx, Priority: 3,
		LengthSec: length, MemMB: 100, FailureSeed: uint64(idx) + 1,
	}
}

// decodeLines decodes a JSON-lines trace into its job values, without
// going through the columns.
func decodeLines(t *testing.T, b []byte) []Job {
	t.Helper()
	var jobs []Job
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var j Job
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func TestTableHandlesAreDenseAndPositional(t *testing.T) {
	cfg := DefaultGenConfig(11, 40)
	cfg.PriorityChangeFraction = 0.3
	tr := Generate(cfg)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	jobs := decodeLines(t, buf.Bytes())

	if tr.NumJobs() != len(jobs) || len(tr.Arrival) != len(jobs) {
		t.Fatalf("NumJobs = %d, want %d", tr.NumJobs(), len(jobs))
	}
	h := uint32(0)
	for ji, job := range jobs {
		j := tr.Job(ji)
		if j != uint32(ji) {
			t.Fatalf("job %d has handle %d", ji, j)
		}
		first, limit := tr.TasksOf(j)
		if first != h || limit != h+uint32(len(job.Tasks)) {
			t.Fatalf("job %d task range [%d,%d), want [%d,%d)", ji, first, limit, h, h+uint32(len(job.Tasks)))
		}
		if tr.JobID(j) != job.ID || tr.Arrival[j] != job.ArrivalSec ||
			tr.Sequential[j] != (job.Structure == Sequential) || tr.JobPrio[j] != job.Priority {
			t.Fatalf("job %d column mismatch", ji)
		}
		for _, task := range job.Tasks {
			if tr.Task(h) != task || tr.TaskID(h) != task.ID {
				t.Fatalf("task handle %d is %+v, want %+v", h, tr.Task(h), task)
			}
			if int(tr.JobOf[h]) != ji {
				t.Fatalf("task handle %d JobOf = %d, want %d", h, tr.JobOf[h], ji)
			}
			if task.Change.Active() != (tr.ChangePrio[h] != 0) {
				t.Fatalf("task handle %d change column mismatch", h)
			}
			h++
		}
	}
	if int(h) != tr.NumTasks() || int(h) != len(tr.Len) {
		t.Fatalf("NumTasks = %d, want %d", tr.NumTasks(), h)
	}
}

// Handles are assigned by position, never by ID: a trace with duplicate
// task (and job) IDs still gets one distinct handle per task, where the
// old map-by-string engine state would have collided.
func TestTableDuplicateIDs(t *testing.T) {
	mk := func(jobID string, arrival float64) Job {
		return Job{
			ID: jobID, Structure: BagOfTasks, ArrivalSec: arrival, Priority: 3,
			Tasks: []Task{
				tableTask("dup", jobID, 0, 100),
				tableTask("dup", jobID, 1, 200),
			},
		}
	}
	tr := fromJobs(t, mk("j", 0), mk("j", 1))
	if tr.NumTasks() != 4 || tr.NumJobs() != 2 {
		t.Fatalf("got %d tasks / %d jobs", tr.NumTasks(), tr.NumJobs())
	}
	for h := uint32(0); h < 4; h++ {
		if tr.TaskID(h) != "dup" || tr.JobID(tr.JobOf[h]) != "j" {
			t.Fatalf("handle %d IDs %q of %q", h, tr.TaskID(h), tr.JobID(tr.JobOf[h]))
		}
		if want := uint32(h / 2); tr.JobOf[h] != want {
			t.Fatalf("handle %d JobOf = %d, want %d", h, tr.JobOf[h], want)
		}
	}
	if tr.Len[0] == tr.Len[1] {
		t.Fatal("duplicate-ID tasks collapsed onto one column entry")
	}
}

// Job IDs out of lexical order (arrival order is what Read checks) do
// not perturb handle assignment: handles follow trace position.
func TestTableOutOfOrderJobIDs(t *testing.T) {
	tr := fromJobs(t,
		Job{ID: "zz-late-name", Structure: Sequential, ArrivalSec: 0, Priority: 2,
			Tasks: []Task{tableTask("zz-late-name.t0", "zz-late-name", 0, 50)}},
		Job{ID: "aa-early-name", Structure: Sequential, ArrivalSec: 5, Priority: 2,
			Tasks: []Task{tableTask("aa-early-name.t0", "aa-early-name", 0, 60)}},
	)
	if tr.JobID(0) != "zz-late-name" || tr.JobID(1) != "aa-early-name" {
		t.Fatalf("handles reordered by ID: %q, %q", tr.JobID(0), tr.JobID(1))
	}
	if tr.Arrival[0] != 0 || tr.Arrival[1] != 5 {
		t.Fatal("arrival columns out of trace order")
	}
	if tr.Len[0] != 50 || tr.Len[1] != 60 {
		t.Fatal("task columns out of trace order")
	}
}

// A view shares its trace's columns instead of copying them, leaves the
// trace's serialization byte-identical, and serializes exactly the jobs
// it selects.
func TestTableInterningLeavesSerializationByteIdentical(t *testing.T) {
	cfg := DefaultGenConfig(13, 60)
	cfg.PriorityChangeFraction = 0.2
	tr := Generate(cfg)

	var before bytes.Buffer
	if err := tr.Write(&before); err != nil {
		t.Fatal(err)
	}
	batch := tr.BatchJobs()
	var after bytes.Buffer
	if err := tr.Write(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("serialization changed after taking a view")
	}
	if &batch.Len[0] != &tr.Len[0] || &batch.Arrival[0] != &tr.Arrival[0] {
		t.Fatal("view copied the columns")
	}
	if batch.NumJobs() == 0 || batch.NumJobs() == tr.NumJobs() {
		t.Fatalf("batch view selects %d of %d jobs", batch.NumJobs(), tr.NumJobs())
	}

	var want bytes.Buffer
	lines := bytes.SplitAfter(before.Bytes(), []byte("\n"))
	tasks := 0
	for j := uint32(0); int(j) < tr.NumJobs(); j++ {
		if !tr.IsService(j) {
			want.Write(lines[j])
			first, limit := tr.TasksOf(j)
			tasks += int(limit - first)
		}
	}
	var got bytes.Buffer
	if err := batch.Write(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("view does not serialize exactly its jobs")
	}
	if batch.NumTasks() != tasks {
		t.Fatalf("view NumTasks = %d, want %d", batch.NumTasks(), tasks)
	}
}
