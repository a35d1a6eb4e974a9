package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/stats"
)

// fromJobs builds a trace from hand-written jobs through the JSON-lines
// boundary, the one way in besides Generate.
func fromJobs(t *testing.T, jobs ...Job) *Trace {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range jobs {
		if err := enc.Encode(&jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// roundTrip writes tr and reads it back, which validates every job.
func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("trace does not read back: %v", err)
	}
	return got
}

// sameTrace fails unless a and b select the same jobs and tasks.
func sameTrace(t *testing.T, a, b *Trace) {
	t.Helper()
	if a.NumJobs() != b.NumJobs() || a.NumTasks() != b.NumTasks() {
		t.Fatalf("traces hold %d/%d vs %d/%d jobs/tasks", a.NumJobs(), a.NumTasks(), b.NumJobs(), b.NumTasks())
	}
	for i := 0; i < a.NumJobs(); i++ {
		ja, jb := a.Job(i), b.Job(i)
		if a.JobID(ja) != b.JobID(jb) || a.Arrival[ja] != b.Arrival[jb] ||
			a.Sequential[ja] != b.Sequential[jb] || a.JobPrio[ja] != b.JobPrio[jb] {
			t.Fatalf("job %d differs", i)
		}
		fa, la := a.TasksOf(ja)
		fb, lb := b.TasksOf(jb)
		if la-fa != lb-fb {
			t.Fatalf("job %d has %d vs %d tasks", i, la-fa, lb-fb)
		}
		for k := uint32(0); k < la-fa; k++ {
			if a.Task(fa+k) != b.Task(fb+k) {
				t.Fatalf("task %d.%d differs: %+v vs %+v", i, k, a.Task(fa+k), b.Task(fb+k))
			}
		}
	}
}

func testTrace(t *testing.T, jobs int) *Trace {
	t.Helper()
	tr := Generate(DefaultGenConfig(1, jobs))
	roundTrip(t, tr)
	return tr
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultGenConfig(7, 100))
	b := Generate(DefaultGenConfig(7, 100))
	sameTrace(t, a, b)
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(DefaultGenConfig(1, 50))
	b := Generate(DefaultGenConfig(2, 50))
	same := 0
	for i := range a.Arrival {
		if a.Arrival[i] == b.Arrival[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("%d/50 identical arrivals across different seeds", same)
	}
}

func TestGenerateStructureMix(t *testing.T) {
	tr := testTrace(t, 2000)
	bot := 0
	for j := uint32(0); int(j) < tr.NumJobs(); j++ {
		if !tr.Sequential[j] {
			bot++
			if first, limit := tr.TasksOf(j); limit-first < 2 {
				t.Fatalf("BoT job %s has %d tasks", tr.JobID(j), limit-first)
			}
		}
	}
	frac := float64(bot) / float64(tr.NumJobs())
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("BoT fraction = %v, want ~0.45", frac)
	}
}

func TestGenerateArrivalsOrdered(t *testing.T) {
	tr := testTrace(t, 500)
	prev := 0.0
	for _, a := range tr.Arrival {
		if a < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = a
	}
	// Mean inter-arrival should approximate 1/rate.
	rate := DefaultGenConfig(1, 1).ArrivalRate
	meanGap := tr.Arrival[len(tr.Arrival)-1] / float64(len(tr.Arrival))
	if meanGap < 0.5/rate || meanGap > 2/rate {
		t.Fatalf("mean inter-arrival %v, want ~%v", meanGap, 1/rate)
	}
}

// Figure 8 calibration: most jobs short with small memory; memory within
// [10, 1000] MB; lengths within [30 s, 6 h]; medians in the right decade.
func TestGenerateFigure8Calibration(t *testing.T) {
	// The experiment workload (batch jobs) matches Figure 8; the
	// long-running service tier exists only to feed history statistics.
	tr := testTrace(t, 3000).BatchJobs()
	var lens, mems []float64
	for h := range tr.Tasks() {
		lens = append(lens, tr.Len[h])
		mems = append(mems, tr.Mem[h])
	}
	ls, ms := stats.Summarize(lens), stats.Summarize(mems)
	if ls.Min < 30 || ls.Max > 6*3600 {
		t.Fatalf("length range [%v, %v] outside [30, 21600]", ls.Min, ls.Max)
	}
	if ms.Min < 10 || ms.Max > 1000 {
		t.Fatalf("memory range [%v, %v] outside [10, 1000]", ms.Min, ms.Max)
	}
	if ls.Median < 150 || ls.Median > 900 {
		t.Fatalf("median task length %v, want a few hundred seconds", ls.Median)
	}
	if ms.Median < 60 || ms.Median > 300 {
		t.Fatalf("median memory %v MB, want ~100-200", ms.Median)
	}
}

func TestGeneratePriorityMixSkipsEmptyTiers(t *testing.T) {
	tr := testTrace(t, 2000)
	counts := make(map[int]int)
	for _, p := range tr.JobPrio {
		counts[p]++
	}
	for _, p := range []int{4, 8, 11, 12} {
		if counts[p] != 0 {
			t.Fatalf("priority %d should be absent (paper Figure 10), got %d jobs", p, counts[p])
		}
	}
	for _, p := range []int{1, 2, 7, 10} {
		if counts[p] == 0 {
			t.Fatalf("priority %d absent; Table 7 priorities must be populated", p)
		}
	}
}

func TestGeneratePriorityChanges(t *testing.T) {
	cfg := DefaultGenConfig(3, 500)
	cfg.PriorityChangeFraction = 1.0
	tr := Generate(cfg)
	roundTrip(t, tr)
	// Priority flips apply to the batch workload; services keep theirs.
	for h := range tr.BatchJobs().Tasks() {
		task := tr.Task(h)
		if !task.Change.Active() {
			t.Fatal("task missing priority change at fraction 1.0")
		}
		if task.Change.AtFraction != 0.5 {
			t.Fatalf("change fraction = %v, want 0.5", task.Change.AtFraction)
		}
	}
}

// TestGeneratePanics: each generator precondition is refused by
// Validate with an error naming its field, and Generate panics with
// that error rather than generating.
func TestGeneratePanics(t *testing.T) {
	for _, c := range []struct {
		cfg   GenConfig
		field string
	}{
		{GenConfig{Jobs: 0, ArrivalRate: 1}, "Jobs"},
		{GenConfig{Jobs: -3, ArrivalRate: 1}, "Jobs"},
		{GenConfig{Jobs: 1, ArrivalRate: 0}, "ArrivalRate"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, BoTFraction: 2}, "BoTFraction"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, BoTFraction: -0.5}, "BoTFraction"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MinTaskLengthSec: 100, MaxTaskLengthSec: 50}, "MinTaskLengthSec"},
		// A zero bound takes its default: a 7 h floor under the 6 h ceiling.
		{GenConfig{Jobs: 1, ArrivalRate: 1, MinTaskLengthSec: 7 * 3600}, "MaxTaskLengthSec"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MinTaskMemMB: 500, MaxTaskMemMB: 100}, "MinTaskMemMB"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MaxTaskMemMB: 5}, "MaxTaskMemMB"},
		// NaN passes every comparison, so each float field is checked.
		{GenConfig{Jobs: 3, ArrivalRate: math.NaN(), BoTFraction: 0.5}, "ArrivalRate"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, BoTFraction: math.NaN()}, "BoTFraction"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MaxTaskLengthSec: math.NaN()}, "MaxTaskLengthSec"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MinTaskLengthSec: math.NaN()}, "MinTaskLengthSec"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MaxTaskMemMB: math.NaN()}, "MaxTaskMemMB"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, MinTaskMemMB: math.NaN()}, "MinTaskMemMB"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, PriorityChangeFraction: math.NaN()}, "PriorityChangeFraction"},
		{GenConfig{Jobs: 1, ArrivalRate: 1, ServiceFraction: math.NaN()}, "ServiceFraction"},
	} {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("Validate(%+v) = %v, want an error naming %s", c.cfg, err, c.field)
			continue
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), err.Error()) {
					t.Errorf("Generate(%+v) panicked with %v, want %q", c.cfg, r, err)
				}
			}()
			Generate(c.cfg)
		}()
	}
	if err := DefaultGenConfig(1, 1).Validate(); err != nil {
		t.Errorf("default config refused: %v", err)
	}
}

func TestRoundTripSerialization(t *testing.T) {
	tr := testTrace(t, 100)
	sameTrace(t, tr, roundTrip(t, tr))
	batch := tr.BatchJobs()
	sameTrace(t, batch, roundTrip(t, batch))
}

// jobPriority99 and jobPriorityMissing are one-job traces whose tasks
// are valid but whose job priority is outside 1..12.
const (
	jobPriority99      = `{"id":"j","structure":"ST","priority":99,"tasks":[{"id":"a","job_id":"j","priority":1,"length_sec":1,"mem_mb":1}]}`
	jobPriorityMissing = `{"id":"j","structure":"ST","tasks":[{"id":"a","job_id":"j","priority":1,"length_sec":1,"mem_mb":1}]}`
	// jobStructureMissing is a valid two-task job line without its
	// "structure" field, which once read as a sequential job.
	jobStructureMissing = `{"id":"j","priority":1,"tasks":[` +
		`{"id":"a","job_id":"j","index":0,"priority":1,"length_sec":1,"mem_mb":1},` +
		`{"id":"b","job_id":"j","index":1,"priority":1,"length_sec":1,"mem_mb":1}]}`
)

func TestReadRejectsInvalid(t *testing.T) {
	for _, in := range []string{
		`{"id":"x","tasks":[]}`,
		`not json`,
		// A null task reads as a zero task, which is invalid.
		`{"id":"j000000","structure":"ST","arrival_sec":0,"priority":1,"tasks":[null]}`,
		// A task's index is its position in the job.
		`{"id":"j","priority":1,"tasks":[{"id":"a","job_id":"j","index":1,"priority":1,"length_sec":1,"mem_mb":1}]}`,
		`{"id":"j","priority":1,"tasks":[{"id":"a","job_id":"k","priority":1,"length_sec":1,"mem_mb":1}]}`,
		`{"id":"j","priority":1,"arrival_sec":5,"tasks":[{"id":"a","job_id":"j","priority":1,"length_sec":1,"mem_mb":1}]}
{"id":"k","priority":1,"arrival_sec":4,"tasks":[{"id":"b","job_id":"k","priority":1,"length_sec":1,"mem_mb":1}]}`,
		// A job's own priority is range-checked like its tasks', and a
		// missing one reads as 0.
		jobPriority99,
		jobPriorityMissing,
		// A job's structure is required, and the error names the job.
		jobStructureMissing,
		strings.Replace(jobStructureMissing, `"priority":1,`, `"priority":1,"structure":"MR",`, 1),
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
	if _, err := Read(strings.NewReader(jobStructureMissing)); err == nil || !strings.Contains(err.Error(), "job j ") {
		t.Errorf("a job without a structure: error %v does not name job j", err)
	}
}

func TestJobAggregates(t *testing.T) {
	job := func(s JobStructure) Job {
		return Job{
			ID:        "j",
			Structure: s,
			Priority:  1,
			Tasks: []Task{
				{ID: "a", JobID: "j", Index: 0, Priority: 1, LengthSec: 100, MemMB: 50},
				{ID: "b", JobID: "j", Index: 1, Priority: 1, LengthSec: 300, MemMB: 200},
			},
		}
	}
	tr := fromJobs(t, job(BagOfTasks), job(Sequential))
	if tr.CriticalPath(0) != 300 {
		t.Fatalf("BoT CriticalPath = %v, want max", tr.CriticalPath(0))
	}
	if tr.CriticalPath(1) != 400 {
		t.Fatalf("ST CriticalPath = %v, want sum", tr.CriticalPath(1))
	}
	if tr.MaxMem(0) != 200 || tr.MaxMem(1) != 200 {
		t.Fatalf("MaxMem = %v, %v", tr.MaxMem(0), tr.MaxMem(1))
	}
}

func TestValidationCatchesBadTasks(t *testing.T) {
	bad := []Task{
		{ID: "a", JobID: "j", Priority: 0, LengthSec: 1, MemMB: 1},
		{ID: "a", JobID: "j", Priority: 13, LengthSec: 1, MemMB: 1},
		{ID: "a", JobID: "j", Priority: 1, LengthSec: 0, MemMB: 1},
		{ID: "a", JobID: "j", Priority: 1, LengthSec: 1, MemMB: 0},
		{ID: "a", JobID: "j", Priority: 1, LengthSec: 1, MemMB: 1,
			Change: PriorityChange{AtFraction: 1.5, NewPriority: 2}},
		{ID: "a", JobID: "j", Priority: 1, LengthSec: 1, MemMB: 1,
			Change: PriorityChange{AtFraction: 0.5, NewPriority: 44}},
	}
	for i, task := range bad {
		if err := task.Validate(); err == nil {
			t.Errorf("bad task %d validated", i)
		}
	}
}

// medianInterval is the median of a priority's failure-interval Pareto
// at the reference task length: Xm * 2^(1/Alpha).
func medianInterval(priority int) float64 {
	d := IntervalParetoForTask(priority, refTaskLength)
	return d.Xm * math.Pow(2, 1/d.Alpha)
}

func TestIntervalDistPriorityScaling(t *testing.T) {
	// Figure 4's qualitative claim within the production tiers: higher
	// priority implies stochastically longer uninterrupted intervals.
	for _, pair := range [][2]int{{1, 2}, {2, 3}, {5, 6}, {8, 9}, {11, 12}} {
		lo := medianInterval(pair[0])
		hi := medianInterval(pair[1])
		if hi <= lo {
			t.Errorf("median interval for priority %d (%v) not above priority %d (%v)",
				pair[1], hi, pair[0], lo)
		}
	}
	// Priority 10's monitoring anomaly: far shorter intervals than 9.
	if medianInterval(10) >= medianInterval(9)/4 {
		t.Error("priority 10 must be drastically more interrupted than 9")
	}
}

func TestIntervalDistPanics(t *testing.T) {
	for _, p := range []int{0, 13, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("priority %d accepted", p)
				}
			}()
			IntervalParetoForTask(p, refTaskLength)
		}()
	}
}

func TestNewFailureProcessDeterministic(t *testing.T) {
	task := Task{ID: "t", JobID: "j", Priority: 2, LengthSec: 1000, MemMB: 100, FailureSeed: 99}
	a, b := NewFailureProcess(task), NewFailureProcess(task)
	ta, tb := 0.0, 0.0
	for i := 0; i < 100; i++ {
		ta, tb = a.NextAfter(ta), b.NextAfter(tb)
		if ta != tb {
			t.Fatal("same-task failure processes diverged")
		}
	}
}

func TestNewFailureProcessSwitchesOnPriorityChange(t *testing.T) {
	// Change from rarely-failing priority 9 to the monitoring tier 10
	// mid-task: the second half must see far more failures.
	task := Task{
		ID: "t", JobID: "j", Priority: 9, LengthSec: 20000, MemMB: 100,
		FailureSeed: 5,
		Change:      PriorityChange{AtFraction: 0.5, NewPriority: 10},
	}
	proc := NewFailureProcess(task)
	first, second := 0, 0
	cursor := 0.0
	for {
		next := proc.NextAfter(cursor)
		if next > task.LengthSec {
			break
		}
		if next <= task.LengthSec/2 {
			first++
		} else {
			second++
		}
		cursor = next
	}
	if second < first*2 {
		t.Fatalf("failures before/after switch = %d/%d, want sharp increase", first, second)
	}
}

func TestBuildEstimatorTable7Shape(t *testing.T) {
	tr := testTrace(t, 3000)
	est := BuildEstimator(tr, DefaultLengthLimits)

	// Priority 10 (monitoring) must show high MNOF and tiny MTBF for
	// short tasks, like Table 7's MNOF 11.9 / MTBF 37.
	k10 := core.GroupKey(10, 0)
	if (est.Estimate(k10) == core.Estimate{}) {
		t.Fatal("no priority-10 short tasks observed")
	}
	if est.MNOF(k10) < 2 {
		t.Errorf("priority-10 short-task MNOF = %v, want >> 1", est.MNOF(k10))
	}
	if est.MTBF(k10) > 200 {
		t.Errorf("priority-10 short-task MTBF = %v, want small", est.MTBF(k10))
	}

	// Unlimited-length MTBF must exceed short-task MTBF for the heavy
	// tail priorities (the Table 7 inflation).
	for _, p := range []int{1, 2} {
		short := est.MTBF(core.GroupKey(p, 0))
		all := est.MTBF(core.GroupKey(p, 2))
		if short == 0 || all == 0 {
			continue
		}
		if all < short {
			t.Errorf("priority %d: unlimited MTBF %v below short MTBF %v", p, all, short)
		}
	}
}

func TestEstimateForFallsBack(t *testing.T) {
	tr := testTrace(t, 500)
	est := BuildEstimator(tr, DefaultLengthLimits)
	e := EstimateFor(est, 2, 800, DefaultLengthLimits)
	if e.MNOF == 0 && e.MTBF == 0 {
		t.Fatal("no estimate for well-populated priority")
	}
}

func TestFailureIntervalSamplesShape(t *testing.T) {
	tr := testTrace(t, 1000)
	all := FailureIntervalSamples(tr, 0)
	short := FailureIntervalSamples(tr, 1000)
	if len(all) == 0 || len(short) == 0 {
		t.Fatal("no interval samples")
	}
	if len(short) >= len(all) {
		t.Fatal("short filter did not reduce samples")
	}
	// The paper: a large majority (over 63%) of intervals are short.
	frac := float64(len(short)) / float64(len(all))
	if frac < 0.63 {
		t.Errorf("fraction of intervals <= 1000 s = %v, paper reports > 0.63", frac)
	}
	for _, iv := range short {
		if iv > 1000 {
			t.Fatal("short filter leaked a long interval")
		}
	}
}

// TestFailureIntervalSamplesMatchReference checks the samples against a
// walk of their own: on a trace whose tasks switch failure processes
// mid-run, FailureIntervalSamples must return, bit for bit and in task
// order, each task's first maxIntervalsPerTask intervals of a freshly
// built process over its observation window, with and without the
// interval filter.
func TestFailureIntervalSamplesMatchReference(t *testing.T) {
	cfg := DefaultGenConfig(5, 400)
	cfg.PriorityChangeFraction = 0.3
	tr := Generate(cfg)
	var all, short []float64
	changed := 0
	for h := range tr.Tasks() {
		if tr.ChangePrio[h] != 0 {
			changed++
		}
		ivs := failure.IntervalsIn(NewFailureProcess(tr.Task(h)), observationWindow(tr.Len[h]))
		for _, iv := range ivs[:min(len(ivs), maxIntervalsPerTask)] {
			all = append(all, iv)
			if iv <= 1000 {
				short = append(short, iv)
			}
		}
	}
	if changed == 0 {
		t.Fatal("trace has no priority changes")
	}
	if got := FailureIntervalSamples(tr, 0); !reflect.DeepEqual(got, all) {
		t.Errorf("%d samples differ from the reference walk's %d", len(got), len(all))
	}
	if got := FailureIntervalSamples(tr, 1000); !reflect.DeepEqual(got, short) {
		t.Errorf("%d filtered samples differ from the reference walk's %d", len(got), len(short))
	}
}

func TestFailureIntervalsByPriority(t *testing.T) {
	byP := FailureIntervalsByPriority(42, 100000, 500)
	if len(byP) != 12 {
		t.Fatalf("got %d priorities", len(byP))
	}
	// Medians should rise from priority 1 to 6 (Figure 4a ordering).
	med := func(p int) float64 {
		xs := byP[p]
		if len(xs) == 0 {
			return math.NaN()
		}
		return stats.Quantile(xs, 0.5)
	}
	if !(med(1) < med(6)) {
		t.Errorf("median intervals: priority 1 (%v) should be below priority 6 (%v)", med(1), med(6))
	}
}

func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(DefaultGenConfig(uint64(i), 1000))
	}
}

// TestBuildEstimatorChunkedMatchesSerial checks the chunked estimator
// build against a plain one-goroutine fold: on a trace of more than
// three chunks with priority changes, and on its batch-job view, every
// group's task count, failure count, interval sum and interval
// count must match bit for bit at fan-outs 1, 2 and 8.
func TestBuildEstimatorChunkedMatchesSerial(t *testing.T) {
	cfg := DefaultGenConfig(5, 2500)
	cfg.PriorityChangeFraction = 0.3
	full := Generate(cfg)
	changed := 0
	for _, p := range full.ChangePrio {
		if p != 0 {
			changed++
		}
	}
	batch := full.BatchJobs()
	if batch.NumTasks() <= 3*estimatorChunk || changed == 0 {
		t.Fatalf("batch view has %d tasks (%d changed in the trace), want over %d with changes", batch.NumTasks(), changed, 3*estimatorChunk)
	}

	for _, tr := range []*Trace{full, batch} {
		// The reference replays each task's whole observation window on a
		// freshly built process.
		want := core.NewHistoryEstimator()
		for h := range tr.Tasks() {
			task := tr.Task(h)
			window := observationWindow(task.LengthSec)
			ivs := failure.IntervalsIn(NewFailureProcess(task), window)
			failures, at := 0, 0.0
			for _, iv := range ivs {
				if at += iv; at <= task.LengthSec {
					failures++
				}
			}
			ivs = ivs[:min(len(ivs), maxIntervalsPerTask)]
			for li, limit := range DefaultLengthLimits {
				if task.LengthSec <= limit {
					want.ObserveTask(core.GroupKey(task.Priority, li), failures, ivs)
				}
			}
		}
		for _, fanout := range []int{1, 2, 8} {
			// DeepEqual compares each group's counts and float sums exactly.
			if got := buildEstimator(tr, nil, fanout); !reflect.DeepEqual(got, want) {
				t.Errorf("%d of %d tasks, fan-out %d: estimator differs from the one-goroutine fold",
					tr.NumTasks(), len(tr.Len), fanout)
			}
		}
	}
}
