package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/sim"
)

// The mirror types are the result records as they were before the
// hand-written encoder: every field stored, json tags as they were,
// encoded by encoding/json's reflection. Result.AppendJSON must write
// exactly their json.Marshal bytes.

type mirrorTask struct {
	ID                      string  `json:"id"`
	Priority                int     `json:"priority"`
	LengthSec               float64 `json:"length_sec"`
	MemMB                   float64 `json:"mem_mb"`
	SubmitAt                float64 `json:"submit_at"`
	StartAt                 float64 `json:"start_at"`
	DoneAt                  float64 `json:"done_at"`
	WallSec                 float64 `json:"wall_sec"`
	WPR                     float64 `json:"wpr"`
	Failures                int     `json:"failures"`
	Checkpoints             int     `json:"checkpoints"`
	RollbackLossSec         float64 `json:"rollback_loss_sec"`
	CheckpointCostSec       float64 `json:"checkpoint_cost_sec"`
	HiddenCheckpointCostSec float64 `json:"hidden_checkpoint_cost_sec,omitempty"`
	RestartCostSec          float64 `json:"restart_cost_sec"`
	WaitSec                 float64 `json:"wait_sec"`
	UsedSharedStorage       bool    `json:"used_shared_storage"`
}

type mirrorJob struct {
	ID         string       `json:"id"`
	Structure  string       `json:"structure"`
	Priority   int          `json:"priority"`
	ArrivalSec float64      `json:"arrival_sec"`
	DoneAt     float64      `json:"done_at"`
	WallSec    float64      `json:"wall_sec"`
	WPR        float64      `json:"wpr"`
	Failures   int          `json:"failures"`
	Tasks      []mirrorTask `json:"tasks"`
}

type mirrorResult struct {
	EngineVersion string            `json:"engine_version"`
	Policy        string            `json:"policy"`
	MakespanSec   float64           `json:"makespan_sec"`
	Events        uint64            `json:"events"`
	Summary       sim.ResultSummary `json:"summary"`
	Jobs          []mirrorJob       `json:"jobs"`
}

// mirrorOutcome is the struct sim.Outcome's MarshalJSON used to hand
// to json.Marshal.
type mirrorOutcome struct {
	Name   string        `json:"name"`
	Seed   uint64        `json:"seed"`
	Result *mirrorResult `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// mirrorOfTask stores a task's wall time and WPR as the engine computed
// them: wall = done - start, WPR = length / wall.
func mirrorOfTask(t *sim.TaskOutcome) mirrorTask {
	wall := t.DoneAt - t.StartAt
	return mirrorTask{
		ID: t.ID, Priority: int(t.Priority), LengthSec: t.LengthSec, MemMB: t.MemMB,
		SubmitAt: t.SubmitAt, StartAt: t.StartAt, DoneAt: t.DoneAt,
		WallSec: wall, WPR: t.LengthSec / wall,
		Failures: t.Failures, Checkpoints: t.Checkpoints,
		RollbackLossSec: t.RollbackLossSec, CheckpointCostSec: t.CheckpointCostSec,
		HiddenCheckpointCostSec: t.HiddenCheckpointCostSec, RestartCostSec: t.RestartCostSec,
		WaitSec: t.WaitSec, UsedSharedStorage: t.UsedSharedStorage,
	}
}

func mirrorOfJob(j *sim.JobOutcome) mirrorJob {
	m := mirrorJob{
		ID: j.ID, Structure: j.Structure, Priority: j.Priority, ArrivalSec: j.ArrivalSec,
		DoneAt: j.DoneAt, WallSec: j.DoneAt - j.ArrivalSec, WPR: j.WPR, Failures: j.Failures,
	}
	if j.Tasks != nil {
		m.Tasks = make([]mirrorTask, len(j.Tasks))
		for i := range j.Tasks {
			m.Tasks[i] = mirrorOfTask(&j.Tasks[i])
		}
	}
	return m
}

func mirrorOfOutcome(o sim.Outcome) mirrorOutcome {
	m := mirrorOutcome{Name: o.Name, Seed: o.Seed}
	if o.Result != nil {
		r := mirrorOf(o.Result)
		m.Result = &r
	}
	if o.Err != nil {
		m.Error = o.Err.Error()
	}
	return m
}

func mirrorOf(r *sim.Result) mirrorResult {
	m := mirrorResult{
		EngineVersion: r.EngineVersion, Policy: r.Policy, MakespanSec: r.MakespanSec,
		Events: r.Events, Summary: r.Summary,
	}
	if r.Jobs != nil {
		m.Jobs = make([]mirrorJob, len(r.Jobs))
		for i := range r.Jobs {
			m.Jobs[i] = mirrorOfJob(&r.Jobs[i])
		}
	}
	return m
}

// TestResultJSONMatchesEncodingJSON: for every registered scenario at a
// small size, and for larger host-crash and non-blocking runs,
// AppendJSON writes the mirror's json.Marshal bytes; json.Marshal of
// the result, addressable or not, writes them too; re-encoding them as
// a json.RawMessage changes nothing, so the local path caches canonical
// documents; an Outcome around the result, with or without an error,
// writes the bytes it wrote before; and a record json.Marshal cannot
// address still writes its derived wall_sec and wpr.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	type run struct {
		name string
		opts []sim.Option
	}
	var runs []run
	for _, info := range sim.Scenarios() {
		runs = append(runs, run{info.Name, []sim.Option{sim.WithJobs(30), sim.WithSeed(5)}})
	}
	runs = append(runs,
		run{"hostfail-storm", []sim.Option{sim.WithJobs(150), sim.WithSeed(9)}},
		run{"nonblocking-f3", []sim.Option{sim.WithJobs(150), sim.WithSeed(9)}})
	var hidden, tasks int
	for _, r := range runs {
		s, err := sim.ScenarioByName(r.name, r.opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mirrorOf(res))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendJSON differs from the mirror's json.Marshal at byte %d:\n got %.300s\nwant %.300s",
				r.name, firstDiff(got, want), got[firstDiff(got, want):], want[firstDiff(got, want):])
		}
		for _, v := range []any{res, *res} {
			if b, err := json.Marshal(v); err != nil || !bytes.Equal(b, got) {
				t.Fatalf("%s: json.Marshal(%T) differs from AppendJSON (err %v)", r.name, v, err)
			}
		}
		if canon, err := json.Marshal(json.RawMessage(got)); err != nil || !bytes.Equal(canon, got) {
			t.Fatalf("%s: AppendJSON output is not canonical (err %v)", r.name, err)
		}
		for _, o := range []sim.Outcome{
			{Name: r.name, Seed: 5, Result: res},
			{Name: r.name, Seed: 5, Result: res, Err: errors.New("<partial> & more")},
			{Name: r.name, Seed: 5, Err: errors.New("refused")},
		} {
			b, err := json.Marshal(o)
			w, _ := json.Marshal(mirrorOfOutcome(o))
			if err != nil || !bytes.Equal(b, w) {
				t.Fatalf("%s: Outcome encodes %.300s (err %v), want %.300s", r.name, b, err, w)
			}
		}
		if len(res.Jobs) == 0 || len(res.Jobs[0].Tasks) == 0 {
			t.Fatalf("%s: no job records to check", r.name)
		}
		// Values in an interface are not addressable.
		job, task := res.Jobs[0], res.Jobs[0].Tasks[0]
		for _, c := range []struct {
			v, mirror any
		}{{job, mirrorOfJob(&job)}, {task, mirrorOfTask(&task)}} {
			b, err := json.Marshal(c.v)
			w, _ := json.Marshal(c.mirror)
			if err != nil || !bytes.Equal(b, w) || !bytes.Contains(b, []byte(`"wall_sec":`)) || !bytes.Contains(b, []byte(`"wpr":`)) {
				t.Fatalf("%s: non-addressable %T encodes %s (err %v), want %s", r.name, c.v, b, err, w)
			}
		}
		for _, j := range res.Jobs {
			for _, tk := range j.Tasks {
				tasks++
				if tk.HiddenCheckpointCostSec != 0 {
					hidden++
				}
			}
		}
	}
	if hidden == 0 || hidden == tasks {
		t.Errorf("%d of %d tasks record hidden checkpoint cost; the runs must cover the omitted and the written key", hidden, tasks)
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// FuzzResultJSON pushes fuzzed values through one task record, its job,
// the result around them and an Outcome holding it: AppendJSON and
// json.Marshal of the result and of the outcome must write the mirror's
// json.Marshal bytes, or all must fail (a NaN or infinite value,
// stored or derived). shape picks a nil
// job slice, a job with nil or empty tasks, or a job with the task.
func FuzzResultJSON(f *testing.F) {
	for _, s := range []string{"j1-t0", "<a", "b>", "&", "\u2028\u2029", "\x00\x1f\"\\", "\xff\xfe", "é", ""} {
		f.Add(s, int8(3), 7, 120.5, 10.0, 250.0, 0.0, 3, uint8(3))
	}
	for _, x := range []float64{math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1e-7, -1e-7, 1e21, -1e21, 1e20,
		123456789012, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		f.Add("j2-t1", int8(-128), -1, x, x, x+1, x, math.MaxInt, uint8(3))
	}
	for shape := uint8(0); shape < 3; shape++ {
		f.Add("j3-t2", int8(127), math.MinInt, 1.0, 0.0, 1.0, 0.5, 0, shape)
	}
	f.Fuzz(func(t *testing.T, id string, prio int8, n int, length, start, done, x float64, failures int, shape uint8) {
		task := sim.TaskOutcome{
			ID: id, Priority: prio, LengthSec: length, MemMB: x, SubmitAt: x, StartAt: start, DoneAt: done,
			Failures: failures, Checkpoints: n, RollbackLossSec: x, CheckpointCostSec: -x,
			HiddenCheckpointCostSec: x, RestartCostSec: length, WaitSec: start,
			UsedSharedStorage: n%2 == 0,
		}
		job := sim.JobOutcome{
			ID: id, Structure: id, Priority: n, ArrivalSec: x, DoneAt: done, WPR: x,
			Failures: failures,
		}
		res := &sim.Result{
			EngineVersion: id, Policy: id, MakespanSec: done, Events: uint64(n),
			Summary: sim.ResultSummary{Jobs: n, Tasks: failures, MeanWPR: x, MeanWPRFailing: length,
				FailingJobs: -n, Failures: failures, Checkpoints: n, CheckpointCostSec: start,
				RestartCostSec: done, RollbackLossSec: -x},
		}
		switch shape % 4 {
		case 1:
			res.Jobs = []sim.JobOutcome{job}
		case 2:
			job.Tasks = []sim.TaskOutcome{}
			res.Jobs = []sim.JobOutcome{job}
		case 3:
			job.Tasks = []sim.TaskOutcome{task}
			res.Jobs = []sim.JobOutcome{job}
		}
		want, wantErr := json.Marshal(mirrorOf(res))
		got, err := res.AppendJSON(nil)
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendJSON = %s (err %v), mirror json.Marshal = %s (err %v)", got, err, want, wantErr)
		}
		viaMarshal, err := json.Marshal(res)
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(viaMarshal, want) {
			t.Fatalf("json.Marshal(Result) = %s (err %v), mirror json.Marshal = %s (err %v)", viaMarshal, err, want, wantErr)
		}
		out := sim.Outcome{Name: id, Seed: uint64(n), Result: res, Err: errors.New(id)}
		want, wantErr = json.Marshal(mirrorOfOutcome(out))
		got, err = json.Marshal(out)
		if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal(Outcome) = %s (err %v), mirror json.Marshal = %s (err %v)", got, err, want, wantErr)
		}
	})
}

// TestEncoderWritesEveryTaggedField: the hand-written encoder writes
// every json-tagged field of Result, ResultSummary, JobOutcome and
// TaskOutcome, plus the derived wall_sec and wpr, once each and in wire
// order, so a field added to one of the types cannot be left out of
// every cached and published result. Every field is set nonzero, so
// omitempty keys are written too.
func TestEncoderWritesEveryTaggedField(t *testing.T) {
	res := &sim.Result{Jobs: []sim.JobOutcome{{Tasks: []sim.TaskOutcome{{}}}}}
	next := 0.0
	fillNonzero(t, reflect.ValueOf(res).Elem(), &next)
	doc, err := res.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		Summary json.RawMessage
		Jobs    []json.RawMessage
	}
	if err := json.Unmarshal(doc, &top); err != nil || len(top.Jobs) != 1 {
		t.Fatalf("document %s: %v", doc, err)
	}
	var job struct{ Tasks []json.RawMessage }
	if err := json.Unmarshal(top.Jobs[0], &job); err != nil || len(job.Tasks) != 1 {
		t.Fatalf("job record %s: %v", top.Jobs[0], err)
	}
	// placed lists the keys written away from their declaration order,
	// each after the key beside it: the derived values, and the task's
	// priority, declared late to share a word with its storage bit.
	for _, c := range []struct {
		typ    reflect.Type
		obj    []byte
		placed [][2]string
	}{
		{reflect.TypeFor[sim.Result](), doc, nil},
		{reflect.TypeFor[sim.ResultSummary](), top.Summary, nil},
		{reflect.TypeFor[sim.JobOutcome](), top.Jobs[0], [][2]string{{"wall_sec", "done_at"}}},
		{reflect.TypeFor[sim.TaskOutcome](), job.Tasks[0],
			[][2]string{{"priority", "id"}, {"wall_sec", "done_at"}, {"wpr", "wall_sec"}}},
	} {
		var want []string
		for i := 0; i < c.typ.NumField(); i++ {
			name, _, _ := strings.Cut(c.typ.Field(i).Tag.Get("json"), ",")
			if name == "" || name == "-" {
				t.Fatalf("%s.%s has no json key", c.typ, c.typ.Field(i).Name)
			}
			if !slices.ContainsFunc(c.placed, func(p [2]string) bool { return p[0] == name }) {
				want = append(want, name)
			}
		}
		for _, p := range c.placed {
			want = slices.Insert(want, slices.Index(want, p[1])+1, p[0])
		}
		if got := objectKeys(t, c.obj); !slices.Equal(got, want) {
			t.Errorf("%s: encoder writes keys %q, want %q", c.typ, got, want)
		}
	}
}

// fillNonzero sets every field reachable from v to a distinct nonzero
// value, so no omitempty key is skipped and no derived ratio divides by
// zero.
func fillNonzero(t *testing.T, v reflect.Value, next *float64) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonzero(t, v.Field(i), next)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillNonzero(t, v.Index(i), next)
		}
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(*next)
	default:
		t.Fatalf("no nonzero value for a %s", v.Type())
	}
}

// objectKeys returns the keys of the JSON object obj in the order they
// are written.
func objectKeys(t *testing.T, obj []byte) []string {
	dec := json.NewDecoder(bytes.NewReader(obj))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("%.100s is not an object (err %v)", obj, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
