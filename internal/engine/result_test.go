package engine

import (
	"testing"

	"repro/internal/core"
)

// TestJobOutcomeAggregatesMatchTasks: the engine writes each job's
// aggregates once, after its last task, so every JobOutcome's DoneAt,
// WPR and Failures equal their recomputation from its own
// finished Tasks — for ST and BoT jobs, under task failures, host
// crashes and non-blocking checkpoint writes. A record written before
// its job's last task would miss that task.
func TestJobOutcomeAggregatesMatchTasks(t *testing.T) {
	tr := smallTrace(t, 31, 150)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"baseline", Config{Seed: 31, Policy: core.MNOFPolicy{}}},
		{"host crashes", Config{Seed: 31, Policy: core.MNOFPolicy{}, HostMTBF: 150}},
		{"non-blocking", Config{Seed: 31, Policy: core.MNOFPolicy{}, NonBlockingCheckpoints: true}},
	} {
		res := mustRun(t, c.cfg, tr)
		if len(res.Jobs) != tr.NumJobs() {
			t.Fatalf("%s: %d job records for %d replayed jobs", c.name, len(res.Jobs), tr.NumJobs())
		}
		// failingMulti counts, per structure, the multi-task jobs with
		// failures: the cases where a premature write shows.
		failingMulti := map[string]int{}
		for i := range res.Jobs {
			jo := &res.Jobs[i]
			j := tr.Job(i)
			if jo.ID != tr.JobID(j) || jo.Structure != tr.Structure(j).String() ||
				jo.Priority != tr.JobPrio[j] || jo.ArrivalSec != tr.Arrival[j] {
				t.Fatalf("%s: record %d is %s/%s, want replay order's %s/%s",
					c.name, i, jo.ID, jo.Structure, tr.JobID(j), tr.Structure(j))
			}
			if len(jo.Tasks) != jobTasks(tr, i) {
				t.Fatalf("%s: job %s holds %d of %d task records", c.name, jo.ID, len(jo.Tasks), jobTasks(tr, i))
			}
			var doneAt, te, tw float64
			var failures int
			for k := range jo.Tasks {
				task := &jo.Tasks[k]
				doneAt = max(doneAt, task.DoneAt)
				te += task.LengthSec
				tw += task.WallSec()
				failures += task.Failures
			}
			wpr := 1.0
			if tw > 0 {
				wpr = te / tw
			}
			if jo.DoneAt != doneAt || jo.WPR != wpr || jo.Failures != failures {
				t.Fatalf("%s: job %s (%s, %d tasks) records done %v WPR %v failures %d; its tasks give %v, %v, %d",
					c.name, jo.ID, jo.Structure, len(jo.Tasks), jo.DoneAt, jo.WPR, jo.Failures,
					doneAt, wpr, failures)
			}
			if len(jo.Tasks) > 1 && failures > 0 {
				failingMulti[jo.Structure]++
			}
		}
		if failingMulti["ST"] == 0 || failingMulti["BoT"] == 0 {
			t.Fatalf("%s: the trace lacks failing multi-task jobs of both structures: %v", c.name, failingMulti)
		}
	}
}
