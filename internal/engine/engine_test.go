package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

func smallTrace(t *testing.T, seed uint64, jobs int) *trace.Trace {
	t.Helper()
	cfg := trace.DefaultGenConfig(seed, jobs)
	// Engine tests exercise the batch execution path; day-scale service
	// tasks only slow the simulations down without adding coverage.
	cfg.ServiceFraction = -1
	return trace.Generate(cfg)
}

// jobTasks returns the task count of tr's i-th replayed job.
func jobTasks(tr *trace.Trace, i int) int {
	first, limit := tr.TasksOf(tr.Job(i))
	return int(limit - first)
}

// run builds the history estimator cfg needs from the replayed trace,
// as the sweep does, and runs.
func run(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	var est *core.HistoryEstimator
	if cfg.NeedsHistory() {
		est = trace.BuildEstimator(tr, cfg.withDefaults().Limits)
	}
	return RunWithEstimatorContext(ctx, cfg, tr, est)
}

func mustRun(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	res, err := run(context.Background(), cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCompletesAllJobs(t *testing.T) {
	tr := smallTrace(t, 1, 120)
	res := mustRun(t, Config{Seed: 1, Policy: core.MNOFPolicy{}}, tr)
	if len(res.Jobs) != 120 {
		t.Fatalf("got %d job results", len(res.Jobs))
	}
	for i, jr := range res.Jobs {
		if len(jr.Tasks) != jobTasks(tr, i) {
			t.Fatalf("job %s finished %d/%d tasks", jr.ID, len(jr.Tasks), jobTasks(tr, i))
		}
		if jr.DoneAt < jr.ArrivalSec {
			t.Fatalf("job %s done before arrival", jr.ID)
		}
	}
	if res.MakespanSec <= 0 || res.Events == 0 {
		t.Fatal("missing makespan/events")
	}
}

func TestRunDeterministic(t *testing.T) {
	tr := smallTrace(t, 2, 60)
	cfg := Config{Seed: 9, Policy: core.MNOFPolicy{}}
	a := mustRun(t, cfg, tr)
	b := mustRun(t, cfg, tr)
	if a.MakespanSec != b.MakespanSec || a.Events != b.Events {
		t.Fatalf("same-seed runs differ: makespan %v vs %v, events %d vs %d",
			a.MakespanSec, b.MakespanSec, a.Events, b.Events)
	}
	for i := range a.Jobs {
		if a.Jobs[i].WPR != b.Jobs[i].WPR || a.Jobs[i].WallSec() != b.Jobs[i].WallSec() {
			t.Fatalf("job %d differs between identical runs", i)
		}
	}
}

func TestTaskAccountingIdentity(t *testing.T) {
	tr := smallTrace(t, 3, 80)
	res := mustRun(t, Config{Seed: 3, Policy: core.MNOFPolicy{}}, tr)
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			overheads := tres.LengthSec + tres.CheckpointCostSec +
				tres.RestartCostSec + tres.RollbackLossSec
			wall := tres.WallSec()
			// Wall includes additionally detection delays, restart queue
			// waits, and per-restart scheduling delays — all non-negative.
			if wall < overheads-1e-6 {
				t.Fatalf("task %s wall %v below accounted overheads %v",
					tres.ID, wall, overheads)
			}
			slack := wall - overheads
			// Per failure, the unaccounted components are: detection
			// delay (0.5), restart scheduling delay (0.2), and up to one
			// abandoned partial checkpoint write (bounded by the worst
			// contended NFS cost, ~10 s).
			budget := float64(tres.Failures)*(0.5+0.2+10) + tres.WaitSec + 1e-6
			if slack > budget+1 {
				t.Fatalf("task %s has unexplained wall slack %v (budget %v, failures %d)",
					tres.ID, slack, budget, tres.Failures)
			}
		}
	}
}

func TestWPRNeverExceedsOne(t *testing.T) {
	tr := smallTrace(t, 4, 100)
	for _, policy := range []core.Policy{core.MNOFPolicy{}, core.YoungPolicy{}, core.NoCheckpointPolicy{}} {
		res := mustRun(t, Config{Seed: 4, Policy: policy}, tr)
		for _, jr := range res.Jobs {
			if w := jr.WPR; w > 1+1e-9 || w <= 0 {
				t.Fatalf("%s: job %s WPR = %v", policy.Name(), jr.ID, w)
			}
			for _, tres := range jr.Tasks {
				if w := tres.WPR(); w > 1+1e-9 || w <= 0 {
					t.Fatalf("%s: task %s WPR = %v", policy.Name(), tres.ID, w)
				}
			}
		}
	}
}

func TestFailureFreeTaskHasCleanWall(t *testing.T) {
	// A trace where every task uses the rarely-failing priority 9 and is
	// short: most tasks see zero failures, and those must have wall =
	// length (no checkpoints without failures under MNOF policy with
	// zero estimate... but priority-based estimates may still plan some).
	tr := smallTrace(t, 5, 60)
	res := mustRun(t, Config{Seed: 5, Policy: core.NoCheckpointPolicy{}}, tr)
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			if tres.Failures == 0 {
				if tres.Checkpoints != 0 {
					t.Fatalf("NoCheckpointPolicy took %d checkpoints", tres.Checkpoints)
				}
				if math.Abs(tres.WallSec()-tres.LengthSec) > 1e-6 {
					t.Fatalf("failure-free task wall %v != length %v",
						tres.WallSec(), tres.LengthSec)
				}
			}
		}
	}
}

// fixedCountPolicy always plans exactly count intervals.
type fixedCountPolicy struct{ count int }

func (p fixedCountPolicy) Name() string { return fmt.Sprintf("FixedCount(%d)", p.count) }

func (p fixedCountPolicy) Intervals(te, c float64, est core.Estimate) int { return p.count }

func TestFixedCountPolicyTakesExactCheckpoints(t *testing.T) {
	// Regression guard for the checkpoint scheduler: under a fixed
	// 4-interval plan, every failure-free task takes exactly 3
	// checkpoints at w0 spacing — no more (immediate re-checkpoint
	// loops), no fewer (lost plan state).
	tr := smallTrace(t, 16, 60)
	res := mustRun(t, Config{Seed: 16, Policy: fixedCountPolicy{4}}, tr)
	checked := 0
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			if tres.Failures != 0 {
				continue
			}
			checked++
			if tres.Checkpoints != 3 {
				t.Fatalf("failure-free task %s took %d checkpoints, want 3",
					tres.ID, tres.Checkpoints)
			}
			wantCost := tres.CheckpointCostSec
			if math.Abs(tres.WallSec()-(tres.LengthSec+wantCost)) > 1e-6 {
				t.Fatalf("task %s wall %v != length %v + ckpt cost %v",
					tres.ID, tres.WallSec(), tres.LengthSec, wantCost)
			}
		}
	}
	if checked == 0 {
		t.Skip("no failure-free tasks in sample")
	}
}

func TestSequentialJobOrdering(t *testing.T) {
	tr := smallTrace(t, 6, 80)
	res := mustRun(t, Config{Seed: 6, Policy: core.MNOFPolicy{}}, tr)
	for i, jr := range res.Jobs {
		if jr.Structure != trace.Sequential.String() {
			continue
		}
		byID := make(map[string]*TaskOutcome)
		for k := range jr.Tasks {
			byID[jr.Tasks[k].ID] = &jr.Tasks[k]
		}
		first, limit := tr.TasksOf(tr.Job(i))
		for h := first + 1; h < limit; h++ {
			prev, cur := byID[tr.TaskID(h-1)], byID[tr.TaskID(h)]
			if prev == nil || cur == nil {
				t.Fatalf("job %s missing task results", jr.ID)
			}
			if cur.SubmitAt < prev.DoneAt-1e-9 {
				t.Fatalf("job %s: task %d submitted at %v before task %d done at %v",
					jr.ID, h-first, cur.SubmitAt, h-first-1, prev.DoneAt)
			}
		}
	}
}

func TestCheckpointsReduceLossUnderFailures(t *testing.T) {
	// Under heavy failures, Formula 3 must lose far less work to
	// rollbacks than no checkpointing, and complete faster overall.
	tr := smallTrace(t, 7, 150)
	ckpt := mustRun(t, Config{Seed: 7, Policy: core.MNOFPolicy{}}, tr)
	none := mustRun(t, Config{Seed: 7, Policy: core.NoCheckpointPolicy{}}, tr)

	lossOf := func(r *Result) (loss float64, failures int) {
		for _, jr := range r.Jobs {
			for _, tres := range jr.Tasks {
				loss += tres.RollbackLossSec
				failures += tres.Failures
			}
		}
		return loss, failures
	}
	ckptLoss, ckptFails := lossOf(ckpt)
	noneLoss, noneFails := lossOf(none)
	if ckptFails == 0 || noneFails == 0 {
		t.Skip("trace produced no failures; widen workload")
	}
	if ckptLoss >= noneLoss {
		t.Fatalf("checkpointing did not reduce rollback loss: %v vs %v", ckptLoss, noneLoss)
	}
	if ckpt.MeanWPR(WithFailures) <= none.MeanWPR(WithFailures) {
		t.Fatalf("checkpointing WPR %v not above no-checkpoint WPR %v",
			ckpt.MeanWPR(WithFailures), none.MeanWPR(WithFailures))
	}
}

func TestOracleEstimatesBeatNothing(t *testing.T) {
	tr := smallTrace(t, 8, 100)
	oracle := mustRun(t, Config{Seed: 8, Policy: core.MNOFPolicy{}, Estimates: EstimateOracle}, tr)
	if oracle.MeanWPR(nil) <= 0.5 {
		t.Fatalf("oracle-estimated WPR %v implausibly low", oracle.MeanWPR(nil))
	}
}

func TestStorageModesRun(t *testing.T) {
	tr := smallTrace(t, 9, 40)
	for _, mode := range []StorageMode{StorageAuto, StorageLocal, StorageShared} {
		res := mustRun(t, Config{Seed: 9, Policy: core.MNOFPolicy{}, Mode: mode}, tr)
		if len(res.Jobs) != 40 {
			t.Fatalf("mode %v: %d jobs", mode, len(res.Jobs))
		}
		if mode == StorageLocal {
			for _, jr := range res.Jobs {
				for _, tres := range jr.Tasks {
					if tres.UsedSharedStorage {
						t.Fatal("StorageLocal used shared storage")
					}
				}
			}
		}
		if mode == StorageShared {
			for _, jr := range res.Jobs {
				for _, tres := range jr.Tasks {
					if !tres.UsedSharedStorage {
						t.Fatal("StorageShared used local storage")
					}
				}
			}
		}
	}
}

// TestNFSBackendRuns: SharedNFS puts a single NFS server in the shared
// slot, whose congested writes price the run differently from DM-NFS.
func TestNFSBackendRuns(t *testing.T) {
	tr := smallTrace(t, 10, 40)
	cfg := Config{Seed: 10, Policy: core.MNOFPolicy{}, Mode: StorageShared, SharedNFS: true}
	res := mustRun(t, cfg, tr)
	if len(res.Jobs) != 40 {
		t.Fatalf("%d jobs", len(res.Jobs))
	}
	cfg.SharedNFS = false
	if bytes.Equal(marshal(t, res), marshal(t, mustRun(t, cfg, tr))) {
		t.Fatal("NFS and DM-NFS runs are identical; SharedNFS reached no device")
	}
}

func TestRunRejectsMissingPolicy(t *testing.T) {
	tr := smallTrace(t, 11, 5)
	if _, err := run(context.Background(), Config{}, tr); err == nil {
		t.Fatal("missing policy accepted")
	}
}

func TestPairJobsAlignment(t *testing.T) {
	tr := smallTrace(t, 12, 30)
	a := mustRun(t, Config{Seed: 12, Policy: core.MNOFPolicy{}}, tr)
	b := mustRun(t, Config{Seed: 12, Policy: core.YoungPolicy{}}, tr)
	pairs, err := PairJobs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 30 {
		t.Fatalf("%d pairs", len(pairs))
	}
	for _, p := range pairs {
		if p[0].ID != p[1].ID {
			t.Fatal("pair misaligned")
		}
	}
	short := &Result{Jobs: a.Jobs[:10]}
	if _, err := PairJobs(short, b); err == nil {
		t.Fatal("mismatched job counts accepted")
	}
}

func TestIdenticalFailuresAcrossPolicies(t *testing.T) {
	// The paired-comparison guarantee: the same task sees the same
	// failure times under different policies (failure processes are
	// seeded per task). Failure *counts* can differ because wall-clock
	// lengths differ, but the count under the faster run can never
	// exceed the count under a slower run of the same task by more than
	// the extra exposure allows — we check a weaker but robust property:
	// tasks that finish with zero failures under the slow policy also
	// see zero under the fast one if their wall is shorter.
	tr := smallTrace(t, 13, 60)
	f3 := mustRun(t, Config{Seed: 13, Policy: core.MNOFPolicy{}}, tr)
	none := mustRun(t, Config{Seed: 13, Policy: core.NoCheckpointPolicy{}}, tr)
	pairs, err := PairJobs(f3, none)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		aTasks := make(map[string]*TaskOutcome)
		for k := range p[0].Tasks {
			aTasks[p[0].Tasks[k].ID] = &p[0].Tasks[k]
		}
		for _, tb := range p[1].Tasks {
			ta := aTasks[tb.ID]
			if ta == nil {
				t.Fatal("task missing in paired run")
			}
			if tb.Failures == 0 && ta.WallSec() <= tb.WallSec()+1e-9 && ta.Failures != 0 {
				t.Fatalf("task %s: %d failures under F3 within a window that was failure-free under None",
					tb.ID, ta.Failures)
			}
		}
	}
}

func TestFiltersAndAggregates(t *testing.T) {
	tr := smallTrace(t, 14, 80)
	res := mustRun(t, Config{Seed: 14, Policy: core.MNOFPolicy{}}, tr)

	st := res.JobWPRs(ByStructure(trace.Sequential))
	bot := res.JobWPRs(ByStructure(trace.BagOfTasks))
	if len(st)+len(bot) != len(res.Jobs) {
		t.Fatal("structure filters do not partition")
	}
	short := res.JobWalls(ByMaxTaskLength(1000))
	for range short {
	}
	combo := res.JobWPRs(And(ByStructure(trace.Sequential), WithFailures))
	if len(combo) > len(st) {
		t.Fatal("And filter larger than its factor")
	}
	if res.MeanWPR(func(*JobOutcome) bool { return false }) != 0 {
		t.Fatal("empty selection mean not 0")
	}
	for _, p := range trace.PriorityOrder {
		_ = res.JobWPRs(ByPriority(p))
	}
}
