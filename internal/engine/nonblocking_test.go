package engine

import (
	"testing"

	"repro/internal/core"
)

func TestNonBlockingCheckpointsComplete(t *testing.T) {
	tr := smallTrace(t, 31, 80)
	res := mustRun(t, Config{
		Seed:                   31,
		Policy:                 core.MNOFPolicy{},
		NonBlockingCheckpoints: true,
	}, tr)
	for i, jr := range res.Jobs {
		if len(jr.Tasks) != jobTasks(tr, i) {
			t.Fatalf("job %s incomplete under non-blocking checkpoints", jr.ID)
		}
	}
	// Hidden cost must be recorded, blocking cost must be zero.
	var hidden, blocking float64
	var ckpts int
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			hidden += tres.HiddenCheckpointCostSec
			blocking += tres.CheckpointCostSec
			ckpts += tres.Checkpoints
		}
	}
	if ckpts == 0 || hidden == 0 {
		t.Fatalf("no async checkpoints recorded (ckpts=%d hidden=%v)", ckpts, hidden)
	}
	if blocking != 0 {
		t.Fatalf("blocking checkpoint cost %v recorded in non-blocking mode", blocking)
	}
}

func TestNonBlockingImprovesWallClock(t *testing.T) {
	// Hiding the write cost must not make jobs slower on aggregate.
	tr := smallTrace(t, 32, 100)
	blocking := mustRun(t, Config{Seed: 32, Policy: core.MNOFPolicy{}}, tr)
	async := mustRun(t, Config{
		Seed: 32, Policy: core.MNOFPolicy{}, NonBlockingCheckpoints: true,
	}, tr)
	if async.MeanWPR(WithFailures) < blocking.MeanWPR(WithFailures)-0.01 {
		t.Fatalf("non-blocking WPR %v worse than blocking %v",
			async.MeanWPR(WithFailures), blocking.MeanWPR(WithFailures))
	}
}

func TestNonBlockingFailureLosesInFlightImage(t *testing.T) {
	// Invariant check at scale: a task never resumes from progress it
	// saved in a write that had not completed by the failure instant.
	// The accounting identity (wall >= Te + rollback + restart) catches
	// a resurrected image as negative slack.
	tr := smallTrace(t, 33, 80)
	res := mustRun(t, Config{
		Seed: 33, Policy: core.MNOFPolicy{}, NonBlockingCheckpoints: true,
	}, tr)
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			overheads := tres.LengthSec + tres.RestartCostSec + tres.RollbackLossSec
			if tres.WallSec() < overheads-1e-6 {
				t.Fatalf("task %s wall %v below overheads %v: an unfinished image must have been restored",
					tres.ID, tres.WallSec(), overheads)
			}
			if w := tres.WPR(); w > 1+1e-9 {
				t.Fatalf("task %s WPR %v > 1", tres.ID, w)
			}
		}
	}
}

func TestNonBlockingWithHostCrashes(t *testing.T) {
	tr := smallTrace(t, 34, 60)
	res := mustRun(t, Config{
		Seed: 34, Policy: core.MNOFPolicy{},
		NonBlockingCheckpoints: true, HostMTBF: 1500,
	}, tr)
	for i, jr := range res.Jobs {
		if len(jr.Tasks) != jobTasks(tr, i) {
			t.Fatalf("job %s incomplete under crashes + async checkpoints", jr.ID)
		}
	}
}

func TestNonBlockingDeterministic(t *testing.T) {
	tr := smallTrace(t, 35, 50)
	cfg := Config{Seed: 35, Policy: core.MNOFPolicy{}, NonBlockingCheckpoints: true}
	a := mustRun(t, cfg, tr)
	b := mustRun(t, cfg, tr)
	if a.Events != b.Events || a.MakespanSec != b.MakespanSec {
		t.Fatal("non-blocking runs not deterministic")
	}
}
