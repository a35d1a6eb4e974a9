package engine

import (
	"testing"

	"repro/internal/core"
)

func TestHostFailuresAllJobsStillComplete(t *testing.T) {
	tr := smallTrace(t, 21, 80)
	res := mustRun(t, Config{
		Seed:     21,
		Policy:   core.MNOFPolicy{},
		HostMTBF: 2000, // aggressive: one crash every ~33 simulated minutes
	}, tr)
	for i, jr := range res.Jobs {
		if len(jr.Tasks) != jobTasks(tr, i) {
			t.Fatalf("job %s finished %d/%d tasks under host failures",
				jr.ID, len(jr.Tasks), jobTasks(tr, i))
		}
	}
}

func TestHostFailuresIncreaseFailureCounts(t *testing.T) {
	tr := smallTrace(t, 22, 250)
	quiet := mustRun(t, Config{Seed: 22, Policy: core.MNOFPolicy{}}, tr)
	crashy := mustRun(t, Config{Seed: 22, Policy: core.MNOFPolicy{}, HostMTBF: 150}, tr)

	count := func(r *Result) int {
		n := 0
		for _, jr := range r.Jobs {
			n += jr.Failures
		}
		return n
	}
	if count(crashy) <= count(quiet) {
		t.Fatalf("host crashes did not add failures: %d vs %d", count(crashy), count(quiet))
	}
}

func TestHostFailuresDeterministic(t *testing.T) {
	tr := smallTrace(t, 23, 50)
	cfg := Config{Seed: 23, Policy: core.MNOFPolicy{}, HostMTBF: 1500}
	a := mustRun(t, cfg, tr)
	b := mustRun(t, cfg, tr)
	if a.Events != b.Events || a.MakespanSec != b.MakespanSec {
		t.Fatalf("host-failure runs not deterministic: %d/%v vs %d/%v",
			a.Events, a.MakespanSec, b.Events, b.MakespanSec)
	}
}

func TestHostFailuresAccountingStillHolds(t *testing.T) {
	tr := smallTrace(t, 24, 60)
	res := mustRun(t, Config{Seed: 24, Policy: core.MNOFPolicy{}, HostMTBF: 1200}, tr)
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			if w := tres.WPR; w > 1+1e-9 || w <= 0 {
				t.Fatalf("task %s WPR = %v under host failures", tres.ID, w)
			}
			overheads := tres.LengthSec + tres.CheckpointCostSec +
				tres.RestartCostSec + tres.RollbackLossSec
			if tres.WallSec < overheads-1e-6 {
				t.Fatalf("task %s wall %v below accounted overheads %v",
					tres.ID, tres.WallSec, overheads)
			}
		}
	}
}

func TestCheckpointsMitigateHostCrashes(t *testing.T) {
	// Under frequent host crashes, checkpointing must beat running bare.
	tr := smallTrace(t, 26, 100)
	ckpt := mustRun(t, Config{Seed: 26, Policy: core.MNOFPolicy{}, HostMTBF: 1500}, tr)
	none := mustRun(t, Config{Seed: 26, Policy: core.NoCheckpointPolicy{}, HostMTBF: 1500}, tr)
	if ckpt.MeanWPR(WithFailures) <= none.MeanWPR(WithFailures) {
		t.Fatalf("checkpointing (%v) not better than none (%v) under host crashes",
			ckpt.MeanWPR(WithFailures), none.MeanWPR(WithFailures))
	}
}

func TestCrashedTasksMoveToOtherHosts(t *testing.T) {
	tr := smallTrace(t, 27, 60)
	res := mustRun(t, Config{Seed: 27, Policy: core.MNOFPolicy{}, HostMTBF: 1000}, tr)
	// The run completing at all demonstrates migration; additionally the
	// restart costs must be visible for crashed tasks with images.
	var restarted int
	for _, jr := range res.Jobs {
		for _, tres := range jr.Tasks {
			if tres.Failures > 0 && tres.RestartCostSec > 0 {
				restarted++
			}
		}
	}
	if restarted == 0 {
		t.Fatal("no task paid a restart cost despite host crashes")
	}
}
