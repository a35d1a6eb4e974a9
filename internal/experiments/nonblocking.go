package experiments

import (
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/tables"
)

// AblationNonBlockingResult compares blocking checkpoint writes with the
// Algorithm 1 line 7 design: writes performed in a separate thread so
// the countdown — and the computation — are not blocked.
type AblationNonBlockingResult struct {
	WPRBlocking    float64
	WPRNonBlocking float64
	// Costs per mode: wall-clock checkpoint time (blocking) and hidden
	// overlapped write time (non-blocking), totals over all tasks.
	BlockingCost float64
	HiddenCost   float64
	Checkpoints  int
}

// AblationNonBlocking runs Formula 3 in both modes on the same trace as
// a two-scenario sweep. Expected shape: the non-blocking mode recovers
// roughly the total checkpoint write time in wall-clock, raising WPR
// accordingly.
func AblationNonBlocking(o Opts) (*AblationNonBlockingResult, error) {
	w := scenario.Workload{Jobs: o.jobs(1200)}
	results, err := runSweep(o, []sweep.Run{
		pinned(o, scenario.Scenario{Name: "blocking", Workload: w, Policy: "formula3"}),
		pinned(o, scenario.Scenario{Name: "non-blocking", Workload: w, Policy: "formula3",
			Engine: engine.Config{NonBlockingCheckpoints: true}}),
	})
	if err != nil {
		return nil, err
	}
	blocking, async := results[0], results[1]
	res := &AblationNonBlockingResult{
		WPRBlocking:    blocking.MeanWPR(engine.WithFailures),
		WPRNonBlocking: async.MeanWPR(engine.WithFailures),
	}
	for _, jr := range blocking.Jobs {
		for _, tres := range jr.Tasks {
			res.BlockingCost += tres.CheckpointCostSec
		}
	}
	for _, jr := range async.Jobs {
		for _, tres := range jr.Tasks {
			res.HiddenCost += tres.HiddenCheckpointCostSec
			res.Checkpoints += tres.Checkpoints
		}
	}
	return res, finite(res.WPRBlocking, res.WPRNonBlocking)
}

// String renders the comparison.
func (r *AblationNonBlockingResult) String() string {
	t := &tables.Table{
		Title:   "Ablation: blocking vs non-blocking checkpoint writes (Algorithm 1 line 7)",
		Headers: []string{"mode", "avg WPR (failing)", "checkpoint write time"},
	}
	t.AddRow("blocking", tables.FmtFloat(r.WPRBlocking),
		tables.FmtSeconds(r.BlockingCost)+" on the critical path")
	t.AddRow("non-blocking", tables.FmtFloat(r.WPRNonBlocking),
		tables.FmtSeconds(r.HiddenCost)+" overlapped")
	return t.String()
}
