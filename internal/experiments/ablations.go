package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/tables"
	"repro/internal/trace"
)

// AblationDalyResult compares Formula 3 against both classical
// MTBF-based baselines (Young 1974 and Daly 2006) and the no-checkpoint
// floor, under priority-based estimation.
type AblationDalyResult struct {
	// AvgWPR maps policy name -> average WPR over failing jobs.
	AvgWPR map[string]float64
	// MeanWall maps policy name -> mean job wall-clock (failing jobs).
	MeanWall map[string]float64
}

// AblationDaly runs the four policies on one trace. Expectation: F3 >=
// Daly ~ Young >> None on heavy-tailed failure intervals, because both
// MTBF-based rules inherit the inflated-MTBF problem Daly's higher-order
// terms cannot fix.
func AblationDaly(o Opts) (*AblationDalyResult, error) {
	w := scenario.Workload{Jobs: o.jobs(1500)}
	policies := []string{"formula3", "young", "daly", "random", "none"}
	runs := make([]sweep.Run, 0, len(policies))
	for _, policy := range policies {
		runs = append(runs, pinned(o, scenario.Scenario{Name: policy, Workload: w, Policy: policy}))
	}
	results, err := runSweep(o, runs)
	if err != nil {
		return nil, err
	}
	res := &AblationDalyResult{
		AvgWPR:   make(map[string]float64, len(results)),
		MeanWall: make(map[string]float64, len(results)),
	}
	for _, r := range results {
		res.AvgWPR[r.PolicyName] = r.MeanWPR(engine.WithFailures)
		walls := r.JobWalls(engine.WithFailures)
		var sum float64
		for _, wall := range walls {
			sum += wall
		}
		if len(walls) > 0 {
			res.MeanWall[r.PolicyName] = sum / float64(len(walls))
		}
	}
	return res, nil
}

// String renders the policy grid.
func (r *AblationDalyResult) String() string {
	t := &tables.Table{
		Title:   "Ablation: policy comparison (failing jobs, priority-based estimates)",
		Headers: []string{"policy", "avg WPR", "mean wall (s)"},
	}
	for _, name := range []string{"Formula(3)", "Young", "Daly", "Random", "None"} {
		t.AddRowValues(name, r.AvgWPR[name], r.MeanWall[name])
	}
	return t.String()
}

// AblationStorageResult compares the Section 4.2.2 storage-selection
// rule against forcing one device for all tasks.
type AblationStorageResult struct {
	AvgWPR      map[string]float64
	SharedShare map[string]float64 // fraction of tasks using shared storage
}

// AblationStorage evaluates StorageAuto vs StorageLocal vs
// StorageShared. The expectation is Auto >= max(Local, Shared): the
// per-task rule dominates either fixed choice.
func AblationStorage(o Opts) (*AblationStorageResult, error) {
	w := scenario.Workload{Jobs: o.jobs(1500)}
	modes := []struct {
		name string
		mode engine.StorageMode
	}{
		{"auto (Sec. 4.2.2)", engine.StorageAuto},
		{"always local", engine.StorageLocal},
		{"always shared", engine.StorageShared},
	}
	runs := make([]sweep.Run, 0, len(modes))
	for _, m := range modes {
		runs = append(runs, pinned(o, scenario.Scenario{
			Name: m.name, Workload: w, Policy: "formula3", Engine: engine.Config{Mode: m.mode},
		}))
	}
	results, err := runSweep(o, runs)
	if err != nil {
		return nil, err
	}
	res := &AblationStorageResult{
		AvgWPR:      make(map[string]float64, len(modes)),
		SharedShare: make(map[string]float64, len(modes)),
	}
	for i, m := range modes {
		r := results[i]
		res.AvgWPR[m.name] = r.MeanWPR(engine.WithFailures)
		var shared, total float64
		for _, jr := range r.Jobs {
			for _, tres := range jr.Tasks {
				total++
				if tres.UsedShared {
					shared++
				}
			}
		}
		if total > 0 {
			res.SharedShare[m.name] = shared / total
		}
	}
	return res, nil
}

// String renders the mode grid.
func (r *AblationStorageResult) String() string {
	t := &tables.Table{
		Title:   "Ablation: checkpoint storage selection (failing jobs)",
		Headers: []string{"mode", "avg WPR", "tasks on shared disk"},
	}
	for _, name := range []string{"auto (Sec. 4.2.2)", "always local", "always shared"} {
		t.AddRow(name, tables.FmtFloat(r.AvgWPR[name]), tables.FmtPercent(r.SharedShare[name]))
	}
	return t.String()
}

// AblationTheorem2Result quantifies the Theorem 2 saving: how many
// Formula 3 evaluations the adaptive controller performs compared to a
// naive recompute-at-every-checkpoint controller, and that their plans
// coincide.
type AblationTheorem2Result struct {
	Tasks               int
	CheckpointsPlanned  int
	RecomputesAdaptive  int
	RecomputesNaive     int
	PlanDivergences     int
	SpacingMaxDeviation float64
}

// AblationTheorem2 replays checkpoint schedules for synthetic tasks
// under both controllers; Theorem 2 predicts identical schedules with
// one recomputation (adaptive) versus one per checkpoint (naive).
func AblationTheorem2(o Opts) (*AblationTheorem2Result, error) {
	tr := trace.Generate(trace.DefaultGenConfig(o.Seed, o.jobs(400)))
	est := trace.BuildEstimator(tr, trace.DefaultLengthLimits)
	res := &AblationTheorem2Result{}
	for _, task := range tr.Tasks() {
		e := trace.EstimateFor(est, task, trace.DefaultLengthLimits)
		if e.MNOF <= 0 {
			continue
		}
		c := 1.0
		adaptive := core.NewAdaptive(task.LengthSec, c, e, true)
		res.Tasks++
		res.RecomputesAdaptive += adaptive.Recomputes()

		// Naive controller: recompute Formula 3 on the remaining work
		// after every checkpoint.
		remaining := task.LengthSec
		mnof := e.MNOF
		naiveSpacing := []float64{}
		x := core.OptimalIntervalCount(remaining, mnof, c)
		x = core.ClampIntervals(x, remaining, c)
		for x > 1 {
			res.RecomputesNaive++
			w := remaining / float64(x)
			naiveSpacing = append(naiveSpacing, w)
			mnof *= (remaining - w) / remaining
			remaining -= w
			x = core.OptimalIntervalCount(remaining, mnof, c)
			x = core.ClampIntervals(x, remaining, c)
		}
		res.RecomputesNaive++ // the final evaluation that returns x == 1

		// Adaptive schedule.
		var adaptiveSpacing []float64
		for adaptive.ShouldCheckpoint() {
			adaptiveSpacing = append(adaptiveSpacing, adaptive.NextCheckpointIn())
			adaptive.OnCheckpoint()
		}
		res.CheckpointsPlanned += len(adaptiveSpacing)

		if len(adaptiveSpacing) != len(naiveSpacing) {
			res.PlanDivergences++
			continue
		}
		for i := range adaptiveSpacing {
			dev := adaptiveSpacing[i] - naiveSpacing[i]
			if dev < 0 {
				dev = -dev
			}
			if dev > res.SpacingMaxDeviation {
				res.SpacingMaxDeviation = dev
			}
		}
	}
	if res.Tasks == 0 {
		return nil, fmt.Errorf("ablation-theorem2: no tasks with positive MNOF")
	}
	return res, nil
}

// String renders the counts.
func (r *AblationTheorem2Result) String() string {
	var b strings.Builder
	b.WriteString("Ablation: Theorem 2 recomputation saving\n")
	fmt.Fprintf(&b, "tasks: %d, checkpoints planned: %d\n", r.Tasks, r.CheckpointsPlanned)
	fmt.Fprintf(&b, "Formula 3 evaluations: adaptive %d vs naive %d\n",
		r.RecomputesAdaptive, r.RecomputesNaive)
	fmt.Fprintf(&b, "plan divergences: %d, max spacing deviation: %.2e s\n",
		r.PlanDivergences, r.SpacingMaxDeviation)
	return b.String()
}
