package experiments

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/predict"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/tables"
)

// AblationPredictionResult quantifies the sensitivity of the two
// formulas to workload-prediction error: the paper's pipeline predicts
// each task's execution length with a job parser before planning
// checkpoints (Section 2, refs [22][25]); this experiment degrades the
// prediction and measures the WPR impact.
type AblationPredictionResult struct {
	// Rows maps predictor name -> (mean absolute relative error,
	// avg WPR F3, avg WPR Young) over failing jobs.
	Rows []PredictionRow
}

// PredictionRow is one predictor's outcome.
type PredictionRow struct {
	Predictor string
	MARE      float64
	WPRF3     float64
	WPRYoung  float64
}

// AblationPrediction runs both formulas under the exact parser, a
// trained polynomial-regression parser, and increasingly noisy parsers
// — one ten-scenario sweep over a shared trace. The regression parser
// trains on the replayed (service-free) workload first, then attaches
// to its scenarios as runtime state. Expected shape: Formula 3 degrades
// gracefully (the interval count scales with sqrt(Te), so relative
// error enters under a square root), and the regression parser lands
// near the exact one.
func AblationPrediction(o Opts) (*AblationPredictionResult, error) {
	w := scenario.Workload{Jobs: o.jobs(1200)}
	// Train the regression parser on the service-free history of the
	// same trace the sweep will replay. Generation is deterministic by
	// (seed, workload), so this local materialization and the sweep's
	// cached one are identical; sweep.DefaultJobs keeps the sizes in
	// agreement even if the workload ever stops pinning its own size.
	replay := w.Materialize(o.Seed, sweep.DefaultJobs).BatchJobs()
	reg, err := predict.TrainRegression(replay.Tasks(), 2)
	if err != nil {
		return nil, err
	}
	predictors := []engine.Predictor{
		predict.Exact{},
		reg,
		predict.Noisy{Sigma: 0.3},
		predict.Noisy{Sigma: 0.8},
		predict.Noisy{Sigma: 1.5},
	}

	runs := make([]sweep.Run, 0, 2*len(predictors))
	for _, p := range predictors {
		runs = append(runs,
			pinned(o, scenario.Scenario{
				Name:     fmt.Sprintf("formula3/%s", p.Name()),
				Workload: w, Policy: "formula3", Engine: engine.Config{Predictor: p},
			}),
			pinned(o, scenario.Scenario{
				Name:     fmt.Sprintf("young/%s", p.Name()),
				Workload: w, Policy: "young", Engine: engine.Config{Predictor: p},
			}))
	}
	results, err := runSweep(o, runs)
	if err != nil {
		return nil, err
	}

	res := &AblationPredictionResult{}
	for i, p := range predictors {
		f3, young := results[2*i], results[2*i+1]
		row := PredictionRow{
			Predictor: p.Name(),
			MARE:      predict.Evaluate(p.(predict.Predictor), replay.Tasks()),
			WPRF3:     f3.MeanWPR(engine.WithFailures),
			WPRYoung:  young.MeanWPR(engine.WithFailures),
		}
		if err := finite(row.WPRF3, row.WPRYoung); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	sort.SliceStable(res.Rows, func(i, j int) bool { return res.Rows[i].MARE < res.Rows[j].MARE })
	return res, nil
}

// String renders the sensitivity grid.
func (r *AblationPredictionResult) String() string {
	t := &tables.Table{
		Title:   "Ablation: workload-prediction sensitivity (failing jobs)",
		Headers: []string{"parser", "mean abs rel error", "avg WPR F3", "avg WPR Young"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Predictor, fmt.Sprintf("%.3f", row.MARE),
			tables.FmtFloat(row.WPRF3), tables.FmtFloat(row.WPRYoung))
	}
	return t.String()
}
