package sim

import (
	"context"
	"encoding/json"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ExperimentOptions parameterizes experiment runs.
type ExperimentOptions struct {
	// Seed drives all randomness; the same seed reproduces every
	// experiment bit-for-bit.
	Seed uint64
	// Jobs scales trace-driven experiments; 0 selects each experiment's
	// default. It may not exceed MaxSpecJobs.
	Jobs int
	// Parallel is the worker-pool size (0 means GOMAXPROCS); output is
	// identical for every value.
	Parallel int
}

// Point is one (x, y) sample of a plottable curve.
type Point = stats.Point

// Curve is one named series of a figure's plottable data.
type Curve = stats.Curve

// ExperimentResult is one reproduced table or figure: its rendered text
// plus any plottable curves (CDFs). It marshals to JSON for
// machine-readable pipelines.
type ExperimentResult struct {
	// ID is the experiment id ("fig9", "table6", ...).
	ID string `json:"id"`
	// Text is the rendered table/figure, exactly as cloudsim prints it.
	Text string `json:"text"`
	// CurveData holds the plottable series behind CDF figures, sorted
	// by series name; empty for text-only results.
	CurveData []Curve `json:"curves,omitempty"`
}

// String returns the rendered text.
func (r *ExperimentResult) String() string { return r.Text }

// Curves returns the plottable series (nil for text-only results).
func (r *ExperimentResult) Curves() []Curve { return r.CurveData }

// ExperimentNames returns the experiment ids in the paper's
// presentation order (Section 4 characterization, Section 5 evaluation,
// this repository's ablations last).
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment executes one experiment by id. Canceling ctx stops
// engine-driven experiments at their next event chunk and returns
// ctx.Err().
func RunExperiment(ctx context.Context, id string, opts ExperimentOptions) (*ExperimentResult, error) {
	if err := checkJobs("sim: ExperimentOptions.Jobs", opts.Jobs); err != nil {
		return nil, err
	}
	res, err := experiments.Run(id, experiments.Opts{
		Seed:     opts.Seed,
		Jobs:     opts.Jobs,
		Parallel: opts.Parallel,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, err
	}
	out := &ExperimentResult{ID: id, Text: res.String()}
	if plotter, ok := res.(experiments.Plotter); ok {
		out.CurveData = plotter.Curves()
	}
	return out, nil
}

// ExperimentOutcome is one entry of a RunExperiments batch.
type ExperimentOutcome struct {
	ID string `json:"id"`
	// Result is nil when the experiment failed.
	Result *ExperimentResult `json:"result,omitempty"`
	// Elapsed is the experiment's wall-clock time.
	Elapsed time.Duration `json:"-"`
	// Err is non-nil when the experiment failed.
	Err error `json:"-"`
}

// MarshalJSON renders the outcome with the elapsed seconds and the
// error, when any, as plain values.
func (o ExperimentOutcome) MarshalJSON() ([]byte, error) {
	var errText string
	if o.Err != nil {
		errText = o.Err.Error()
	}
	return json.Marshal(struct {
		ID         string            `json:"id"`
		ElapsedSec float64           `json:"elapsed_sec"`
		Result     *ExperimentResult `json:"result,omitempty"`
		Error      string            `json:"error,omitempty"`
	}{o.ID, o.Elapsed.Seconds(), o.Result, errText})
}

// RunExperiments executes a batch of experiments across a worker pool.
// Parallelism is bounded by ExperimentOptions.Parallel in total: with a
// single id the inner scenario sweep owns the whole pool, with several
// the fan-out happens across experiments and each inner sweep runs
// serially. Outcomes land in index-addressed slots, so their order and
// content never depend on timing; failures are collected per outcome,
// never aborting siblings.
func RunExperiments(ctx context.Context, ids []string, opts ExperimentOptions) []ExperimentOutcome {
	workers := sweep.Workers(opts.Parallel)
	inner := 1
	if len(ids) == 1 {
		inner = workers
	}
	perExp := ExperimentOptions{Seed: opts.Seed, Jobs: opts.Jobs, Parallel: inner}
	outcomes, _ := sweep.MapContext(ctx, len(ids), workers, func(i int) (ExperimentOutcome, error) {
		t0 := time.Now()
		res, err := RunExperiment(ctx, ids[i], perExp)
		return ExperimentOutcome{ID: ids[i], Result: res, Elapsed: time.Since(t0), Err: err}, nil
	})
	// Outcomes skipped by cancellation still owe their id and error.
	if err := ctx.Err(); err != nil {
		for i := range outcomes {
			if outcomes[i].ID == "" {
				outcomes[i] = ExperimentOutcome{ID: ids[i], Err: err}
			}
		}
	}
	return outcomes
}

// WriteCurvesCSV writes curves in long format (series,x,y) — series
// sorted by name, points in order — ready for any plotting tool.
func WriteCurvesCSV(w io.Writer, curves []Curve) error {
	return stats.WriteCurvesCSV(w, curves)
}
