// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4 characterization and Section 5 performance
// study). Each experiment is a function from options to a printable
// result struct; all are deterministic given Opts.Seed, for any
// Opts.Parallel worker count.
//
// Engine-driven experiments are declared as scenario lists and executed
// through the internal/sweep worker pool, so a figure's runs (two
// formulas, a policy ladder, a crash-rate sweep) fan out across cores
// while remaining byte-identical to a serial run.
//
// The registry lists experiment ids ("fig9", "table6", ...) with their
// runners, in paper order, so the cloudsim CLI and the benchmark
// harness share one entry point.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// Opts parameterizes an experiment run.
type Opts struct {
	// Seed drives all randomness.
	Seed uint64
	// Jobs scales trace-driven experiments; 0 selects each experiment's
	// default (sized to finish in seconds on a laptop).
	Jobs int
	// Parallel is the sweep worker-pool size (0 means GOMAXPROCS).
	// Results are byte-identical for every value; only wall-clock
	// changes.
	Parallel int
	// Ctx, when non-nil, cancels engine-driven sweeps cooperatively:
	// once done, the experiment returns its error instead of a result.
	Ctx context.Context
}

func (o Opts) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Opts) jobs(def int) int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return def
}

// Runner executes one experiment.
type Runner func(Opts) (fmt.Stringer, error)

// registry lists every experiment in the paper's presentation order:
// the Section 4 characterization first (trace analyses, then the
// BLCR/storage micro-benchmarks), the Section 5 evaluation next, and
// this repository's ablations — which have no paper counterpart — last.
var registry = []struct {
	id  string
	run Runner
}{
	{"fig4", func(o Opts) (fmt.Stringer, error) { return Fig4(o) }},
	{"fig5", func(o Opts) (fmt.Stringer, error) { return Fig5(o) }},
	{"fig7", func(o Opts) (fmt.Stringer, error) { return Fig7(o) }},
	{"fig8", func(o Opts) (fmt.Stringer, error) { return Fig8(o) }},
	{"table2", func(o Opts) (fmt.Stringer, error) { return Table2(o) }},
	{"table3", func(o Opts) (fmt.Stringer, error) { return Table3(o) }},
	{"table4", func(o Opts) (fmt.Stringer, error) { return Table4(o) }},
	{"table5", func(o Opts) (fmt.Stringer, error) { return Table5(o) }},
	{"fig9", func(o Opts) (fmt.Stringer, error) { return Fig9(o) }},
	{"fig10", func(o Opts) (fmt.Stringer, error) { return Fig10(o) }},
	{"fig11", func(o Opts) (fmt.Stringer, error) { return Fig11(o) }},
	{"fig12", func(o Opts) (fmt.Stringer, error) { return Fig12(o) }},
	{"fig13", func(o Opts) (fmt.Stringer, error) { return Fig13(o) }},
	{"fig14", func(o Opts) (fmt.Stringer, error) { return Fig14(o) }},
	{"table6", func(o Opts) (fmt.Stringer, error) { return Table6(o) }},
	{"table7", func(o Opts) (fmt.Stringer, error) { return Table7(o) }},

	{"ablation-daly", func(o Opts) (fmt.Stringer, error) { return AblationDaly(o) }},
	{"ablation-storage", func(o Opts) (fmt.Stringer, error) { return AblationStorage(o) }},
	{"ablation-theorem2", func(o Opts) (fmt.Stringer, error) { return AblationTheorem2(o) }},
	{"ablation-prediction", func(o Opts) (fmt.Stringer, error) { return AblationPrediction(o) }},
	{"ablation-hostfail", func(o Opts) (fmt.Stringer, error) { return AblationHostFailures(o) }},
	{"ablation-nonblocking", func(o Opts) (fmt.Stringer, error) { return AblationNonBlocking(o) }},
}

// Names returns the experiment ids in the paper's order (figures and
// tables as presented, ablations last).
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes a registered experiment by id.
func Run(id string, o Opts) (fmt.Stringer, error) {
	for _, e := range registry {
		if e.id != id {
			continue
		}
		if err := o.ctx().Err(); err != nil {
			return nil, err
		}
		return e.run(o)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, Names())
}

// runSweep executes scenario runs through the sweep worker pool sized
// by Opts.Parallel and unwraps the results in run order.
func runSweep(o Opts, runs []sweep.Run) ([]*engine.Result, error) {
	outs, err := sweep.ScenariosContext(o.ctx(), runs, sweep.Options{Workers: o.Parallel})
	if err != nil {
		return nil, err
	}
	results := make([]*engine.Result, len(outs))
	for i, out := range outs {
		results[i] = out.Result
	}
	return results, nil
}

// pinned wraps a scenario into a sweep run that replays the
// experiment's own seed, so every scenario in the sweep sees the
// identical trace and failure processes — the paper's paired-comparison
// methodology.
func pinned(o Opts, sc scenario.Scenario) sweep.Run {
	return sweep.Run{Scenario: sc, Seed: o.Seed}
}

// runBothFormulas executes the same workload under Formula 3 and
// Young's formula with priority-based estimation — the paper's headline
// comparison shared by Figures 9-13 — as one two-scenario sweep.
//
// limits selects the estimation grouping: Figures 9-10 group by priority
// over all jobs (pass unlimitedOnly), while Figures 11-13 estimate from
// "corresponding short tasks based on priorities, in order to estimate
// MTBF with as small errors as possible" (pass nil for the default
// length-limit ladder). Statistics come from the full trace (including
// the long-running service tier); the replayed workload is the batch
// jobs, as in the paper's sampled-job methodology.
func runBothFormulas(o Opts, w scenario.Workload, limits []float64) (f3, young *engine.Result, err error) {
	if limits == nil {
		limits = trace.DefaultLengthLimits
	}
	results, err := runSweep(o, []sweep.Run{
		pinned(o, scenario.Scenario{Name: "formula3", Workload: w, Policy: "formula3", Engine: engine.Config{Limits: limits}}),
		pinned(o, scenario.Scenario{Name: "young", Workload: w, Policy: "young", Engine: engine.Config{Limits: limits}}),
	})
	if err != nil {
		return nil, nil, err
	}
	return results[0], results[1], nil
}

// unlimitedOnly is the Figures 9-10 estimation grouping: by priority
// only, no task-length stratification.
var unlimitedOnly = []float64{math.Inf(1)}

// shortTaskLimits is the Figures 11-13 estimation grouping. The paper
// estimates MTBF and MNOF "using corresponding short tasks based on
// priorities"; in the Google data even short-task MTBF is badly
// inflated by the Pareto tail. In this synthetic substrate a fully
// tight (<= 1000 s) grouping would censor that tail away entirely, so
// the restricted-length experiments group short tasks under the 1-hour
// limit, which preserves the inflation the paper observed while still
// excluding the service tier. See EXPERIMENTS.md for the discussion.
var shortTaskLimits = []float64{3600, math.Inf(1)}
