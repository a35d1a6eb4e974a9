package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/tables"
)

// AblationHostFailuresResult measures the policies under whole-host
// crashes in addition to task-level failures — the cloud counterpart of
// the paper's BlueGene/L motivation (a hard host failure every 7-10
// days at 100k nodes scales to short MTBFs on any sizable cluster).
type AblationHostFailuresResult struct {
	// Rows: one per host-MTBF setting.
	Rows []HostFailureRow
}

// HostFailureRow is one crash-rate configuration.
type HostFailureRow struct {
	HostMTBFSec float64 // 0 = no host failures
	WPRF3       float64
	WPRNone     float64
	FailuresF3  int
}

// AblationHostFailures sweeps host crash rates and compares Formula 3
// checkpointing against no checkpointing: one eight-scenario sweep
// (four crash rates, two policies) over a shared trace. Expected shape:
// the WPR of unprotected jobs collapses as crashes become frequent,
// while checkpointed jobs degrade slowly.
func AblationHostFailures(o Opts) (*AblationHostFailuresResult, error) {
	w := scenario.Workload{Jobs: o.jobs(800)}
	mtbfs := []float64{0, 5000, 1000, 300}
	runs := make([]sweep.Run, 0, 2*len(mtbfs))
	for _, mtbf := range mtbfs {
		runs = append(runs,
			pinned(o, scenario.Scenario{
				Name:     fmt.Sprintf("formula3/host-mtbf=%g", mtbf),
				Workload: w, Policy: "formula3", Engine: engine.Config{HostMTBF: mtbf},
			}),
			pinned(o, scenario.Scenario{
				Name:     fmt.Sprintf("none/host-mtbf=%g", mtbf),
				Workload: w, Policy: "none", Engine: engine.Config{HostMTBF: mtbf},
			}))
	}
	results, err := runSweep(o, runs)
	if err != nil {
		return nil, err
	}

	res := &AblationHostFailuresResult{}
	for i, mtbf := range mtbfs {
		f3, none := results[2*i], results[2*i+1]
		row := HostFailureRow{
			HostMTBFSec: mtbf,
			WPRF3:       f3.MeanWPR(engine.WithFailures),
			WPRNone:     none.MeanWPR(engine.WithFailures),
		}
		for _, jr := range f3.Jobs {
			row.FailuresF3 += jr.Failures()
		}
		if err := finite(row.WPRF3, row.WPRNone); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the crash-rate sweep.
func (r *AblationHostFailuresResult) String() string {
	t := &tables.Table{
		Title:   "Ablation: whole-host crashes (failing jobs)",
		Headers: []string{"host MTBF (s)", "avg WPR Formula(3)", "avg WPR None", "total failures (F3)"},
	}
	for _, row := range r.Rows {
		label := "off"
		if row.HostMTBFSec > 0 {
			label = tables.FmtFloat(row.HostMTBFSec)
		}
		t.AddRow(label, tables.FmtFloat(row.WPRF3), tables.FmtFloat(row.WPRNone),
			tables.FmtFloat(float64(row.FailuresF3)))
	}
	return t.String()
}
