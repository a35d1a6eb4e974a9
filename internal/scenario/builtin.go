package scenario

import "repro/internal/engine"

// The built-in catalog: the paper's canonical setups plus cloud
// workloads beyond its figures. Each is runnable directly from the CLI
// (cloudsim -scenario <name>) and usable as a sweep building block.
func init() {
	for _, s := range []Scenario{
		{
			Name:        "baseline-f3",
			Description: "default Google-like workload under Formula 3, priority-based estimates",
			Policy:      "formula3",
		},
		{
			Name:        "baseline-young",
			Description: "default workload under Young's formula — the paper's main baseline",
			Policy:      "young",
		},
		{
			Name:        "baseline-daly",
			Description: "default workload under Daly's higher-order MTBF formula",
			Policy:      "daly",
		},
		{
			Name:        "no-checkpoint",
			Description: "default workload without checkpointing — the WPR floor",
			Policy:      "none",
		},
		{
			Name:        "oracle-f3",
			Description: "Formula 3 fed each task's exact failure statistics (Table 6's precise prediction)",
			Policy:      "formula3",
			Engine:      engine.Config{Estimates: engine.EstimateOracle},
		},
		{
			Name:        "short-tasks-f3",
			Description: "restricted-length workload (tasks <= 1000 s) under Formula 3 (Figures 11-13 regime)",
			Policy:      "formula3",
			Workload:    Workload{MaxTaskLengthSec: 1000},
		},
		{
			Name:        "priority-flip-dynamic",
			Description: "every task flips priority mid-run; adaptive MNOF replanning (Figure 14 dynamic)",
			Policy:      "formula3",
			Engine:      engine.Config{Dynamic: true},
			Workload:    Workload{PriorityChangeFraction: 1},
		},
		{
			Name:        "priority-flip-static",
			Description: "every task flips priority mid-run; initial plan kept (Figure 14 static)",
			Policy:      "formula3",
			Workload:    Workload{PriorityChangeFraction: 1},
		},
		{
			Name:        "hostfail-storm",
			Description: "a host crash every 300 s on average on top of task-level failures",
			Policy:      "formula3",
			Engine:      engine.Config{HostMTBF: 300},
		},
		{
			Name:        "nonblocking-f3",
			Description: "Formula 3 with checkpoint writes overlapped in a separate thread (Algorithm 1 line 7)",
			Policy:      "formula3",
			Engine:      engine.Config{NonBlockingCheckpoints: true},
		},
		{
			Name: "spot-market",
			Description: "spot-instance cloud: short BoT-heavy batch work, no service tier, " +
				"VM reclamations modeled as host crashes every 30 min",
			Policy: "formula3",
			Workload: Workload{
				BoTFraction:      0.8,
				MaxTaskLengthSec: 2 * 3600,
				ServiceFraction:  -1,
			},
			Engine: engine.Config{HostMTBF: 1800},
		},
		{
			Name: "mapreduce-burst",
			Description: "bursty analytics tier: almost pure bag-of-tasks jobs arriving four times faster " +
				"than the paper's default",
			Policy: "formula3",
			Workload: Workload{
				BoTFraction: 0.95,
				ArrivalRate: 0.48,
			},
		},
		{
			Name: "dispatch-storm",
			Description: "dispatch stress: a flood of short bag-of-tasks work arriving eight times faster " +
				"than the default keeps the pending queue thousands of tasks deep",
			Policy: "formula3",
			Workload: Workload{
				BoTFraction:      0.95,
				ArrivalRate:      0.96,
				MaxTaskLengthSec: 1800,
				ServiceFraction:  -1,
			},
		},
		{
			Name: "bigmem-headofline",
			Description: "dispatch stress: memory demands up to most of a host, so blocked big-memory heads " +
				"leave first-fit to place smaller tasks queued behind them",
			Policy: "formula3",
			Workload: Workload{
				BoTFraction:     0.6,
				ArrivalRate:     0.48,
				MaxTaskMemMB:    6144,
				ServiceFraction: -1,
			},
		},
		{
			Name:        "hpc-long-jobs",
			Description: "HPC-like tier: hour-to-six-hour sequential tasks checkpointing to the shared disk",
			Policy:      "formula3",
			Workload: Workload{
				BoTFraction:      -1,
				MinTaskLengthSec: 3600,
			},
			Engine: engine.Config{Mode: engine.StorageShared},
		},
	} {
		Register(s)
	}
}
