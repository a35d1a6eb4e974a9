package sim

import (
	"context"

	"repro/internal/benchkit"
)

// The benchmark subsystem (the `simbench` CLI and the committed
// BENCH_<date>.json reports) measures registered scenarios at multiple
// trace scales: wall-clock, allocations, event throughput, and peak
// heap per cell, plus the allocation-budget comparison against the
// recorded pre-overhaul baseline. These aliases re-export the internal
// benchkit types so external tooling can run the matrix through the
// supported repro/sim surface.
type (
	// BenchConfig selects the benchmark matrix (see benchkit.Config).
	BenchConfig = benchkit.Config
	// BenchReport is the schema-stable matrix report.
	BenchReport = benchkit.Report
	// BenchMeasurement is one (scenario, scale) cell.
	BenchMeasurement = benchkit.Measurement
	// BenchCell names one off-matrix (scenario, jobs) measurement
	// (BenchConfig.ExtraCells).
	BenchCell = benchkit.Cell
	// BenchDerived holds a report's derived health metrics: per-scenario
	// scale-slowdown factors and saturated:unsaturated throughput ratios.
	BenchDerived = benchkit.Derived
)

// RunBench executes a benchmark matrix and assembles its report. Cell
// failures land in the cell's Error field; only an unknown scenario
// name fails the run. The caller stamps Report.CreatedAt.
func RunBench(ctx context.Context, cfg BenchConfig) (*BenchReport, error) {
	return benchkit.Run(ctx, cfg)
}

// BenchDefaultScales returns the committed-report trace sizes.
func BenchDefaultScales() []int { return benchkit.DefaultScales() }

// BenchFullScales returns the default scales plus the 100k-job tier.
func BenchFullScales() []int { return benchkit.FullScales() }

// BenchXLScales returns the full scales plus the 1M-job tier unlocked
// by the columnar memory layout. A full scenario matrix at this tier is
// hours of wall-clock: prefer a restricted scenario list or ExtraCells.
func BenchXLScales() []int { return benchkit.XLScales() }

// BenchSmokeScales returns the CI smoke-test trace sizes.
func BenchSmokeScales() []int { return benchkit.SmokeScales() }
