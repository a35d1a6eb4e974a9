package sim

import (
	"fmt"

	"repro/internal/blcr"
	"repro/internal/core"
	"repro/internal/simeng"
	"repro/internal/tables"
)

// OptimalIntervals returns the real-valued minimizer x* of the paper's
// Formula (3): sqrt(te*mnof/(2c)).
func OptimalIntervals(te, mnof, c float64) float64 {
	return core.OptimalIntervals(te, mnof, c)
}

// OptimalIntervalCount returns Formula (3) rounded to the integer
// minimizer of the expected wall-clock (Equation 4), at least 1.
func OptimalIntervalCount(te, mnof, c float64) int {
	return core.OptimalIntervalCount(te, mnof, c)
}

// CheckpointPositions returns the productive-time positions (seconds)
// of the x-1 equidistant checkpoints splitting te into x intervals.
func CheckpointPositions(te float64, x int) []float64 {
	return core.CheckpointPositions(te, x)
}

// ExpectedWallClock evaluates Equation 4: the expected wall-clock of a
// te-second task under x intervals, mnof expected failures, checkpoint
// cost c and restart cost r.
func ExpectedWallClock(te, mnof, c, r, x float64) float64 {
	return core.ExpectedWallClock(te, mnof, c, r, x)
}

// ExpectedOverhead is ExpectedWallClock minus the productive length.
func ExpectedOverhead(te, mnof, c, r, x float64) float64 {
	return core.ExpectedOverhead(te, mnof, c, r, x)
}

// YoungInterval returns Young's classical interval Tc = sqrt(2*c*mtbf).
func YoungInterval(c, mtbf float64) float64 { return core.YoungInterval(c, mtbf) }

// DalyInterval returns Daly's higher-order refinement of Young's
// interval.
func DalyInterval(c, mtbf float64) float64 { return core.DalyInterval(c, mtbf) }

// IntervalsFromLength converts an interval length into a whole interval
// count for a te-second task, at least 1.
func IntervalsFromLength(te, interval float64) int {
	return core.IntervalsFromLength(te, interval)
}

// CheckpointCostLocal returns the BLCR-derived cost (seconds) of
// writing a memMB checkpoint to the VM-local ramdisk.
func CheckpointCostLocal(memMB float64) float64 { return blcr.CheckpointCostLocal(memMB) }

// CheckpointCostShared returns the BLCR-derived cost (seconds) of
// writing a memMB checkpoint to shared NFS storage.
func CheckpointCostShared(memMB float64) float64 { return blcr.CheckpointCostNFS(memMB) }

// RestartCostLocal returns the cost (seconds) of restarting a memMB
// task from a local image (migration type A).
func RestartCostLocal(memMB float64) float64 {
	return blcr.RestartCost(memMB, blcr.MigrationA)
}

// RestartCostShared returns the cost (seconds) of restarting a memMB
// task from a shared image (migration type B).
func RestartCostShared(memMB float64) float64 {
	return blcr.RestartCost(memMB, blcr.MigrationB)
}

// StorageCosts carries the per-checkpoint (C) and per-restart (R)
// planning constants of the local and shared devices: Cl / Rl are the
// local-ramdisk checkpoint and restart costs, Cs / Rs the shared-disk
// ones, in seconds.
type StorageCosts = core.StorageCosts

// DefaultStorageCosts derives the BLCR cost constants for a memMB task.
func DefaultStorageCosts(memMB float64) StorageCosts {
	return StorageCosts{
		Cl: CheckpointCostLocal(memMB),
		Rl: RestartCostLocal(memMB),
		Cs: CheckpointCostShared(memMB),
		Rs: RestartCostShared(memMB),
	}
}

// StorageChoice is the Section 4.2.2 advisor's recommendation; its
// String names the recommended device.
type StorageChoice = core.StorageChoice

// CompareStorage applies the paper's Section 4.2.2 rule: under each
// device's own optimal plan, compare the expected total overheads of
// local and shared checkpointing for a te-second task with mnof
// expected failures. It returns the recommendation plus both expected
// overheads (seconds).
func CompareStorage(te, mnof float64, costs StorageCosts) (StorageChoice, float64, float64) {
	return core.CompareStorage(te, mnof, costs)
}

// StorageAdvice is the full Section 4.2.2 advisor verdict for one task.
type StorageAdvice struct {
	Choice StorageChoice `json:"choice"`
	Costs  StorageCosts  `json:"costs"`
	// LocalIntervals / SharedIntervals are each device's Formula (3)
	// optima x*; the overheads are the corresponding expected totals.
	LocalIntervals    float64 `json:"local_intervals"`
	SharedIntervals   float64 `json:"shared_intervals"`
	LocalOverheadSec  float64 `json:"local_overhead_sec"`
	SharedOverheadSec float64 `json:"shared_overhead_sec"`
}

// AdviseStorage runs the advisor for a te-second, memMB task with mnof
// expected failures, deriving costs from the BLCR models.
func AdviseStorage(te, mnof, memMB float64) StorageAdvice {
	costs := DefaultStorageCosts(memMB)
	choice, local, shared := CompareStorage(te, mnof, costs)
	return StorageAdvice{
		Choice:            choice,
		Costs:             costs,
		LocalIntervals:    OptimalIntervals(te, mnof, costs.Cl),
		SharedIntervals:   OptimalIntervals(te, mnof, costs.Cs),
		LocalOverheadSec:  local,
		SharedOverheadSec: shared,
	}
}

// String renders the advisor verdict as the ckptopt comparison table
// plus the recommendation line.
func (a StorageAdvice) String() string {
	t := &tables.Table{
		Title:   "Section 4.2.2 storage advisor",
		Headers: []string{"device", "C (s)", "R (s)", "x*", "expected overhead (s)"},
	}
	t.AddRowValues("local ramdisk", a.Costs.Cl, a.Costs.Rl, a.LocalIntervals, a.LocalOverheadSec)
	t.AddRowValues("shared disk", a.Costs.Cs, a.Costs.Rs, a.SharedIntervals, a.SharedOverheadSec)
	return t.String() + fmt.Sprintf("recommendation: %s\n", a.Choice)
}

// AdaptivePlan is the paper's Algorithm 1 controller for one task:
// an equidistant plan from Formula (3) that replans only when MNOF
// changes (Theorem 2 — checkpoint completions and rollbacks preserve
// the optimum). IntervalCount is the remaining interval count x,
// NextCheckpointIn the checkpoint spacing in productive seconds,
// Remaining the productive seconds left, and Recomputes how often the
// plan was recomputed; OnCheckpoint advances past a completed
// checkpoint and OnMNOFChange replans a dynamic controller (Algorithm 1
// lines 9-12).
type AdaptivePlan = core.Adaptive

// NewAdaptivePlan plans a te-second task with per-checkpoint cost c and
// initial statistics est. With dynamic false the initial plan is kept
// through MNOF changes (the static baseline).
func NewAdaptivePlan(te, c float64, est Estimate, dynamic bool) *AdaptivePlan {
	return core.NewAdaptive(te, c, est, dynamic)
}

// RNG is a deterministic SplitMix64-seeded xoshiro random stream — the
// generator behind every simulation draw, exposed so callers can seed
// their own tasks' failure processes (Task.FailureSeed) with the
// repository's reproducibility guarantees.
type RNG struct {
	r *simeng.RNG
}

// NewRNG returns a stream seeded by seed.
func NewRNG(seed uint64) *RNG { return &RNG{r: simeng.NewRNG(seed)} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 { return r.r.Uint64() }
