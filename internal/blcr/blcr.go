// Package blcr models the Berkeley Lab Checkpoint/Restart tool as the
// paper characterizes it on the Gideon-II cluster: per-checkpoint
// operation cost as a function of task memory size (Table 4, Figure 7),
// and task restarting cost per migration type (Table 5).
//
// The models are piecewise-linear interpolations through the paper's
// measured anchor points, with linear extrapolation beyond the measured
// range. That preserves both the magnitudes and the memory dependence
// that drive the Section 4.2.2 local-versus-shared decision.
package blcr

import (
	"fmt"
	"sort"
)

// MigrationType distinguishes how a failed task's checkpoint reaches its
// new host (Section 4.2.2).
type MigrationType int

const (
	// MigrationA restarts from a checkpoint kept in the failed VM's local
	// ramdisk: the memory must first be moved to a shared disk and then
	// to the new host, so restarting is slower.
	MigrationA MigrationType = iota
	// MigrationB restarts from a checkpoint already on a shared disk:
	// the new host reads it directly, so restarting is faster.
	MigrationB
)

func (m MigrationType) String() string {
	if m == MigrationA {
		return "migration-A(local)"
	}
	return "migration-B(shared)"
}

// curve is a piecewise-linear function through measured (x, y) anchors.
type curve struct {
	xs, ys []float64
}

func newCurve(points [][2]float64) curve {
	c := curve{
		xs: make([]float64, len(points)),
		ys: make([]float64, len(points)),
	}
	for i, p := range points {
		c.xs[i] = p[0]
		c.ys[i] = p[1]
	}
	if !sort.Float64sAreSorted(c.xs) {
		panic("blcr: curve anchors must have increasing x")
	}
	return c
}

// at evaluates the curve with linear interpolation and linear
// extrapolation from the end segments; results are floored at a small
// positive epsilon since costs are durations.
func (c curve) at(x float64) float64 {
	n := len(c.xs)
	var y float64
	switch {
	case x <= c.xs[0]:
		y = extrapolate(c.xs[0], c.ys[0], c.xs[1], c.ys[1], x)
	case x >= c.xs[n-1]:
		y = extrapolate(c.xs[n-2], c.ys[n-2], c.xs[n-1], c.ys[n-1], x)
	default:
		i := sort.SearchFloat64s(c.xs, x)
		if c.xs[i] == x {
			return c.ys[i]
		}
		y = extrapolate(c.xs[i-1], c.ys[i-1], c.xs[i], c.ys[i], x)
	}
	const floor = 1e-3
	if y < floor {
		return floor
	}
	return y
}

func extrapolate(x0, y0, x1, y1, x float64) float64 {
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}

// checkpointLocal models Figure 7(a): per-checkpoint cost on a VM-local
// ramdisk for 10–240 MB is 0.016–0.99 s and grows linearly with memory.
var checkpointLocal = newCurve([][2]float64{
	{10, 0.016},
	{240, 0.99},
})

// checkpointShared models Table 4: per-checkpoint operation time over
// the shared disk as measured with BLCR.
var checkpointShared = newCurve([][2]float64{
	{10.3, 0.33},
	{22.3, 0.42},
	{42.3, 0.60},
	{46.3, 0.66},
	{82.4, 1.46},
	{86.4, 1.75},
	{90.4, 2.09},
	{94.4, 2.34},
	{162, 3.68},
	{174, 4.95},
	{212, 5.47},
	{240, 6.83},
})

// checkpointNFSFig7 models Figure 7(b): per-checkpoint cost over plain
// NFS for 10–240 MB is 0.25–2.52 s. (Table 4's shared-disk operation
// time is the in-VM blocking time; Figure 7(b) is the wall-clock cost
// increment used by the policy, which is what matters for Formula 3.)
var checkpointNFSFig7 = newCurve([][2]float64{
	{10, 0.25},
	{160, 1.67}, // anchored to the Table 2 parallel-degree-1 average
	{240, 2.52},
})

// restartA models Table 5, migration type A (checkpoint in local
// ramdisk; restart requires staging through the shared disk).
var restartA = newCurve([][2]float64{
	{10, 0.71},
	{20, 0.84},
	{40, 1.23},
	{80, 1.87},
	{160, 3.22},
	{240, 5.69},
})

// restartB models Table 5, migration type B (checkpoint already on the
// shared disk).
var restartB = newCurve([][2]float64{
	{10, 0.37},
	{20, 0.49},
	{40, 0.54},
	{80, 0.86},
	{160, 1.45},
	{240, 2.4},
})

// CheckpointCostLocal returns the wall-clock cost (seconds) of one
// checkpoint of a task with the given memory footprint (MB) stored on
// the VM-local ramdisk, absent contention.
func CheckpointCostLocal(memMB float64) float64 {
	mustPositiveMem(memMB)
	return checkpointLocal.at(memMB)
}

// CheckpointCostNFS returns the uncontended wall-clock cost (seconds)
// of one checkpoint over the shared NFS disk.
func CheckpointCostNFS(memMB float64) float64 {
	mustPositiveMem(memMB)
	return checkpointNFSFig7.at(memMB)
}

// CheckpointOperationTime returns Table 4's in-VM operation time
// (seconds) of a checkpoint over the shared disk; taking the checkpoint
// in a separate thread (Algorithm 1 line 7) hides this from the
// countdown but not from the VM's CPU.
func CheckpointOperationTime(memMB float64) float64 {
	mustPositiveMem(memMB)
	return checkpointShared.at(memMB)
}

// RestartCost returns Table 5's task restarting cost (seconds) for the
// given memory footprint and migration type.
func RestartCost(memMB float64, mt MigrationType) float64 {
	mustPositiveMem(memMB)
	if mt == MigrationA {
		return restartA.at(memMB)
	}
	return restartB.at(memMB)
}

func mustPositiveMem(memMB float64) {
	if !(memMB > 0) {
		panic(fmt.Sprintf("blcr: memory size must be positive, got %v MB", memMB))
	}
}
