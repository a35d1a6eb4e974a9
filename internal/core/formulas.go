package core

import (
	"fmt"
	"math"
)

// OptimalIntervals implements Theorem 1 (Formula 3): the optimal number
// of equidistant checkpointing intervals
//
//	x* = sqrt(Te * E(Y) / (2C)).
//
// The result is the real-valued optimizer of Equation 4; use
// RoundIntervals to obtain the best integer interval count. The formula
// holds for any failure distribution — only MNOF (= E(Y)) matters.
// It panics if Te < 0, mnof < 0, or c <= 0 (cost-free checkpoints make
// the optimum unbounded).
func OptimalIntervals(te, mnof, c float64) float64 {
	if te < 0 || mnof < 0 {
		panic(fmt.Sprintf("core: OptimalIntervals requires Te >= 0 and MNOF >= 0 (got %v, %v)", te, mnof))
	}
	if !(c > 0) {
		panic(fmt.Sprintf("core: OptimalIntervals requires C > 0, got %v", c))
	}
	return math.Sqrt(te * mnof / (2 * c))
}

// RoundIntervals converts the real-valued optimizer x to the integer
// interval count that minimizes Equation 4, by comparing the objective
// at floor(x) and ceil(x). The result is always >= 1 (one interval means
// no intermediate checkpoints).
func RoundIntervals(te, mnof, c, x float64) int {
	lo := math.Floor(x)
	hi := math.Ceil(x)
	if lo < 1 {
		lo = 1
	}
	if hi < 1 {
		hi = 1
	}
	if lo == hi {
		return int(lo)
	}
	if ExpectedWallClock(te, mnof, c, 0, lo) <= ExpectedWallClock(te, mnof, c, 0, hi) {
		return int(lo)
	}
	return int(hi)
}

// OptimalIntervalCount composes OptimalIntervals and RoundIntervals.
func OptimalIntervalCount(te, mnof, c float64) int {
	return RoundIntervals(te, mnof, c, OptimalIntervals(te, mnof, c))
}

// ExpectedWallClock implements Equation 4: the expected wall-clock time
// of a task checkpointed with x equidistant intervals,
//
//	E(Tw) = Te + C(x-1) + R*E(Y) + Te*E(Y)/(2x).
//
// The last term is the expected rollback loss: failures land uniformly
// within an interval of length Te/x, so each costs Te/(2x) on average.
// It panics if x < 1.
func ExpectedWallClock(te, mnof, c, r, x float64) float64 {
	if x < 1 {
		panic(fmt.Sprintf("core: ExpectedWallClock requires x >= 1, got %v", x))
	}
	return te + c*(x-1) + r*mnof + te*mnof/(2*x)
}

// ExpectedOverhead returns the expected fault-tolerance overhead
// (Equation 4 minus the productive time Te): C(x-1) + R*E(Y) + Te*E(Y)/(2x).
// It is the quantity compared between storage devices in Section 4.2.2.
func ExpectedOverhead(te, mnof, c, r, x float64) float64 {
	return ExpectedWallClock(te, mnof, c, r, x) - te
}

// YoungInterval implements Young's 1974 formula (Equation 6):
//
//	Tc = sqrt(2 * C * Tf)
//
// where Tf is the MTBF. It returns the optimal checkpointing *interval
// length* in seconds. It panics unless c > 0 and mtbf > 0.
func YoungInterval(c, mtbf float64) float64 {
	if !(c > 0) || !(mtbf > 0) {
		panic(fmt.Sprintf("core: YoungInterval requires C > 0 and MTBF > 0 (got %v, %v)", c, mtbf))
	}
	return math.Sqrt(2 * c * mtbf)
}

// DalyInterval implements Daly's 2006 higher-order approximation of the
// optimum checkpoint interval for exponential failures:
//
//	Topt = sqrt(2*C*Tf) * [1 + (1/3)*sqrt(C/(2Tf)) + (1/9)*(C/(2Tf))] - C   if C < 2*Tf
//	Topt = Tf                                                               otherwise
//
// It serves as the second classical baseline in the ablation benches.
func DalyInterval(c, mtbf float64) float64 {
	if !(c > 0) || !(mtbf > 0) {
		panic(fmt.Sprintf("core: DalyInterval requires C > 0 and MTBF > 0 (got %v, %v)", c, mtbf))
	}
	if c >= 2*mtbf {
		return mtbf
	}
	ratio := c / (2 * mtbf)
	return math.Sqrt(2*c*mtbf)*(1+math.Sqrt(ratio)/3+ratio/9) - c
}

// IntervalsFromLength converts a checkpoint interval length into an
// integer interval count for a task of length te: round(te/interval),
// clamped to >= 1. This is how MTBF-based formulas (Young, Daly) are
// applied to finite cloud tasks.
func IntervalsFromLength(te, interval float64) int {
	if !(interval > 0) || te <= 0 {
		return 1
	}
	x := math.Round(te / interval)
	if x < 1 {
		return 1
	}
	return int(x)
}

// MNOFFromMTBF approximates E(Y) = Te/Tf, the expected failure count
// over the productive length under a renewal process with mean interval
// Tf. Corollary 1 uses this to recover Young's formula from Formula 3.
func MNOFFromMTBF(te, mtbf float64) float64 {
	if !(mtbf > 0) {
		panic(fmt.Sprintf("core: MNOFFromMTBF requires MTBF > 0, got %v", mtbf))
	}
	if te < 0 {
		panic(fmt.Sprintf("core: MNOFFromMTBF requires Te >= 0, got %v", te))
	}
	return te / mtbf
}

// CheckpointPositions returns the x-1 checkpoint positions (in productive
// time, not wall-clock) of an equidistant plan with x intervals over a
// task of length te: te/x, 2te/x, ..., (x-1)te/x.
func CheckpointPositions(te float64, x int) []float64 {
	if x <= 1 || te <= 0 {
		return nil
	}
	pos := make([]float64, 0, x-1)
	step := te / float64(x)
	for i := 1; i < x; i++ {
		pos = append(pos, step*float64(i))
	}
	return pos
}

// StorageChoice identifies which checkpoint storage device Section 4.2.2
// selects.
type StorageChoice int

const (
	// ChooseLocal selects the VM-local ramdisk (lower checkpoint cost,
	// higher restart/migration cost — migration type A).
	ChooseLocal StorageChoice = iota
	// ChooseShared selects the shared disk (NFS/DM-NFS; higher checkpoint
	// cost, lower restart cost — migration type B).
	ChooseShared
)

func (s StorageChoice) String() string {
	if s == ChooseLocal {
		return "local-ramdisk"
	}
	return "shared-disk"
}

// StorageCosts bundles the per-device checkpoint/restart costs of
// Section 4.2.2. Cl/Rl are the local-ramdisk costs, Cs/Rs the
// shared-disk costs, in seconds.
type StorageCosts struct {
	Cl, Rl float64
	Cs, Rs float64
}

// CompareStorage evaluates the Section 4.2.2 rule: compute the per-device
// optimal interval counts Xl, Xs with Formula 3, then compare expected
// total overheads
//
//	Cl(Xl-1) + Rl*E(Y) + Te*E(Y)/(2 Xl)   versus
//	Cs(Xs-1) + Rs*E(Y) + Te*E(Y)/(2 Xs).
//
// It returns the chosen device and both overheads. The paper's worked
// example (Te=200 s, 160 MB, E(Y)=2) yields 28.29 vs 37.78 and picks the
// local ramdisk.
func CompareStorage(te, mnof float64, costs StorageCosts) (StorageChoice, float64, float64) {
	xl := OptimalIntervals(te, mnof, costs.Cl)
	xs := OptimalIntervals(te, mnof, costs.Cs)
	if xl < 1 {
		xl = 1
	}
	if xs < 1 {
		xs = 1
	}
	local := ExpectedOverhead(te, mnof, costs.Cl, costs.Rl, xl)
	shared := ExpectedOverhead(te, mnof, costs.Cs, costs.Rs, xs)
	if local < shared {
		return ChooseLocal, local, shared
	}
	return ChooseShared, local, shared
}
