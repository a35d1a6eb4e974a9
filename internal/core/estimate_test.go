package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/simeng"
)

func TestHistoryEstimatorBasics(t *testing.T) {
	e := NewHistoryEstimator()
	if e.MNOF(1) != 0 || e.MTBF(1) != 0 || e.Tasks(1) != 0 {
		t.Fatal("empty estimator must return zeros")
	}
	e.ObserveTask(1, 2, []float64{100, 200})
	e.ObserveTask(1, 0, nil)
	if got := e.MNOF(1); got != 1 {
		t.Fatalf("MNOF = %v, want 1 (2 failures / 2 tasks)", got)
	}
	if got := e.MTBF(1); got != 150 {
		t.Fatalf("MTBF = %v, want 150", got)
	}
	if got := e.Tasks(1); got != 2 {
		t.Fatalf("Tasks = %d, want 2", got)
	}
}

func TestHistoryEstimatorGroupsIsolated(t *testing.T) {
	e := NewHistoryEstimator()
	e.ObserveTask(1, 5, []float64{10})
	e.ObserveTask(2, 0, []float64{99999})
	if e.MNOF(1) != 5 || e.MNOF(2) != 0 {
		t.Fatal("groups leaked")
	}
	if e.MTBF(1) != 10 || e.MTBF(2) != 99999 {
		t.Fatal("group intervals leaked")
	}
}

func TestHistoryEstimatorNegativeIntervalIgnored(t *testing.T) {
	e := NewHistoryEstimator()
	e.ObserveTask(1, 1, []float64{-5, 10})
	if e.MTBF(1) != 10 {
		t.Fatalf("MTBF = %v, negative interval not ignored", e.MTBF(1))
	}
}

func TestHistoryEstimatorPanicsOnNegativeFailures(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative failure count accepted")
		}
	}()
	NewHistoryEstimator().ObserveTask(1, -1, nil)
}

// The paper's Table 7 phenomenon: with Pareto intervals, MTBF estimated
// over all tasks is wildly larger than the MTBF governing short tasks,
// while MNOF stays comparable. Reproduce statistically.
func TestParetoTailInflatesMTBFNotMNOF(t *testing.T) {
	r := simeng.NewRNG(2024)
	heavy := dist.NewPareto(30, 0.9) // infinite mean

	eAll := NewHistoryEstimator()
	eShort := NewHistoryEstimator()
	for task := 0; task < 2000; task++ {
		var all, short []float64
		failuresAll, failuresShort := 0, 0
		for i := 0; i < 5; i++ {
			iv := heavy.Sample(r)
			all = append(all, iv)
			failuresAll++
			if iv <= 1000 {
				short = append(short, iv)
				failuresShort++
			}
		}
		eAll.ObserveTask(1, failuresAll, all)
		eShort.ObserveTask(1, failuresShort, short)
	}
	ratioMTBF := eAll.MTBF(1) / eShort.MTBF(1)
	ratioMNOF := eAll.MNOF(1) / math.Max(eShort.MNOF(1), 1e-9)
	if ratioMTBF < 3 {
		t.Fatalf("MTBF inflation ratio = %v, expected > 3 under Pareto tail", ratioMTBF)
	}
	if ratioMNOF > 2 {
		t.Fatalf("MNOF ratio = %v, expected ~stable (< 2)", ratioMNOF)
	}
}

func TestEstimateAccessor(t *testing.T) {
	e := NewHistoryEstimator()
	e.ObserveTask(7, 3, []float64{50})
	est := e.Estimate(7)
	if est.MNOF != 3 || est.MTBF != 50 {
		t.Fatalf("Estimate = %+v", est)
	}
}

func TestGroupKeyInjective(t *testing.T) {
	seen := make(map[int]bool)
	for limit := 0; limit < 4; limit++ {
		for pr := 1; pr <= 12; pr++ {
			k := GroupKey(pr, limit)
			if seen[k] {
				t.Fatalf("GroupKey collision at priority %d limit %d", pr, limit)
			}
			seen[k] = true
		}
	}
}
