package metrics

import (
	"math"
	"testing"

	"repro/internal/simeng"
)

func normalSample(n int, mu, sigma float64, seed uint64) []float64 {
	r := simeng.NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mu + sigma*r.NormFloat64()
	}
	return xs
}

// contains reports whether v lies inside the interval.
func contains(iv Interval, v float64) bool { return v >= iv.Lo && v <= iv.Hi }

func TestBootstrapMeanCoversTruth(t *testing.T) {
	xs := normalSample(400, 10, 2, 1)
	iv, err := BootstrapMean(xs, 0.95, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !contains(iv, 10) {
		t.Fatalf("95%% interval [%v, %v] misses the true mean 10", iv.Lo, iv.Hi)
	}
	if iv.Lo >= iv.Hi {
		t.Fatalf("degenerate interval %+v", iv)
	}
	if math.Abs(iv.Point-10) > 0.5 {
		t.Fatalf("point estimate %v", iv.Point)
	}
	// Width sanity: ~2 * 1.96 * sigma/sqrt(n) ~ 0.39.
	if w := iv.Hi - iv.Lo; w < 0.2 || w > 0.8 {
		t.Fatalf("interval width %v implausible", w)
	}
}

func TestBootstrapMeanDeterministic(t *testing.T) {
	xs := normalSample(100, 0, 1, 3)
	a, _ := BootstrapMean(xs, 0.9, 200, 7)
	b, _ := BootstrapMean(xs, 0.9, 200, 7)
	if a != b {
		t.Fatal("same-seed bootstrap differs")
	}
}

func TestComparePaired(t *testing.T) {
	// a beats b by 0.02 on every pair plus noise.
	r := simeng.NewRNG(10)
	n := 400
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		base := 0.9 + 0.05*r.NormFloat64()
		b[i] = base
		a[i] = base + 0.02 + 0.01*r.NormFloat64()
	}
	cmp, err := ComparePaired(a, b, 0.95, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.N != n {
		t.Fatalf("N = %d", cmp.N)
	}
	if contains(cmp.MeanDiff, 0) || !contains(cmp.MeanDiff, 0.02) {
		t.Fatalf("paired interval wrong: %+v", cmp.MeanDiff)
	}
	if cmp.FracAWins < 0.9 {
		t.Fatalf("FracAWins = %v", cmp.FracAWins)
	}
	if cmp.SignTestP > 1e-6 {
		t.Fatalf("sign test p = %v, expected tiny", cmp.SignTestP)
	}
}

func TestComparePairedExchangeable(t *testing.T) {
	r := simeng.NewRNG(12)
	n := 300
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	cmp, err := ComparePaired(a, b, 0.95, 300, 13)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SignTestP < 0.01 {
		t.Fatalf("exchangeable samples rejected: p = %v", cmp.SignTestP)
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := BootstrapMean([]float64{1}, 0.95, 100, 1); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := BootstrapMean([]float64{1, 2}, 1.5, 100, 1); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := BootstrapMean([]float64{1, 2}, 0.95, 5, 1); err == nil {
		t.Error("too few resamples accepted")
	}
	if _, err := ComparePaired([]float64{1, 2}, []float64{1}, 0.95, 100, 1); err == nil {
		t.Error("misaligned pairs accepted")
	}
}

func TestSignTestPBounds(t *testing.T) {
	if p := signTestP(0, 0); p != 1 {
		t.Fatalf("no-data p = %v", p)
	}
	for _, wl := range [][2]int{{10, 10}, {15, 5}, {100, 0}} {
		p := signTestP(wl[0], wl[1])
		if p < 0 || p > 1 {
			t.Fatalf("p(%v) = %v out of [0,1]", wl, p)
		}
	}
	if signTestP(100, 0) >= signTestP(60, 40) {
		t.Fatal("p-value not decreasing with imbalance")
	}
}
