package dist

import (
	"math"
	"testing"

	"repro/internal/simeng"
)

func sample(d Distribution, n int, seed uint64) []float64 {
	r := simeng.NewRNG(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// FitAll must recover known parameters and BestFit must pick the
// generating family, for each family the paper fits.
func TestFitAllRecoversExponential(t *testing.T) {
	xs := sample(NewExponential(0.004), 5000, 1)
	res := FitAll(xs)
	fit, ok := res["Exponential"]
	if !ok || fit.Err != nil {
		t.Fatalf("exponential fit failed: %+v", fit.Err)
	}
	lambda := fit.Dist.(Exponential).Lambda
	if relErr(lambda, 0.004) > 0.1 {
		t.Errorf("fitted lambda %v, want ~0.004", lambda)
	}
	if best := BestFit(res); best != "Exponential" {
		t.Errorf("BestFit = %q on exponential data", best)
	}
}

func TestFitAllRecoversPareto(t *testing.T) {
	xs := sample(NewPareto(30, 1.1), 5000, 2)
	res := FitAll(xs)
	fit := res["Pareto"]
	if fit.Err != nil {
		t.Fatalf("pareto fit failed: %v", fit.Err)
	}
	p := fit.Dist.(Pareto)
	if relErr(p.Alpha, 1.1) > 0.1 {
		t.Errorf("fitted alpha %v, want ~1.1", p.Alpha)
	}
	if relErr(p.Xm, 30) > 0.05 {
		t.Errorf("fitted xm %v, want ~30", p.Xm)
	}
	if best := BestFit(res); best != "Pareto" {
		t.Errorf("BestFit = %q on Pareto data", best)
	}
}

func TestFitAllRecoversNormal(t *testing.T) {
	xs := sample(NewNormal(500, 40), 5000, 3)
	res := FitAll(xs)
	fit := res["Normal"]
	if fit.Err != nil {
		t.Fatalf("normal fit failed: %v", fit.Err)
	}
	nd := fit.Dist.(Normal)
	if relErr(nd.Mu, 500) > 0.02 || relErr(nd.Sigma, 40) > 0.1 {
		t.Errorf("fitted N(%v, %v), want ~N(500, 40)", nd.Mu, nd.Sigma)
	}
	if best := BestFit(res); best != "Normal" && best != "Laplace" {
		t.Errorf("BestFit = %q on normal data", best)
	}
}

func TestFitAllRecoversGeometric(t *testing.T) {
	xs := sample(NewGeometric(0.02), 5000, 4)
	res := FitAll(xs)
	fit := res["Geometric"]
	if fit.Err != nil {
		t.Fatalf("geometric fit failed: %v", fit.Err)
	}
	p := fit.Dist.(Geometric).P
	if relErr(p, 0.02) > 0.1 {
		t.Errorf("fitted p %v, want ~0.02", p)
	}
}

// Every family's CDF must agree with its own sampler: the KS distance
// of the generating family is small.
func TestKSDistanceBounds(t *testing.T) {
	for _, d := range []Distribution{
		NewExponential(0.01),
		NewPareto(25, 1.2),
		NewNormal(10, 3),
		NewLaplace(5, 2),
		NewGeometric(0.02),
		NewLogNormal(2, 0.8),
	} {
		if ks := KSDistance(d, sample(d, 2000, 5)); ks <= 0 || ks > 0.05 {
			t.Errorf("%T: KS of the generating family = %v, want small positive", d, ks)
		}
	}
	xs := sample(NewExponential(1), 2000, 5)
	// A grossly wrong model must score far worse.
	if bad := KSDistance(NewExponential(100), xs); bad < 0.5 {
		t.Errorf("KS of a wrong model = %v, want large", bad)
	}
}

func TestFitAllDegenerateSamples(t *testing.T) {
	for name, xs := range map[string][]float64{
		"empty":     nil,
		"singleton": {3},
	} {
		res := FitAll(xs)
		if len(res) != 5 {
			t.Fatalf("%s: %d families, want 5 (with errors)", name, len(res))
		}
		for fam, fit := range res {
			if fit.Err == nil {
				t.Errorf("%s: family %s fitted a degenerate sample", name, fam)
			}
			if !math.IsInf(fit.KS, 1) {
				t.Errorf("%s: failed fit %s has KS %v, want +Inf", name, fam, fit.KS)
			}
		}
		if best := BestFit(res); best != "" {
			t.Errorf("%s: BestFit = %q, want empty", name, best)
		}
	}
}

func TestFitAllRejectsNonPositiveForPositiveFamilies(t *testing.T) {
	res := FitAll([]float64{-1, 2, 3, 4})
	for _, fam := range []string{"Exponential", "Pareto", "Geometric"} {
		if res[fam].Err == nil {
			t.Errorf("%s accepted a negative sample", fam)
		}
	}
	for _, fam := range []string{"Normal", "Laplace"} {
		if res[fam].Err != nil {
			t.Errorf("%s rejected real-line data: %v", fam, res[fam].Err)
		}
	}
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	a := sample(NewPareto(30, 1.1), 100, 9)
	b := sample(NewPareto(30, 1.1), 100, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not reproducible for equal seeds")
		}
	}
}

func TestLogLikelihoodPrefersGeneratingFamily(t *testing.T) {
	xs := sample(NewExponential(0.01), 3000, 10)
	res := FitAll(xs)
	if res["Exponential"].LogLikelihood <= res["Normal"].LogLikelihood {
		t.Errorf("exponential logL %v not above normal %v on exponential data",
			res["Exponential"].LogLikelihood, res["Normal"].LogLikelihood)
	}
}
