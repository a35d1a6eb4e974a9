package predict

import (
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

func traceFor(n int) *trace.Trace {
	return trace.Generate(trace.DefaultGenConfig(31, n))
}

// tasksOf returns every task of tr as a value.
func tasksOf(tr *trace.Trace) []trace.Task {
	var out []trace.Task
	for h := range tr.Tasks() {
		out = append(out, tr.Task(h))
	}
	return out
}

// none is a view of tr that selects no job.
func none(tr *trace.Trace) *trace.Trace {
	return tr.Filter(func(uint32) bool { return false })
}

func TestExactPredictor(t *testing.T) {
	for _, task := range tasksOf(traceFor(50)) {
		if got := (Exact{}).Predict(task); got != task.LengthSec {
			t.Fatalf("Exact.Predict = %v, want %v", got, task.LengthSec)
		}
	}
	if Evaluate(Exact{}, traceFor(50)) != 0 {
		t.Fatal("Exact predictor has nonzero error")
	}
}

func TestNoisyPredictorErrorScalesWithSigma(t *testing.T) {
	tr := traceFor(400)
	tasks := tasksOf(tr)
	small := Evaluate(Noisy{Sigma: 0.1}, tr)
	large := Evaluate(Noisy{Sigma: 0.8}, tr)
	if small <= 0 || large <= small {
		t.Fatalf("noise error not increasing: sigma 0.1 -> %v, sigma 0.8 -> %v", small, large)
	}
	// Mean-one noise: predictions must be unbiased within tolerance.
	var sumRatio float64
	p := Noisy{Sigma: 0.4}
	for _, task := range tasks {
		sumRatio += p.Predict(task) / task.LengthSec
	}
	if mean := sumRatio / float64(len(tasks)); math.Abs(mean-1) > 0.1 {
		t.Fatalf("noisy predictor biased: mean ratio %v", mean)
	}
}

func TestNoisyDeterministicPerTask(t *testing.T) {
	tasks := tasksOf(traceFor(20))
	p := Noisy{Sigma: 0.5}
	for _, task := range tasks {
		if p.Predict(task) != p.Predict(task) {
			t.Fatal("noisy prediction not deterministic")
		}
	}
}

func TestNoisyZeroSigmaIsExact(t *testing.T) {
	task := tasksOf(traceFor(1))[0]
	if got := (Noisy{}).Predict(task); got != task.LengthSec {
		t.Fatalf("sigma=0 prediction %v != %v", got, task.LengthSec)
	}
}

func TestRegressionLearnsQuadraticFeature(t *testing.T) {
	tr := traceFor(800)
	train := tr.Filter(func(j uint32) bool { return j < 400 })
	test := tr.Filter(func(j uint32) bool { return j >= 400 })
	reg, err := TrainRegression(train, 2)
	if err != nil {
		t.Fatal(err)
	}
	mare := Evaluate(reg, test)
	// The generator's feature noise is ~5% on sqrt(L), so ~10% on L;
	// the regression should land near that floor.
	if mare > 0.25 {
		t.Fatalf("regression MARE = %v, want < 0.25", mare)
	}
	// And it must beat a badly noisy parser.
	if noisy := Evaluate(Noisy{Sigma: 1.0}, test); mare >= noisy {
		t.Fatalf("regression (%v) not better than sigma-1 noise (%v)", mare, noisy)
	}
}

func TestRegressionFallsBackWithoutFeature(t *testing.T) {
	reg, err := TrainRegression(traceFor(200), 2)
	if err != nil {
		t.Fatal(err)
	}
	bare := trace.Task{ID: "x", JobID: "x", Priority: 1, LengthSec: 123, MemMB: 10}
	if got := reg.Predict(bare); got != 123 {
		t.Fatalf("fallback prediction = %v, want true length", got)
	}
}

func TestTrainRegressionErrors(t *testing.T) {
	if _, err := TrainRegression(none(traceFor(5)), 2); err == nil {
		t.Fatal("empty training set accepted")
	}
	one, err := trace.Read(strings.NewReader(`{"id":"a","structure":"ST","tasks":[` +
		`{"id":"a.t","job_id":"a","priority":1,"length_sec":10,"mem_mb":1,"input_units":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainRegression(one, 2); err == nil {
		t.Fatal("underdetermined training set accepted")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	if !math.IsNaN(Evaluate(Exact{}, none(traceFor(5)))) {
		t.Fatal("Evaluate on empty set should be NaN")
	}
}

func TestPredictorNames(t *testing.T) {
	if (Exact{}).Name() != "exact" {
		t.Fatal("Exact name")
	}
	if (Noisy{Sigma: 0.5}).Name() != "noisy(0.5)" {
		t.Fatalf("Noisy name = %q", Noisy{Sigma: 0.5}.Name())
	}
}
