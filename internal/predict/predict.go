// Package predict implements the workload-prediction stage of the
// paper's job-processing pipeline: "a job is submitted and analyzed by
// job parser, in order to predict the job workload based on its input
// parameters", citing polynomial-regression prediction [22] and
// history-based estimation [25].
//
// The checkpointing policies consume the predicted productive length
// Te; a wrong prediction shifts the planned interval count by the
// square-root of the error (Formula 3), which makes the policies
// fairly robust — the sensitivity is quantified by the prediction
// ablation benchmark.
package predict

import (
	"fmt"
	"math"

	"repro/internal/simeng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Predictor estimates a task's productive length in seconds.
type Predictor interface {
	Name() string
	Predict(t trace.Task) float64
}

// Exact returns the true length — the idealized parser every other
// experiment uses implicitly.
type Exact struct{}

// Name implements Predictor.
func (Exact) Name() string { return "exact" }

// Predict implements Predictor.
func (Exact) Predict(t trace.Task) float64 { return t.LengthSec }

// Noisy multiplies the true length by mean-one log-normal noise with
// the given log-scale Sigma, modeling an imperfect parser. The noise is
// derived deterministically from the task's FailureSeed so repeated
// runs agree.
type Noisy struct {
	Sigma float64
}

// Name implements Predictor.
func (n Noisy) Name() string { return fmt.Sprintf("noisy(%.2g)", n.Sigma) }

// Predict implements Predictor.
func (n Noisy) Predict(t trace.Task) float64 {
	if n.Sigma <= 0 {
		return t.LengthSec
	}
	// A private stream keyed off the failure seed, decorrelated from
	// the failure draws by a fixed tweak.
	rng := simeng.NewRNG(t.FailureSeed ^ 0xabcdef1234567890)
	z := rng.NormFloat64()
	// exp(sigma*z - sigma^2/2) has mean one.
	factor := math.Exp(n.Sigma*z - n.Sigma*n.Sigma/2)
	v := t.LengthSec * factor
	if v < 1 {
		v = 1
	}
	return v
}

// Regression predicts length from the task's InputUnits feature using a
// polynomial fitted to completed-task history — the paper's reference
// [22] made concrete. The fit is performed in log-log space: task
// lengths span three decades, so a raw-space least-squares fit would be
// dominated by the few longest tasks and carry large *relative* errors
// on the short majority — exactly the tasks the policies care about.
type Regression struct {
	poly   stats.Polynomial
	degree int
	n      int
}

// TrainRegression fits a polynomial of the given degree to the
// (ln InputUnits, ln LengthSec) pairs of the training trace's tasks.
// Tasks without a feature are skipped; an error is returned if fewer
// than degree+1 usable pairs remain.
func TrainRegression(tr *trace.Trace, degree int) (*Regression, error) {
	var xs, ys []float64
	for h := range tr.Tasks() {
		if in, l := tr.Input[h], tr.Len[h]; in > 0 && l > 0 {
			xs = append(xs, math.Log(in))
			ys = append(ys, math.Log(l))
		}
	}
	poly, err := stats.FitPolynomial(xs, ys, degree)
	if err != nil {
		return nil, fmt.Errorf("predict: training failed: %w", err)
	}
	return &Regression{poly: poly, degree: degree, n: len(xs)}, nil
}

// Name implements Predictor.
func (r *Regression) Name() string {
	return fmt.Sprintf("regression(deg=%d,n=%d)", r.degree, r.n)
}

// Predict implements Predictor. Tasks without a feature fall back to
// their true length (the parser would refuse them; the engine needs a
// number).
func (r *Regression) Predict(t trace.Task) float64 {
	if t.InputUnits <= 0 {
		return t.LengthSec
	}
	v := math.Exp(r.poly.Eval(math.Log(t.InputUnits)))
	if v < 1 {
		v = 1
	}
	return v
}

// Evaluate returns the mean absolute relative error of a predictor over
// a trace's tasks.
func Evaluate(p Predictor, tr *trace.Trace) float64 {
	if tr.NumTasks() == 0 {
		return math.NaN()
	}
	var sum float64
	for h := range tr.Tasks() {
		sum += math.Abs(p.Predict(tr.Task(h))-tr.Len[h]) / tr.Len[h]
	}
	return sum / float64(tr.NumTasks())
}
