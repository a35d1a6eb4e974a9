package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dist"
	"repro/internal/simeng"
)

// GenConfig parameterizes the synthetic Google-like trace generator.
// Its fields are absolute: a zero BoTFraction means no bag-of-tasks
// jobs. Validate states what Generate requires of it.
type GenConfig struct {
	// Seed drives all randomness; identical configs produce identical
	// traces.
	Seed uint64
	// Jobs is the number of jobs to generate.
	Jobs int
	// ArrivalRate is the mean job arrival rate in jobs/second (Poisson
	// arrivals). The paper's one-day experiment processes ~10k jobs.
	ArrivalRate float64
	// BoTFraction is the fraction of bag-of-tasks jobs (the rest are
	// sequential-task jobs).
	BoTFraction float64
	// MaxTaskLengthSec truncates task lengths; 0 means the paper's
	// 6-hour job-length ceiling (Figure 8b).
	MaxTaskLengthSec float64
	// MinTaskLengthSec floors task lengths; 0 means 30 s.
	MinTaskLengthSec float64
	// MaxTaskMemMB caps per-task memory demands (MB); 0 means the
	// paper's 1000 MB VM limit (Figure 8a). Raising it toward the
	// per-host memory creates head-of-line-blocking dispatch regimes.
	MaxTaskMemMB float64
	// MinTaskMemMB floors per-task memory demands (MB); 0 means 10 MB.
	MinTaskMemMB float64
	// PriorityChangeFraction is the fraction of tasks whose priority
	// flips mid-execution (the Figure 14 scenario). 0 disables flips.
	PriorityChangeFraction float64
	// ServiceFraction is the fraction of jobs that are long-running
	// service tasks (half a day to a month). They model the Google
	// trace's service tier: rarely interrupted, with enormous
	// uninterrupted intervals that dominate the pooled per-priority MTBF
	// (Table 7's 179 s -> 4199 s inflation) while leaving the mean
	// number of failures per task (MNOF) almost unchanged. Negative
	// disables services; 0 selects the default 0.06.
	ServiceFraction float64
}

// The generator's default task bounds, applied wherever the
// corresponding GenConfig field is zero.
const (
	// defaultMinTaskLengthSec / defaultMaxTaskLengthSec bound task
	// lengths: 30 s to the paper's 6-hour job-length ceiling (Fig. 8b).
	defaultMinTaskLengthSec = 30.0
	defaultMaxTaskLengthSec = 6 * 3600.0
	// defaultMinTaskMemMB / defaultMaxTaskMemMB bound per-task memory:
	// 10 MB to the testbed's 1000 MB VM limit (Figure 8a).
	defaultMinTaskMemMB = 10.0
	defaultMaxTaskMemMB = 1000.0
)

// DefaultGenConfig returns the configuration used by the headline
// experiments: mixes and magnitudes follow Figure 8 and Section 5.1.
func DefaultGenConfig(seed uint64, jobs int) GenConfig {
	return GenConfig{
		Seed:        seed,
		Jobs:        jobs,
		ArrivalRate: 0.12, // ~10k jobs/day
		BoTFraction: 0.45,
	}
}

// orDefault returns v, or def when v is not positive.
func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

// lengthBounds returns the task-length bounds Generate clamps to, with
// the defaults in place of zero fields; memBounds likewise for memory.
func (cfg GenConfig) lengthBounds() (lo, hi float64) {
	return orDefault(cfg.MinTaskLengthSec, defaultMinTaskLengthSec),
		orDefault(cfg.MaxTaskLengthSec, defaultMaxTaskLengthSec)
}

func (cfg GenConfig) memBounds() (lo, hi float64) {
	return orDefault(cfg.MinTaskMemMB, defaultMinTaskMemMB),
		orDefault(cfg.MaxTaskMemMB, defaultMaxTaskMemMB)
}

// Validate reports the first of Generate's preconditions cfg breaks: no
// NaN in any float field, a positive Jobs and ArrivalRate, a
// BoTFraction in [0, 1], and task length and memory bounds whose
// maximum exceeds their minimum once the defaults replace zero fields.
// The error names the field and carries no package prefix, so callers
// add their own context.
func (cfg GenConfig) Validate() error {
	// Every comparison with NaN is false, so the checks below would let
	// one through.
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"ArrivalRate", cfg.ArrivalRate},
		{"BoTFraction", cfg.BoTFraction},
		{"MaxTaskLengthSec", cfg.MaxTaskLengthSec},
		{"MinTaskLengthSec", cfg.MinTaskLengthSec},
		{"MaxTaskMemMB", cfg.MaxTaskMemMB},
		{"MinTaskMemMB", cfg.MinTaskMemMB},
		{"PriorityChangeFraction", cfg.PriorityChangeFraction},
		{"ServiceFraction", cfg.ServiceFraction},
	} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("%s is NaN", f.name)
		}
	}
	if cfg.Jobs <= 0 {
		return fmt.Errorf("Jobs must be positive (got %d)", cfg.Jobs)
	}
	if cfg.ArrivalRate <= 0 {
		return fmt.Errorf("ArrivalRate must be positive (got %g)", cfg.ArrivalRate)
	}
	if cfg.BoTFraction < 0 || cfg.BoTFraction > 1 {
		return fmt.Errorf("BoTFraction %g is outside [0, 1]", cfg.BoTFraction)
	}
	if lo, hi := cfg.lengthBounds(); hi <= lo {
		return fmt.Errorf("task-length bounds inverted: MinTaskLengthSec %g s, MaxTaskLengthSec %g s after defaults", lo, hi)
	}
	if lo, hi := cfg.memBounds(); hi <= lo {
		return fmt.Errorf("task-memory bounds inverted: MinTaskMemMB %g MB, MaxTaskMemMB %g MB after defaults", lo, hi)
	}
	return nil
}

// priorityWeights approximates the priority mix of failure-affected
// Google jobs: most failing work sits in the low/batch priorities, with
// a visible priority-10 monitoring population. Priorities 4, 8, 11 and
// 12 carry no weight, matching the paper's note that those priorities
// had no usable failing jobs in the trace (Figure 10).
var priorityWeights = [13]float64{
	0, 22, 18, 9, 0, 7, 6, 16, 0, 4, 18, 0, 0,
}

// taskLength models Figure 8(b): most jobs are short (hundreds of
// seconds), with a tail out to ~6 hours. Log-normal body, truncated.
// Cloud tasks are much shorter than grid tasks (the paper cites [11]);
// the median sits around five minutes.
var taskLengthDist = dist.NewLogNormal(math.Log(300), 1.05)

// serviceLengthDist models the long-running service tier: lifetimes of
// roughly a day, out to the one-month trace horizon.
var serviceLengthDist = dist.NewLogNormal(math.Log(86400), 0.7)

// ServiceLengthBounds bound service-task lifetimes (seconds).
const (
	minServiceLength = 12 * 3600
	maxServiceLength = 30 * 86400
)

// taskMem models Figure 8(a): memory sizes concentrated well below
// 1000 MB with a median around 100-200 MB. Log-normal, truncated to
// [10, 1000] MB (the VM memory limit in the testbed).
var taskMemDist = dist.NewLogNormal(math.Log(120), 0.9)

// appendPadded appends i in decimal, zero-padded to at least width
// digits — the hand-rolled equivalent of fmt's %0*d for the generator
// loop.
func appendPadded(buf []byte, i, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendInt(tmp[:0], int64(i), 10)
	for pad := width - len(s); pad > 0; pad-- {
		buf = append(buf, '0')
	}
	return append(buf, s...)
}

// appendJobID appends job i's ID, "j%06d".
func appendJobID(buf []byte, i int) []byte { return appendPadded(append(buf, 'j'), i, 6) }

// appendTaskID appends the ID of task k of the job with ID jobID,
// "<jobID>.t%02d".
func appendTaskID(buf, jobID []byte, k int) []byte {
	return appendPadded(append(append(buf, jobID...), '.', 't'), k, 2)
}

// Generate produces a synthetic trace per cfg, writing it straight into
// the columns. The result is valid by construction: Read accepts what
// Write makes of it. It panics when cfg.Validate fails.
func Generate(cfg GenConfig) *Trace {
	if err := cfg.Validate(); err != nil {
		panic("trace: Generate: " + err.Error())
	}
	minLen, maxLen := cfg.lengthBounds()
	minMem, maxMem := cfg.memBounds()

	serviceFrac := cfg.ServiceFraction
	if serviceFrac == 0 {
		serviceFrac = 0.06
	}
	if serviceFrac < 0 {
		serviceFrac = 0
	}

	rng := simeng.NewRNG(cfg.Seed)
	arrivalRNG := rng.Split()
	shapeRNG := rng.Split()
	lenRNG := rng.Split()
	memRNG := rng.Split()
	prRNG := rng.Split()
	seedRNG := rng.Split()
	changeRNG := rng.Split()
	featRNG := rng.Split()

	// inputUnits derives the job-parser feature: task length is roughly
	// quadratic in the input size, with multiplicative measurement noise
	// so that regression predictors face realistic residuals.
	inputUnits := func(lengthSec float64) float64 {
		return math.Sqrt(lengthSec) * (1 + 0.05*featRNG.NormFloat64())
	}

	// Shapes first. Every job's tier, structure and task count come from
	// shapeRNG alone, so drawing them all up front changes no stream's
	// draw order, and it sizes every column and the ID arena exactly.
	n := cfg.Jobs
	tr := &Trace{
		Arrival:    make([]float64, n),
		FirstTask:  make([]uint32, n+1),
		Sequential: make([]bool, n),
		JobPrio:    make([]int, n),
	}
	service := make([]bool, n)
	var idBuf [32]byte
	tasks, idBytes := 0, 0
	for i := 0; i < n; i++ {
		tr.FirstTask[i] = uint32(tasks)
		nTasks := 1
		bot := false
		if service[i] = shapeRNG.Float64() < serviceFrac; service[i] {
			// Long-running service: a replica group of day-scale tasks,
			// like Google's always-on serving jobs.
			bot = shapeRNG.Float64() < 0.5
			nTasks = 4 + shapeRNG.Intn(9)
		} else if bot = shapeRNG.Float64() < cfg.BoTFraction; bot {
			// BoT sizes: geometric-ish, 2-24 tasks.
			nTasks = 2 + shapeRNG.Intn(23)
		} else if shapeRNG.Float64() < 0.35 {
			// A minority of ST jobs chain several tasks.
			nTasks = 2 + shapeRNG.Intn(4)
		}
		tr.Sequential[i] = !bot
		jobIDLen := len(appendJobID(idBuf[:0], i))
		// Task indexes stay below 100, so every task ID is the job's ID
		// plus ".tNN".
		idBytes += jobIDLen + nTasks*(jobIDLen+4)
		tasks += nTasks
	}
	tr.FirstTask[n] = uint32(tasks)
	tr.Len = make([]float64, tasks)
	tr.Mem = make([]float64, tasks)
	tr.Seed = make([]uint64, tasks)
	tr.ChangeFrac = make([]float64, tasks)
	tr.Input = make([]float64, tasks)
	tr.JobOf = make([]uint32, tasks)
	tr.Prio = make([]int8, tasks)
	tr.ChangePrio = make([]int8, tasks)
	tr.idOff = make([]uint32, 1, n+tasks+1)
	tr.tasks = tasks
	var ids strings.Builder
	ids.Grow(idBytes)
	var taskIDBuf [40]byte

	now := 0.0
	for i := 0; i < n; i++ {
		now += arrivalRNG.ExpFloat64() / cfg.ArrivalRate
		tr.Arrival[i] = now
		priority := samplePriority(prRNG)
		tr.JobPrio[i] = priority
		jobID := appendJobID(idBuf[:0], i)
		ids.Write(jobID)
		tr.idOff = append(tr.idOff, uint32(ids.Len()))
		first, limit := tr.TasksOf(uint32(i))
		for h := first; h < limit; h++ {
			ids.Write(appendTaskID(taskIDBuf[:0], jobID, int(h-first)))
			tr.idOff = append(tr.idOff, uint32(ids.Len()))
			tr.JobOf[h] = uint32(i)
			tr.Prio[h] = int8(priority)
		}

		if service[i] {
			// Replicas share a lifetime scale and contribute the bulk of
			// the long uninterrupted intervals in the per-priority
			// history.
			baseLen := clampedLogNormal(lenRNG, serviceLengthDist, minServiceLength, maxServiceLength)
			for h := first; h < limit; h++ {
				length := baseLen * (0.8 + 0.4*lenRNG.Float64())
				if length > maxServiceLength {
					length = maxServiceLength
				}
				tr.Len[h] = length
				tr.Mem[h] = clampedLogNormal(memRNG, taskMemDist, minMem, maxMem)
				tr.Input[h] = inputUnits(length)
				tr.Seed[h] = seedRNG.Uint64()
			}
			continue
		}

		// BoT tasks share a common scale (they are replicas of one
		// computation), ST tasks vary independently.
		baseLen := clampedLogNormal(lenRNG, taskLengthDist, minLen, maxLen)
		baseMem := clampedLogNormal(memRNG, taskMemDist, minMem, maxMem)
		for h := first; h < limit; h++ {
			length := baseLen
			mem := baseMem
			if tr.Sequential[i] {
				length = clampedLogNormal(lenRNG, taskLengthDist, minLen, maxLen)
				mem = clampedLogNormal(memRNG, taskMemDist, minMem, maxMem)
			} else {
				// Replicas differ slightly (input skew).
				length *= 0.85 + 0.3*lenRNG.Float64()
				if length < minLen {
					length = minLen
				}
				if length > maxLen {
					length = maxLen
				}
			}
			tr.Len[h] = length
			tr.Mem[h] = mem
			tr.Input[h] = inputUnits(length)
			tr.Seed[h] = seedRNG.Uint64()
			if cfg.PriorityChangeFraction > 0 && changeRNG.Float64() < cfg.PriorityChangeFraction {
				tr.ChangeFrac[h] = 0.5 // the paper flips once mid-execution
				tr.ChangePrio[h] = int8(samplePriority(changeRNG))
			}
		}
	}
	tr.ids = ids.String()
	return tr
}

func samplePriority(r *simeng.RNG) int {
	var total float64
	for _, w := range priorityWeights {
		total += w
	}
	u := r.Float64() * total
	for p := 1; p <= 12; p++ {
		u -= priorityWeights[p]
		if u < 0 {
			return p
		}
	}
	return 1
}

func clampedLogNormal(r *simeng.RNG, d dist.LogNormal, lo, hi float64) float64 {
	v := d.Sample(r)
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
