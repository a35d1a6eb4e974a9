package core

// HistoryEstimator accumulates per-group failure history and produces
// the MNOF and MTBF estimates the two formulas consume. The paper
// groups tasks by priority (12 groups) and, for Table 7, additionally
// by task-length limit; the group key is an opaque int so callers can
// encode any scheme.
//
// MNOF is estimated as (total failures)/(tasks observed) — the paper's
// "mean number of failures of the task... estimated with the statistics
// computed based on history". MTBF is the mean of observed
// uninterrupted intervals.
//
// Only running aggregates are kept, never the samples: estimator queries
// sit on the engine's task-submission path, and both a per-query scan
// over millions of samples and the samples' own footprint would grow
// linearly with trace size.
type HistoryEstimator struct {
	groups map[int]*groupStats
}

type groupStats struct {
	tasks    int
	failures int
	// intervalSum/intervalCount accumulate in observation order, so the
	// O(1) MTBF below is bit-identical to summing the samples.
	intervalSum   float64
	intervalCount int
}

// NewHistoryEstimator returns an empty estimator.
func NewHistoryEstimator() *HistoryEstimator {
	return &HistoryEstimator{groups: make(map[int]*groupStats)}
}

// ObserveTask records one completed task in a group: how many failures
// struck it and the uninterrupted work intervals observed during its
// execution (for MTBF).
func (e *HistoryEstimator) ObserveTask(group, failures int, intervals []float64) {
	if failures < 0 {
		panic("core: ObserveTask with negative failure count")
	}
	g := e.groups[group]
	if g == nil {
		g = &groupStats{}
		e.groups[group] = g
	}
	g.tasks++
	g.failures += failures
	for _, iv := range intervals {
		if iv >= 0 {
			g.intervalSum += iv
			g.intervalCount++
		}
	}
}

// MNOF returns the mean number of failures per task for the group,
// or 0 if the group has no observations.
func (e *HistoryEstimator) MNOF(group int) float64 {
	g := e.groups[group]
	if g == nil || g.tasks == 0 {
		return 0
	}
	return float64(g.failures) / float64(g.tasks)
}

// MTBF returns the mean observed uninterrupted interval for the group,
// or 0 if no intervals were observed. Heavy-tailed interval samples
// (the Google Pareto tail) inflate this mean — the core failure mode of
// Young's formula the paper demonstrates. O(1): the sum accumulates at
// observation time.
func (e *HistoryEstimator) MTBF(group int) float64 {
	g := e.groups[group]
	if g == nil || g.intervalCount == 0 {
		return 0
	}
	return g.intervalSum / float64(g.intervalCount)
}

// Estimate returns the Estimate for a group (zero-valued if unseen).
func (e *HistoryEstimator) Estimate(group int) Estimate {
	return Estimate{MNOF: e.MNOF(group), MTBF: e.MTBF(group)}
}

// GroupKey encodes a (priority, length-limit index) pair into the int
// group key used by HistoryEstimator, supporting Table 7's two-way
// grouping. Priorities are 1-12; limitIdx is small (0-3).
func GroupKey(priority, limitIdx int) int { return limitIdx*100 + priority }
