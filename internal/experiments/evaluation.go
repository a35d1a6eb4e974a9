package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/tables"
	"repro/internal/trace"
)

// Fig8Result holds the job memory/length distributions of Figure 8.
type Fig8Result struct {
	// MemCDF and LenCDF map a population name ("ST job", "BoT job",
	// "mixture of both") to CDF curve points.
	MemCDF map[string][]stats.Point
	LenCDF map[string][]stats.Point
	// Medians for quick inspection.
	MedianMemMB  map[string]float64
	MedianLenSec map[string]float64
}

// Fig8 reproduces Figure 8: the CDFs of job memory size and execution
// length for ST jobs, BoT jobs, and the mixture.
func Fig8(o Opts) (*Fig8Result, error) {
	tr := trace.Generate(trace.DefaultGenConfig(o.Seed, o.jobs(3000))).BatchJobs()
	pops := map[string]func(j uint32) bool{
		"ST job":          func(j uint32) bool { return tr.Sequential[j] },
		"BoT job":         func(j uint32) bool { return !tr.Sequential[j] },
		"mixture of both": func(uint32) bool { return true },
	}
	res := &Fig8Result{
		MemCDF:       make(map[string][]stats.Point),
		LenCDF:       make(map[string][]stats.Point),
		MedianMemMB:  make(map[string]float64),
		MedianLenSec: make(map[string]float64),
	}
	for name, keep := range pops {
		var mems, lens []float64
		for i := 0; i < tr.NumJobs(); i++ {
			j := tr.Job(i)
			if !keep(j) {
				continue
			}
			mems = append(mems, tr.MaxMem(j))
			lens = append(lens, tr.CriticalPath(j))
		}
		if len(mems) == 0 {
			return nil, fmt.Errorf("fig8: empty population %q", name)
		}
		me, le := stats.NewECDF(mems), stats.NewECDF(lens)
		res.MemCDF[name] = me.Points(50)
		res.LenCDF[name] = le.Points(50)
		res.MedianMemMB[name] = me.Quantile(0.5)
		res.MedianLenSec[name] = le.Quantile(0.5)
	}
	return res, nil
}

// String renders the medians and quartile markers.
func (r *Fig8Result) String() string {
	t := &tables.Table{
		Title:   "Figure 8: Google-like job distributions",
		Headers: []string{"population", "median mem (MB)", "median length (s)"},
	}
	for _, name := range []string{"ST job", "BoT job", "mixture of both"} {
		t.AddRowValues(name, r.MedianMemMB[name], r.MedianLenSec[name])
	}
	return t.String()
}

// WPRComparison summarizes one population's WPR under both formulas.
type WPRComparison struct {
	Population  string
	AvgF3       float64
	AvgYoung    float64
	LowestF3    float64
	LowestYoung float64
	// FracAbove95F3/Young: fraction of jobs with WPR > 0.95.
	FracAbove95F3    float64
	FracAbove95Young float64
	// CDFF3/CDFYoung are WPR CDF points for plotting.
	CDFF3, CDFYoung []stats.Point
}

func compareWPR(pop string, f3, young *engine.Result, keep func(*engine.JobOutcome) bool) (WPRComparison, error) {
	a := f3.JobWPRs(keep)
	b := young.JobWPRs(keep)
	if len(a) == 0 || len(b) == 0 {
		return WPRComparison{}, fmt.Errorf("experiments: empty population %q", pop)
	}
	sa, sb := stats.Summarize(a), stats.Summarize(b)
	above := func(xs []float64) float64 {
		n := 0
		for _, x := range xs {
			if x > 0.95 {
				n++
			}
		}
		return float64(n) / float64(len(xs))
	}
	cmp := WPRComparison{
		Population:       pop,
		AvgF3:            sa.Mean,
		AvgYoung:         sb.Mean,
		LowestF3:         sa.Min,
		LowestYoung:      sb.Min,
		FracAbove95F3:    above(a),
		FracAbove95Young: above(b),
		CDFF3:            stats.NewECDF(a).Points(40),
		CDFYoung:         stats.NewECDF(b).Points(40),
	}
	return cmp, finite(cmp.AvgF3, cmp.AvgYoung, cmp.LowestF3, cmp.LowestYoung)
}

// Fig9Result holds the WPR CDFs of Figure 9 (priority-based estimates),
// plus a paired significance analysis the paper does not report: the
// bootstrap interval of the per-job WPR difference and a sign test.
type Fig9Result struct {
	ST, BoT WPRComparison
	// Paired maps population -> paired comparison (F3 minus Young).
	Paired map[string]metrics.PairedComparison
}

// Fig9 reproduces Figure 9: the WPR CDFs of ST and BoT jobs under
// Formula 3 versus Young's formula with priority-estimated statistics.
// The paper reports ST averages 0.945 vs 0.916 and BoT averages 0.955
// vs 0.915.
func Fig9(o Opts) (*Fig9Result, error) {
	w := scenario.Workload{Jobs: o.jobs(2000)}
	f3, young, err := runBothFormulas(o, w, unlimitedOnly)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Paired: make(map[string]metrics.PairedComparison, 2)}
	res.ST, err = compareWPR("sequential-task",
		f3, young, engine.And(engine.ByStructure(trace.Sequential), engine.WithFailures))
	if err != nil {
		return nil, err
	}
	res.BoT, err = compareWPR("bag-of-tasks",
		f3, young, engine.And(engine.ByStructure(trace.BagOfTasks), engine.WithFailures))
	if err != nil {
		return nil, err
	}

	// Paired per-job significance (F3 minus Young).
	pairs, err := engine.PairJobs(f3, young)
	if err != nil {
		return nil, err
	}
	for _, pop := range []struct {
		name string
		keep func(*engine.JobOutcome) bool
	}{
		{"sequential-task", engine.And(engine.ByStructure(trace.Sequential), engine.WithFailures)},
		{"bag-of-tasks", engine.And(engine.ByStructure(trace.BagOfTasks), engine.WithFailures)},
	} {
		var a, b []float64
		for _, p := range pairs {
			if pop.keep(p[0]) || pop.keep(p[1]) {
				a = append(a, p[0].WPR)
				b = append(b, p[1].WPR)
			}
		}
		if len(a) < 2 {
			continue
		}
		cmp, err := metrics.ComparePaired(a, b, 0.95, 400, o.Seed+1)
		if err != nil {
			return nil, err
		}
		res.Paired[pop.name] = cmp
	}
	return res, nil
}

// String renders the comparison rows.
func (r *Fig9Result) String() string {
	t := &tables.Table{
		Title: "Figure 9: WPR under Formula (3) vs Young's formula (priority-based estimates)",
		Headers: []string{"population", "avg F3", "avg Young", "min F3", "min Young",
			">0.95 F3", ">0.95 Young"},
	}
	for _, c := range []WPRComparison{r.ST, r.BoT} {
		t.AddRow(c.Population, tables.FmtFloat(c.AvgF3), tables.FmtFloat(c.AvgYoung),
			tables.FmtFloat(c.LowestF3), tables.FmtFloat(c.LowestYoung),
			tables.FmtPercent(c.FracAbove95F3), tables.FmtPercent(c.FracAbove95Young))
	}
	var b strings.Builder
	b.WriteString(t.String())
	for _, name := range []string{"sequential-task", "bag-of-tasks"} {
		if cmp, ok := r.Paired[name]; ok {
			fmt.Fprintf(&b, "%s paired diff (F3-Young): %+0.4f [%+0.4f, %+0.4f] 95%% CI, sign-test p=%.2g, n=%d\n",
				name, cmp.MeanDiff.Point, cmp.MeanDiff.Lo, cmp.MeanDiff.Hi, cmp.SignTestP, cmp.N)
		}
	}
	return b.String()
}

// Fig10Row is one priority's min/avg/max WPR for both formulas.
type Fig10Row struct {
	Priority                     int
	Jobs                         int
	MinF3, AvgF3, MaxF3          float64
	MinYoung, AvgYoung, MaxYoung float64
}

// Fig10Result holds Figure 10: WPR by priority.
type Fig10Result struct {
	ST, BoT []Fig10Row
}

// Fig10 reproduces Figure 10: min/avg/max WPR per priority under both
// formulas, for ST and BoT jobs separately. Priorities with no failing
// jobs are omitted, like the paper's missing bars.
func Fig10(o Opts) (*Fig10Result, error) {
	w := scenario.Workload{Jobs: o.jobs(2500)}
	f3, young, err := runBothFormulas(o, w, unlimitedOnly)
	if err != nil {
		return nil, err
	}
	build := func(structure trace.JobStructure) []Fig10Row {
		var rows []Fig10Row
		for _, p := range trace.PriorityOrder {
			keep := engine.And(engine.ByStructure(structure), engine.ByPriority(p), engine.WithFailures)
			a, b := f3.JobWPRs(keep), young.JobWPRs(keep)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			minA, avgA, maxA := stats.MinMaxMean(a)
			minB, avgB, maxB := stats.MinMaxMean(b)
			rows = append(rows, Fig10Row{
				Priority: p, Jobs: len(a),
				MinF3: minA, AvgF3: avgA, MaxF3: maxA,
				MinYoung: minB, AvgYoung: avgB, MaxYoung: maxB,
			})
		}
		return rows
	}
	return &Fig10Result{
		ST:  build(trace.Sequential),
		BoT: build(trace.BagOfTasks),
	}, nil
}

// String renders both structure panels.
func (r *Fig10Result) String() string {
	var b strings.Builder
	for idx, rows := range [][]Fig10Row{r.ST, r.BoT} {
		name := "(a) sequential-task jobs"
		if idx == 1 {
			name = "(b) bag-of-task jobs"
		}
		t := &tables.Table{
			Title:   "Figure 10 " + name + ": WPR by priority",
			Headers: []string{"priority", "jobs", "F3 min/avg/max", "Young min/avg/max"},
		}
		for _, row := range rows {
			t.AddRow(fmt.Sprint(row.Priority), fmt.Sprint(row.Jobs),
				fmt.Sprintf("%s/%s/%s", tables.FmtFloat(row.MinF3), tables.FmtFloat(row.AvgF3), tables.FmtFloat(row.MaxF3)),
				fmt.Sprintf("%s/%s/%s", tables.FmtFloat(row.MinYoung), tables.FmtFloat(row.AvgYoung), tables.FmtFloat(row.MaxYoung)))
		}
		b.WriteString(t.String())
		if idx == 0 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Fig11Result holds the restricted-length WPR distributions of
// Figure 11: one WPRComparison per (structure, RL) cell.
type Fig11Result struct {
	// Rows keyed by population name, e.g. "ST RL=1000".
	Rows map[string]WPRComparison
	// FracBelow90F3/Young: fraction of jobs with WPR < 0.9 at RL=1000
	// (the paper: 2% under Formula 3, up to 40% under Young).
	FracBelow90F3, FracBelow90Young float64
}

// Fig11 reproduces Figure 11: WPR distributions for jobs whose tasks
// are bounded by RL in {1000, 2000, 4000} seconds, one-day-trace scale.
func Fig11(o Opts) (*Fig11Result, error) {
	w := scenario.Workload{Jobs: o.jobs(2500), MaxTaskLengthSec: 4000}
	f3, young, err := runBothFormulas(o, w, shortTaskLimits)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Rows: make(map[string]WPRComparison)}
	for _, structure := range []trace.JobStructure{trace.Sequential, trace.BagOfTasks} {
		for _, rl := range []float64{1000, 2000, 4000} {
			name := fmt.Sprintf("%s RL=%d", structure, int(rl))
			keep := engine.And(engine.ByStructure(structure),
				engine.ByMaxTaskLength(rl), engine.WithFailures)
			cmp, err := compareWPR(name, f3, young, keep)
			if err != nil {
				continue // small populations can be empty at tiny scales
			}
			res.Rows[name] = cmp
		}
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("fig11: all populations empty")
	}
	// Aggregate the RL=1000 below-0.9 fractions across structures.
	var below90F3, below90Young, n float64
	for _, rl := range []string{"ST RL=1000", "BoT RL=1000"} {
		if cmp, ok := res.Rows[rl]; ok {
			below := func(pts []stats.Point) float64 {
				// CDF at 0.9 = fraction below 0.9.
				var v float64
				for _, p := range pts {
					if p.X <= 0.9 {
						v = p.Y
					}
				}
				return v
			}
			below90F3 += below(cmp.CDFF3)
			below90Young += below(cmp.CDFYoung)
			n++
		}
	}
	if n > 0 {
		res.FracBelow90F3 = below90F3 / n
		res.FracBelow90Young = below90Young / n
	}
	return res, nil
}

// String renders the per-cell averages.
func (r *Fig11Result) String() string {
	t := &tables.Table{
		Title:   "Figure 11: WPR with restricted task lengths (failing jobs)",
		Headers: []string{"population", "avg F3", "avg Young", "min F3", "min Young"},
	}
	for _, structure := range []string{"ST", "BoT"} {
		for _, rl := range []string{"1000", "2000", "4000"} {
			name := structure + " RL=" + rl
			c, ok := r.Rows[name]
			if !ok {
				continue
			}
			t.AddRow(name, tables.FmtFloat(c.AvgF3), tables.FmtFloat(c.AvgYoung),
				tables.FmtFloat(c.LowestF3), tables.FmtFloat(c.LowestYoung))
		}
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "fraction of jobs with WPR < 0.9 at RL=1000: F3 %s vs Young %s\n",
		tables.FmtPercent(r.FracBelow90F3), tables.FmtPercent(r.FracBelow90Young))
	return b.String()
}

// Fig12Result holds the wall-clock comparison of Figure 12.
type Fig12Result struct {
	// Per RL: mean wall-clock under each formula and the mean per-job
	// increment of Young over Formula 3 (the paper: 50-100 s/job).
	Rows []Fig12Row
}

// Fig12Row is one restricted-length population.
type Fig12Row struct {
	RL            float64
	Jobs          int
	MeanWallF3    float64
	MeanWallYoung float64
	MeanIncrement float64 // Young - F3, seconds per job
	MedianIncr    float64
}

// Fig12 reproduces Figure 12: per-job wall-clock lengths at RL=1000 and
// RL=4000; Young's formula costs most jobs tens of extra seconds.
func Fig12(o Opts) (*Fig12Result, error) {
	w := scenario.Workload{Jobs: o.jobs(2500), MaxTaskLengthSec: 4000}
	f3, young, err := runBothFormulas(o, w, shortTaskLimits)
	if err != nil {
		return nil, err
	}
	pairs, err := engine.PairJobs(f3, young)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for _, rl := range []float64{1000, 4000} {
		keep := engine.And(engine.ByMaxTaskLength(rl), engine.WithFailures)
		var wallsF3, wallsYoung, incr []float64
		for _, p := range pairs {
			if !keep(p[0]) && !keep(p[1]) {
				continue
			}
			wallsF3 = append(wallsF3, p[0].WallSec())
			wallsYoung = append(wallsYoung, p[1].WallSec())
			incr = append(incr, p[1].WallSec()-p[0].WallSec())
		}
		if len(incr) == 0 {
			continue
		}
		row := Fig12Row{
			RL:            rl,
			Jobs:          len(incr),
			MeanWallF3:    stats.Mean(wallsF3),
			MeanWallYoung: stats.Mean(wallsYoung),
			MeanIncrement: stats.Mean(incr),
			MedianIncr:    stats.Quantile(incr, 0.5),
		}
		if err := finite(row.MeanWallF3, row.MeanWallYoung, row.MeanIncrement); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("fig12: no failing jobs within RL bounds")
	}
	return res, nil
}

// String renders the per-RL rows.
func (r *Fig12Result) String() string {
	t := &tables.Table{
		Title: "Figure 12: wall-clock lengths (failing jobs)",
		Headers: []string{"RL (s)", "jobs", "mean wall F3 (s)", "mean wall Young (s)",
			"mean Young-F3 (s)", "median Young-F3 (s)"},
	}
	for _, row := range r.Rows {
		t.AddRowValues(row.RL, row.Jobs, row.MeanWallF3, row.MeanWallYoung,
			row.MeanIncrement, row.MedianIncr)
	}
	return t.String()
}

// Fig13Result holds the per-job paired wall-clock ratios of Figure 13.
type Fig13Result struct {
	Jobs int
	// FracFasterF3 is the fraction of jobs finishing earlier under
	// Formula 3 (paper: ~70%), with their average relative reduction
	// (paper: ~15%); FracFasterYoung the converse (paper: ~30%, ~5%).
	FracFasterF3     float64
	AvgReductionF3   float64
	FracFasterYoung  float64
	AvgIncreaseYoung float64
	// Ratios are wall(F3)/wall(Young) per job, for the CDF plot.
	Ratios []float64
}

// Fig13 reproduces Figure 13: the per-job ratio of wall-clock lengths
// between the two formulas at RL=1000.
func Fig13(o Opts) (*Fig13Result, error) {
	w := scenario.Workload{Jobs: o.jobs(2500), MaxTaskLengthSec: 1000}
	f3, young, err := runBothFormulas(o, w, shortTaskLimits)
	if err != nil {
		return nil, err
	}
	pairs, err := engine.PairJobs(f3, young)
	if err != nil {
		return nil, err
	}
	res := &Fig13Result{}
	var fasterF3, fasterYoung int
	var sumReduction, sumIncrease float64
	for _, p := range pairs {
		if p[0].Failures == 0 && p[1].Failures == 0 {
			continue
		}
		wf3, wy := p[0].WallSec(), p[1].WallSec()
		if wy <= 0 {
			continue
		}
		ratio := wf3 / wy
		res.Ratios = append(res.Ratios, ratio)
		if ratio < 1 {
			fasterF3++
			sumReduction += 1 - ratio
		} else if ratio > 1 {
			fasterYoung++
			sumIncrease += ratio - 1
		}
	}
	res.Jobs = len(res.Ratios)
	if res.Jobs == 0 {
		return nil, fmt.Errorf("fig13: no failing jobs")
	}
	res.FracFasterF3 = float64(fasterF3) / float64(res.Jobs)
	res.FracFasterYoung = float64(fasterYoung) / float64(res.Jobs)
	if fasterF3 > 0 {
		res.AvgReductionF3 = sumReduction / float64(fasterF3)
	}
	if fasterYoung > 0 {
		res.AvgIncreaseYoung = sumIncrease / float64(fasterYoung)
	}
	return res, nil
}

// String renders the headline fractions.
func (r *Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: paired wall-clock ratios, Formula (3) vs Young (RL=1000)\n")
	fmt.Fprintf(&b, "failing jobs compared: %d\n", r.Jobs)
	fmt.Fprintf(&b, "jobs faster under Formula (3): %s (avg reduction %s)\n",
		tables.FmtPercent(r.FracFasterF3), tables.FmtPercent(r.AvgReductionF3))
	fmt.Fprintf(&b, "jobs faster under Young:       %s (avg increase %s)\n",
		tables.FmtPercent(r.FracFasterYoung), tables.FmtPercent(r.AvgIncreaseYoung))
	return b.String()
}

// Fig14Result holds the dynamic-versus-static comparison of Figure 14.
type Fig14Result struct {
	AvgDynamic, AvgStatic     float64
	WorstDynamic, WorstStatic float64
	// FracSimilar is the fraction of jobs whose wall-clock ratio is
	// within 2% of 1 (paper: 67% similar); FracFasterDynamic the
	// fraction faster under the dynamic algorithm by > 2%.
	FracSimilar       float64
	FracFasterDynamic float64
	CDFDynamic        []stats.Point
	CDFStatic         []stats.Point
}

// Fig14 reproduces Figure 14: every task's priority flips mid-execution;
// the dynamic algorithm (Algorithm 1 with MNOF updates) is compared to
// the static one (initial plan kept). The paper reports worst WPR ~0.8
// dynamic vs ~0.5 static.
func Fig14(o Opts) (*Fig14Result, error) {
	w := scenario.Workload{Jobs: o.jobs(1500), PriorityChangeFraction: 1.0}
	results, err := runSweep(o, []sweep.Run{
		pinned(o, scenario.Scenario{Name: "dynamic", Workload: w, Policy: "formula3", Engine: engine.Config{Dynamic: true}}),
		pinned(o, scenario.Scenario{Name: "static", Workload: w, Policy: "formula3"}),
	})
	if err != nil {
		return nil, err
	}
	dynamic, static := results[0], results[1]
	keep := engine.WithFailures
	dw, sw := dynamic.JobWPRs(keep), static.JobWPRs(keep)
	if len(dw) == 0 || len(sw) == 0 {
		return nil, fmt.Errorf("fig14: no failing jobs")
	}
	ds, ss := stats.Summarize(dw), stats.Summarize(sw)
	res := &Fig14Result{
		AvgDynamic: ds.Mean,
		AvgStatic:  ss.Mean,
		// "Worst" is the floor of the plotted CDF; the 5th percentile is
		// the stable analogue of the paper's visual left edge (a strict
		// minimum is a single-job statistic).
		WorstDynamic: ds.P05,
		WorstStatic:  ss.P05,
		CDFDynamic:   stats.NewECDF(dw).Points(40),
		CDFStatic:    stats.NewECDF(sw).Points(40),
	}
	pairs, err := engine.PairJobs(dynamic, static)
	if err != nil {
		return nil, err
	}
	var similar, faster, total int
	for _, p := range pairs {
		if p[0].Failures == 0 && p[1].Failures == 0 {
			continue
		}
		total++
		ratio := p[0].WallSec() / p[1].WallSec()
		switch {
		case ratio > 0.98 && ratio < 1.02:
			similar++
		case ratio <= 0.98:
			faster++
		}
	}
	if total > 0 {
		res.FracSimilar = float64(similar) / float64(total)
		res.FracFasterDynamic = float64(faster) / float64(total)
	}
	return res, finite(res.AvgDynamic, res.AvgStatic, res.WorstDynamic, res.WorstStatic)
}

// String renders the headline numbers.
func (r *Fig14Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 14: dynamic (adaptive MNOF) vs static checkpointing under mid-run priority changes\n")
	fmt.Fprintf(&b, "avg WPR:   dynamic %s vs static %s\n",
		tables.FmtFloat(r.AvgDynamic), tables.FmtFloat(r.AvgStatic))
	fmt.Fprintf(&b, "worst WPR: dynamic %s vs static %s\n",
		tables.FmtFloat(r.WorstDynamic), tables.FmtFloat(r.WorstStatic))
	fmt.Fprintf(&b, "wall-clock: %s of jobs similar (+/-2%%), %s faster under dynamic\n",
		tables.FmtPercent(r.FracSimilar), tables.FmtPercent(r.FracFasterDynamic))
	return b.String()
}

// Table6Result holds the precise-prediction WPRs of Table 6.
type Table6Result struct {
	// Rows keyed by population: "BoT", "ST", "Mix".
	Rows map[string]WPRComparison
}

// Table6 reproduces Table 6: with per-task exact failure statistics
// (the oracle), Formula 3 and Young's formula nearly coincide — high
// average WPR for both.
func Table6(o Opts) (*Table6Result, error) {
	w := scenario.Workload{Jobs: o.jobs(2000)}
	results, err := runSweep(o, []sweep.Run{
		pinned(o, scenario.Scenario{Name: "oracle-formula3", Workload: w, Policy: "formula3",
			Engine: engine.Config{Estimates: engine.EstimateOracle}}),
		pinned(o, scenario.Scenario{Name: "oracle-young", Workload: w, Policy: "young",
			Engine: engine.Config{Estimates: engine.EstimateOracle}}),
	})
	if err != nil {
		return nil, err
	}
	f3, young := results[0], results[1]
	res := &Table6Result{Rows: make(map[string]WPRComparison, 3)}
	pops := []struct {
		name string
		keep func(*engine.JobOutcome) bool
	}{
		{"BoT", engine.And(engine.ByStructure(trace.BagOfTasks), engine.WithFailures)},
		{"ST", engine.And(engine.ByStructure(trace.Sequential), engine.WithFailures)},
		{"Mix", engine.WithFailures},
	}
	for _, pop := range pops {
		cmp, err := compareWPR(pop.name, f3, young, pop.keep)
		if err != nil {
			return nil, err
		}
		res.Rows[pop.name] = cmp
	}
	return res, nil
}

// String renders the Table 6 grid.
func (r *Table6Result) String() string {
	t := &tables.Table{
		Title:   "Table 6: checkpointing effect with precise prediction (oracle statistics)",
		Headers: []string{"population", "avg WPR F3", "lowest WPR F3", "avg WPR Young", "lowest WPR Young"},
	}
	for _, name := range []string{"BoT", "ST", "Mix"} {
		c := r.Rows[name]
		t.AddRow(name, tables.FmtFloat(c.AvgF3), tables.FmtFloat(c.LowestF3),
			tables.FmtFloat(c.AvgYoung), tables.FmtFloat(c.LowestYoung))
	}
	return t.String()
}

// Table7Row is one (limit, priority) row of Table 7.
type Table7Row struct {
	LimitSec float64
	Priority int
	// Per structure population: ST, BoT, and the mixture.
	MNOFST, MTBFST   float64
	MNOFBoT, MTBFBoT float64
	MNOFMix, MTBFMix float64
}

// Table7Result holds the per-priority MNOF/MTBF estimates of Table 7.
type Table7Result struct {
	Rows []Table7Row
}

// Table7 reproduces Table 7: MNOF and MTBF per priority and task-length
// limit, estimated from trace history. The paper highlights priorities
// 1, 2, 7, 10 and limits 1000, 3600, unlimited.
func Table7(o Opts) (*Table7Result, error) {
	tr := trace.Generate(trace.DefaultGenConfig(o.Seed, o.jobs(3000)))
	limits := trace.DefaultLengthLimits

	// Build separate estimators per structure population, each over a
	// view of the one trace.
	estST := trace.BuildEstimator(tr.Filter(func(j uint32) bool { return tr.Sequential[j] }), limits)
	estBoT := trace.BuildEstimator(tr.Filter(func(j uint32) bool { return !tr.Sequential[j] }), limits)
	estMix := trace.BuildEstimator(tr, limits)

	res := &Table7Result{}
	for li, limit := range limits {
		for _, p := range []int{1, 2, 7, 10} {
			key := core.GroupKey(p, li)
			row := Table7Row{
				LimitSec: limit, Priority: p,
				MNOFST: estST.MNOF(key), MTBFST: estST.MTBF(key),
				MNOFBoT: estBoT.MNOF(key), MTBFBoT: estBoT.MTBF(key),
				MNOFMix: estMix.MNOF(key), MTBFMix: estMix.MTBF(key),
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// String renders the Table 7 grid.
func (r *Table7Result) String() string {
	t := &tables.Table{
		Title: "Table 7: MNOF & MTBF w.r.t. job priority (trace history)",
		Headers: []string{"limit (s)", "priority", "ST MNOF", "ST MTBF", "BoT MNOF", "BoT MTBF",
			"Mix MNOF", "Mix MTBF"},
	}
	for _, row := range r.Rows {
		limit := "inf"
		if row.LimitSec < 1e17 {
			limit = tables.FmtFloat(row.LimitSec)
		}
		t.AddRow(limit, fmt.Sprint(row.Priority),
			tables.FmtFloat(row.MNOFST), tables.FmtFloat(row.MTBFST),
			tables.FmtFloat(row.MNOFBoT), tables.FmtFloat(row.MTBFBoT),
			tables.FmtFloat(row.MNOFMix), tables.FmtFloat(row.MTBFMix))
	}
	return t.String()
}
