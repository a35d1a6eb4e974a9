package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/blcr"
	"repro/internal/dist"
	"repro/internal/simeng"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/tables"
	"repro/internal/trace"
)

// Fig4Result holds the per-priority uninterrupted-interval CDFs of
// Figure 4.
type Fig4Result struct {
	// Points maps priority -> CDF curve samples.
	Points map[int][]stats.Point
	// Medians maps priority -> median interval (seconds).
	Medians map[int]float64
}

// Fig4 reproduces Figure 4: the distribution of uninterrupted task
// intervals per priority, showing higher-priority tasks running longer
// between interruptions (with the priority-10 monitoring anomaly).
func Fig4(o Opts) (*Fig4Result, error) {
	byPriority := trace.FailureIntervalsByPriority(o.Seed, 3e6, 20000)
	res := &Fig4Result{
		Points:  make(map[int][]stats.Point, 12),
		Medians: make(map[int]float64, 12),
	}
	for p, ivs := range byPriority {
		if len(ivs) == 0 {
			continue
		}
		e := stats.NewECDF(ivs)
		res.Points[p] = e.Points(50)
		res.Medians[p] = e.Quantile(0.5)
	}
	return res, nil
}

// String renders the median table plus coarse CDF markers.
func (r *Fig4Result) String() string {
	t := &tables.Table{
		Title:   "Figure 4: uninterrupted task intervals by priority",
		Headers: []string{"priority", "median (s)", "P25 (s)", "P75 (s)"},
	}
	for _, p := range trace.PriorityOrder {
		pts, ok := r.Points[p]
		if !ok || len(pts) == 0 {
			continue
		}
		// Approximate quartiles from the stored curve by inversion.
		q := func(target float64) float64 {
			for _, pt := range pts {
				if pt.Y >= target {
					return pt.X
				}
			}
			return pts[len(pts)-1].X
		}
		t.AddRowValues(p, r.Medians[p], q(0.25), q(0.75))
	}
	return t.String()
}

// Fig5Result holds the distribution-fitting outcome of Figure 5.
type Fig5Result struct {
	// Full fits all intervals; Short fits the <= 1000 s subset.
	Full, Short map[string]dist.FitResult
	// BestFull/BestShort name the minimum-KS family in each regime.
	BestFull, BestShort string
	// ShortLambda is the fitted exponential rate on short intervals
	// (the paper reports 0.00423445).
	ShortLambda float64
	// FracShort is the fraction of intervals <= 1000 s (paper: > 0.63).
	FracShort float64
}

// Fig5 reproduces Figure 5: MLE fits of the five candidate families to
// failure intervals; Pareto wins overall while the exponential becomes
// competitive once intervals are truncated to 1000 s.
func Fig5(o Opts) (*Fig5Result, error) {
	tr := trace.Generate(trace.DefaultGenConfig(o.Seed, o.jobs(2500)))
	all := trace.FailureIntervalSamples(tr, 0)
	if len(all) == 0 {
		return nil, fmt.Errorf("fig5: trace produced no failure intervals")
	}
	var short []float64
	for _, iv := range all {
		if iv <= 1000 {
			short = append(short, iv)
		}
	}
	res := &Fig5Result{
		Full:      dist.FitAll(all),
		Short:     dist.FitAll(short),
		FracShort: float64(len(short)) / float64(len(all)),
	}
	res.BestFull = dist.BestFit(res.Full)
	res.BestShort = dist.BestFit(res.Short)
	if exp, ok := res.Short["Exponential"]; ok && exp.Err == nil {
		res.ShortLambda = exp.Dist.(dist.Exponential).Lambda
	}
	return res, nil
}

// String renders KS distances per family for both regimes.
func (r *Fig5Result) String() string {
	t := &tables.Table{
		Title:   "Figure 5: MLE fits to task failure intervals (KS distance, smaller is better)",
		Headers: []string{"family", "all intervals", "intervals <= 1000 s"},
	}
	for _, name := range []string{"Exponential", "Geometric", "Laplace", "Normal", "Pareto"} {
		full, shrt := r.Full[name], r.Short[name]
		fv, sv := "fit failed", "fit failed"
		if full.Err == nil {
			fv = tables.FmtFloat(full.KS)
		}
		if shrt.Err == nil {
			sv = tables.FmtFloat(shrt.KS)
		}
		t.AddRow(name, fv, sv)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "best fit: all=%s, short=%s; fraction of intervals <= 1000 s: %s; fitted short lambda: %.6g\n",
		r.BestFull, r.BestShort, tables.FmtPercent(r.FracShort), r.ShortLambda)
	return b.String()
}

// Fig7Result holds the checkpoint-cost curves of Figure 7: total
// checkpointing cost versus the number of checkpoints, one curve per
// memory size, for local ramdisk and NFS.
type Fig7Result struct {
	MemSizesMB  []float64
	Checkpoints []int
	// LocalCost[i][j] is the total cost of Checkpoints[j] checkpoints at
	// MemSizesMB[i] over local ramdisk; NFSCost likewise over NFS.
	LocalCost [][]float64
	NFSCost   [][]float64
}

// Fig7 reproduces Figure 7 from the BLCR cost models: cost grows
// linearly with both the number of checkpoints and the memory size, and
// NFS is uniformly more expensive than the local ramdisk.
func Fig7(o Opts) (*Fig7Result, error) {
	res := &Fig7Result{
		MemSizesMB:  []float64{10, 20, 40, 80, 160, 240},
		Checkpoints: []int{1, 2, 3, 4, 5},
	}
	for _, mem := range res.MemSizesMB {
		var localRow, nfsRow []float64
		for _, n := range res.Checkpoints {
			localRow = append(localRow, float64(n)*blcr.CheckpointCostLocal(mem))
			nfsRow = append(nfsRow, float64(n)*blcr.CheckpointCostNFS(mem))
		}
		res.LocalCost = append(res.LocalCost, localRow)
		res.NFSCost = append(res.NFSCost, nfsRow)
	}
	return res, nil
}

// String renders both cost grids.
func (r *Fig7Result) String() string {
	var b strings.Builder
	for idx, grid := range [][][]float64{r.LocalCost, r.NFSCost} {
		name := "(a) local ramdisk"
		if idx == 1 {
			name = "(b) NFS"
		}
		t := &tables.Table{
			Title:   "Figure 7 " + name + ": total checkpointing cost (s)",
			Headers: []string{"mem \\ #ckpts"},
		}
		for _, n := range r.Checkpoints {
			t.Headers = append(t.Headers, fmt.Sprintf("%d", n))
		}
		for i, mem := range r.MemSizesMB {
			row := []string{fmt.Sprintf("%gMB", mem)}
			for _, v := range grid[i] {
				row = append(row, tables.FmtFloat(v))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		if idx == 0 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// SimultaneousRow is one parallel-degree column of Tables 2-3.
type SimultaneousRow struct {
	Degree        int
	Min, Avg, Max float64
}

// SimultaneousResult holds a Table 2/3-style measurement.
type SimultaneousResult struct {
	Title string
	// Rows maps a configuration name ("local ramdisk", "NFS", "DM-NFS")
	// to its per-degree statistics.
	Rows map[string][]SimultaneousRow
}

// batchBackend is a checkpoint device that prices fully-overlapping
// writes: the built-in devices' BatchCosts.
type batchBackend interface {
	BatchCosts(k int, memMB float64) []float64
}

func measureSimultaneous(b batchBackend, degrees, reps int, memMB float64) []SimultaneousRow {
	out := make([]SimultaneousRow, 0, degrees)
	for d := 1; d <= degrees; d++ {
		var costs []float64
		for rep := 0; rep < reps; rep++ {
			costs = append(costs, b.BatchCosts(d, memMB)...)
		}
		minV, meanV, maxV := stats.MinMaxMean(costs)
		out = append(out, SimultaneousRow{Degree: d, Min: minV, Avg: meanV, Max: maxV})
	}
	return out
}

// Table2 reproduces Table 2: cost of simultaneously checkpointing tasks
// (160 MB) on the local ramdisk versus plain NFS, 25 repetitions each.
func Table2(o Opts) (*SimultaneousResult, error) {
	rng := simeng.NewRNG(o.Seed)
	res := &SimultaneousResult{
		Title: "Table 2: simultaneous checkpointing cost, 160 MB (s)",
		Rows:  make(map[string][]SimultaneousRow, 2),
	}
	res.Rows["local ramdisk"] = measureSimultaneous(storage.NewLocalRamdisk(rng.Split()), 5, 25, 160)
	res.Rows["NFS"] = measureSimultaneous(storage.NewNFS(rng.Split()), 5, 25, 160)
	return res, nil
}

// Table3 reproduces Table 3: the same measurement over DM-NFS with 32
// servers — cost stays within ~2 s at every parallel degree.
func Table3(o Opts) (*SimultaneousResult, error) {
	rng := simeng.NewRNG(o.Seed)
	res := &SimultaneousResult{
		Title: "Table 3: simultaneous checkpointing cost over DM-NFS, 160 MB (s)",
		Rows:  make(map[string][]SimultaneousRow, 1),
	}
	res.Rows["DM-NFS"] = measureSimultaneous(storage.NewDMNFS(rng.Split(), 32), 5, 25, 160)
	return res, nil
}

// String renders min/avg/max per parallel degree.
func (r *SimultaneousResult) String() string {
	t := &tables.Table{
		Title:   r.Title,
		Headers: []string{"type", "stat", "X=1", "X=2", "X=3", "X=4", "X=5"},
	}
	names := make([]string, 0, len(r.Rows))
	for name := range r.Rows {
		names = append(names, name)
	}
	// Local first for the Table 2 layout, otherwise alphabetical.
	if len(names) == 2 {
		names = []string{"local ramdisk", "NFS"}
	}
	for _, name := range names {
		rows := r.Rows[name]
		for _, stat := range []string{"min", "avg", "max"} {
			line := []string{name, stat}
			for _, row := range rows {
				var v float64
				switch stat {
				case "min":
					v = row.Min
				case "avg":
					v = row.Avg
				default:
					v = row.Max
				}
				line = append(line, tables.FmtFloat(v))
			}
			t.AddRow(line...)
		}
	}
	return t.String()
}

// Table4Result holds the per-checkpoint operation times of Table 4.
type Table4Result struct {
	MemMB []float64
	Cost  []float64
}

// Table4 reproduces Table 4: the in-VM operation time of one checkpoint
// over the shared disk, as a function of memory size.
func Table4(o Opts) (*Table4Result, error) {
	res := &Table4Result{
		MemMB: []float64{10.3, 22.3, 42.3, 46.3, 82.4, 86.4, 90.4, 94.4, 162, 174, 212, 240},
	}
	for _, m := range res.MemMB {
		res.Cost = append(res.Cost, blcr.CheckpointOperationTime(m))
	}
	return res, nil
}

// String renders the memory/operation-time pairs.
func (r *Table4Result) String() string {
	t := &tables.Table{
		Title:   "Table 4: time cost of a checkpoint (shared disk)",
		Headers: []string{"memory (MB)", "operation time (s)"},
	}
	for i, m := range r.MemMB {
		t.AddRowValues(m, r.Cost[i])
	}
	return t.String()
}

// Table5Result holds the restart costs of Table 5.
type Table5Result struct {
	MemMB      []float64
	MigrationA []float64
	MigrationB []float64
}

// Table5 reproduces Table 5: task restarting cost per migration type.
func Table5(o Opts) (*Table5Result, error) {
	res := &Table5Result{MemMB: []float64{10, 20, 40, 80, 160, 240}}
	for _, m := range res.MemMB {
		res.MigrationA = append(res.MigrationA, blcr.RestartCost(m, blcr.MigrationA))
		res.MigrationB = append(res.MigrationB, blcr.RestartCost(m, blcr.MigrationB))
	}
	return res, nil
}

// String renders the two migration rows.
func (r *Table5Result) String() string {
	t := &tables.Table{
		Title:   "Table 5: task restarting cost (s)",
		Headers: []string{"memory (MB)"},
	}
	for _, m := range r.MemMB {
		t.Headers = append(t.Headers, tables.FmtFloat(m))
	}
	rowA := []string{"migration type A"}
	rowB := []string{"migration type B"}
	for i := range r.MemMB {
		rowA = append(rowA, tables.FmtFloat(r.MigrationA[i]))
		rowB = append(rowB, tables.FmtFloat(r.MigrationB[i]))
	}
	t.AddRow(rowA...)
	t.AddRow(rowB...)
	return t.String()
}

// sanity guard shared by evaluation experiments: results with NaN would
// silently corrupt tables.
func finite(vs ...float64) error {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("experiments: non-finite statistic %v", v)
		}
	}
	return nil
}
