package experiments

import (
	"fmt"

	"repro/internal/stats"
)

// Plotter is implemented by experiment results that carry plottable
// curves (the paper's CDF figures), sorted by series name.
type Plotter interface {
	Curves() []stats.Curve
}

// Curves implements Plotter for Figure 4: one CDF per priority.
func (r *Fig4Result) Curves() []stats.Curve {
	cs := make([]stats.Curve, 0, len(r.Points))
	for p, pts := range r.Points {
		cs = append(cs, stats.Curve{Series: fmt.Sprintf("priority=%d", p), Points: pts})
	}
	stats.SortCurves(cs)
	return cs
}

// Curves implements Plotter for Figure 8: memory and length CDFs per
// population.
func (r *Fig8Result) Curves() []stats.Curve {
	cs := make([]stats.Curve, 0, len(r.MemCDF)+len(r.LenCDF))
	for name, pts := range r.MemCDF {
		cs = append(cs, stats.Curve{Series: "mem:" + name, Points: pts})
	}
	for name, pts := range r.LenCDF {
		cs = append(cs, stats.Curve{Series: "len:" + name, Points: pts})
	}
	stats.SortCurves(cs)
	return cs
}

// Curves implements Plotter for Figure 9: WPR CDFs per structure and
// formula.
func (r *Fig9Result) Curves() []stats.Curve {
	return []stats.Curve{
		{Series: "BoT:Formula(3)", Points: r.BoT.CDFF3},
		{Series: "BoT:Young", Points: r.BoT.CDFYoung},
		{Series: "ST:Formula(3)", Points: r.ST.CDFF3},
		{Series: "ST:Young", Points: r.ST.CDFYoung},
	}
}

// Curves implements Plotter for Figure 11: WPR CDFs per population and
// formula.
func (r *Fig11Result) Curves() []stats.Curve {
	cs := make([]stats.Curve, 0, 2*len(r.Rows))
	for name, cmp := range r.Rows {
		cs = append(cs,
			stats.Curve{Series: name + ":Formula(3)", Points: cmp.CDFF3},
			stats.Curve{Series: name + ":Young", Points: cmp.CDFYoung})
	}
	stats.SortCurves(cs)
	return cs
}

// Curves implements Plotter for Figure 13: the CDF of per-job
// wall-clock ratios.
func (r *Fig13Result) Curves() []stats.Curve {
	if len(r.Ratios) == 0 {
		return nil
	}
	return []stats.Curve{{Series: "wall-ratio-F3-over-Young", Points: stats.NewECDF(r.Ratios).Points(60)}}
}

// Curves implements Plotter for Figure 14: dynamic and static WPR CDFs.
func (r *Fig14Result) Curves() []stats.Curve {
	return []stats.Curve{
		{Series: "dynamic", Points: r.CDFDynamic},
		{Series: "static", Points: r.CDFStatic},
	}
}
