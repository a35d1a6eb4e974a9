// Command simbench measures the simulator's performance matrix — a
// fixed set of registered scenarios at multiple trace scales — and
// writes a schema-stable BENCH_<date>.json report so every PR extends
// the same performance trajectory.
//
// Typical uses:
//
//	simbench                          # default matrix -> BENCH_<date>.json
//	simbench -scale smoke -out -      # CI smoke matrix to stdout
//	simbench -scale full -runs 3      # adds the 100k-job scale, best of 3
//	simbench -scenarios baseline-f3,spot-market -scales 500,5000
//	simbench -scale smoke -cpuprofile prof   # prof/<scenario>@<jobs>.pprof
//	GOGC=400 GOMEMLIMIT=2GiB simbench        # GC tuning, recorded in the report
//
// The report records, per (scenario, scale) cell: ns/op, allocs/op,
// bytes/op, fired events and events/sec, peak heap, trace-generation
// time, and the simulated makespan and mean WPR as determinism anchors.
// It also records the allocation-budget comparison at 10k jobs against
// the pre-overhaul engine (both numbers appear under "alloc_baseline").
// Progress goes to stderr; only the report touches stdout/-out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/sim"
)

func main() {
	var (
		scale     = flag.String("scale", "default", "matrix preset: smoke | default | full | xl (overridden by -scales)")
		scalesCSV = flag.String("scales", "", "comma-separated trace sizes in jobs (overrides -scale)")
		scenarios = flag.String("scenarios", "", "comma-separated registry scenario names (default: the committed matrix)")
		extra     = flag.String("extra", "", "comma-separated scenario@jobs cells measured after the matrix (e.g. baseline-f3@1000000)")
		seed      = flag.Uint64("seed", 20130601, "workload seed; identical seeds reproduce the simulated anchors exactly")
		runs      = flag.Int("runs", 1, "repetitions per cell; the report keeps the fastest")
		out       = flag.String("out", "", `report path (default BENCH_<yyyy-mm-dd>.json; "-" for stdout)`)
		noBase    = flag.Bool("skip-baseline", false, "skip the dedicated 10k-job allocation-budget cell")
		cpuprof   = flag.String("cpuprofile", "", "directory for one CPU profile per cell, <scenario>@<jobs>.pprof (read with go tool pprof)")
	)
	flag.Parse()
	if *cpuprof != "" {
		if err := os.MkdirAll(*cpuprof, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := sim.BenchConfig{
		Seed:          *seed,
		Runs:          *runs,
		SkipBaseline:  *noBase,
		CPUProfileDir: *cpuprof,
		Progress: func(label string) {
			fmt.Fprintf(os.Stderr, "simbench: measuring %s\n", label)
		},
	}
	if *scenarios != "" {
		cfg.Scenarios = strings.Split(*scenarios, ",")
	}
	if *extra != "" {
		for _, f := range strings.Split(*extra, ",") {
			name, jobsStr, ok := strings.Cut(strings.TrimSpace(f), "@")
			n, err := strconv.Atoi(jobsStr)
			if !ok || name == "" || err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "simbench: bad -extra entry %q (want scenario@jobs)\n", f)
				os.Exit(2)
			}
			cfg.ExtraCells = append(cfg.ExtraCells, sim.BenchCell{Scenario: name, Jobs: n})
		}
	}
	switch {
	case *scalesCSV != "":
		for _, f := range strings.Split(*scalesCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "simbench: bad -scales entry %q\n", f)
				os.Exit(2)
			}
			cfg.Scales = append(cfg.Scales, n)
		}
	case *scale == "smoke":
		cfg.Scales = sim.BenchSmokeScales()
	case *scale == "default":
		cfg.Scales = sim.BenchDefaultScales()
	case *scale == "full":
		cfg.Scales = sim.BenchFullScales()
	case *scale == "xl":
		cfg.Scales = sim.BenchXLScales()
	default:
		fmt.Fprintf(os.Stderr, "simbench: unknown -scale %q (want smoke, default, full, or xl)\n", *scale)
		os.Exit(2)
	}

	start := time.Now()
	rep, err := sim.RunBench(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)

	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	raw = append(raw, '\n')
	if path == "-" {
		if _, err := os.Stdout.Write(raw); err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
			os.Exit(1)
		}
	} else if err := os.WriteFile(path, raw, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}

	failures := 0
	for _, m := range rep.Results {
		if m.Error != "" {
			failures++
			fmt.Fprintf(os.Stderr, "simbench: %s @ %d jobs failed: %s\n", m.Scenario, m.Jobs, m.Error)
			continue
		}
		fmt.Fprintf(os.Stderr, "simbench: %-16s @ %6d jobs: %8.1f ms, %9d allocs, %9.0f events/s\n",
			m.Scenario, m.Jobs, float64(m.NsPerOp)/1e6, m.AllocsPerOp, m.EventsPerSec)
	}
	if b := rep.Baseline; b != nil {
		fmt.Fprintf(os.Stderr, "simbench: alloc budget @ %d jobs: %d pre-PR -> %d now (%.1f%% reduction)\n",
			b.Jobs, b.PrePRAllocsPerOp, b.PostPRAllocsPerOp, b.AllocReductionPct)
	}
	if d := rep.Derived; d != nil {
		for _, s := range d.ScaleSlowdowns {
			fmt.Fprintf(os.Stderr, "simbench: %-16s %d:%d slowdown %.2fx\n", s.Scenario, s.ToJobs, s.FromJobs, s.Factor)
		}
		for _, s := range d.SaturationRatios {
			fmt.Fprintf(os.Stderr, "simbench: saturation ratio @ %d jobs: %.3f (%s : %s events/s)\n",
				s.Jobs, s.Ratio, s.Saturated, s.Unsaturated)
		}
	}
	where := path
	if where == "-" {
		where = "stdout"
	}
	fmt.Fprintf(os.Stderr, "simbench: report (%d cells) written to %s in %.1fs\n",
		len(rep.Results), where, time.Since(start).Seconds())
	if failures > 0 {
		os.Exit(1)
	}
}
