// Command cloudsim reproduces the paper's tables and figures on the
// simulated cloud. Run a single experiment:
//
//	cloudsim -exp fig9 -seed 1 -jobs 2000
//
// everything, fanned across cores:
//
//	cloudsim -exp all -parallel 8
//
// or a named scenario from the registry:
//
//	cloudsim -scenario spot-market
//
// Experiment results go to stdout in the paper's order and are
// byte-identical for every -parallel value; timings and errors go to
// stderr. With -format json, stdout switches to one JSON object per
// experiment (or the scenario's full per-job result), built from the
// repro/sim result marshaling. With -exp all, failures of individual
// experiments are collected rather than aborting the run, and the
// process exits non-zero at the end if any occurred.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/sim"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		seed     = flag.Uint64("seed", 20130601, "random seed; identical seeds reproduce runs exactly")
		jobs     = flag.Int("jobs", 0, "trace size for trace-driven experiments (0 = per-experiment default)")
		parallel = flag.Int("parallel", 0, "worker-pool size for sweeps and -exp all (0 = GOMAXPROCS); output is identical for every value")
		scName   = flag.String("scenario", "", "run a registered scenario by name instead of an experiment (see -list)")
		list     = flag.Bool("list", false, "list experiment ids and scenario names, then exit")
		format   = flag.String("format", "text", "stdout format: text | json")
		csvDir   = flag.String("csv", "", "directory to write plottable curve data (CDFs) as <exp>.csv")
	)
	flag.Parse()

	jsonOut := false
	switch *format {
	case "text":
	case "json":
		jsonOut = true
	default:
		fmt.Fprintf(os.Stderr, "cloudsim: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	ctx := context.Background()

	if *list {
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			if err := enc.Encode(struct {
				Experiments []string           `json:"experiments"`
				Scenarios   []sim.ScenarioInfo `json:"scenarios"`
			}{sim.ExperimentNames(), sim.Scenarios()}); err != nil {
				fmt.Fprintf(os.Stderr, "cloudsim: %v\n", err)
				os.Exit(1)
			}
			return
		}
		fmt.Println("experiments (paper order, ablations last):")
		for _, id := range sim.ExperimentNames() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("scenarios (run with -scenario <name>):")
		for _, info := range sim.Scenarios() {
			fmt.Printf("  %-22s %s\n", info.Name, info.Description)
		}
		return
	}

	if *scName != "" {
		os.Exit(runScenario(ctx, *scName, *seed, *jobs, *parallel, jsonOut))
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = sim.ExperimentNames()
	}
	start := time.Now()
	// RunExperiments bounds total concurrency by -parallel and lands
	// outcomes in index-addressed slots, so stdout order — and content —
	// never depends on timing.
	outcomes := sim.RunExperiments(ctx, ids, sim.ExperimentOptions{
		Seed:     *seed,
		Jobs:     *jobs,
		Parallel: *parallel,
	})

	enc := json.NewEncoder(os.Stdout)
	expFailures, csvFailures := 0, 0
	for _, out := range outcomes {
		if out.Err != nil {
			expFailures++
			fmt.Fprintf(os.Stderr, "cloudsim: %s failed after %.1fs: %v\n", out.ID, out.Elapsed.Seconds(), out.Err)
			if jsonOut {
				if err := enc.Encode(out); err != nil {
					fmt.Fprintf(os.Stderr, "cloudsim: %s: json: %v\n", out.ID, err)
				}
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "cloudsim: %s finished in %.1fs\n", out.ID, out.Elapsed.Seconds())
		if jsonOut {
			if err := enc.Encode(out); err != nil {
				fmt.Fprintf(os.Stderr, "cloudsim: %s: json: %v\n", out.ID, err)
			}
		} else {
			fmt.Printf("=== %s ===\n%s\n", out.ID, out.Result)
		}
		if *csvDir != "" {
			if curves := out.Result.Curves(); len(curves) > 0 {
				if err := writeCSV(*csvDir, out.ID, curves); err != nil {
					csvFailures++
					fmt.Fprintf(os.Stderr, "cloudsim: %s: csv: %v\n", out.ID, err)
				}
			}
		}
	}
	workers := *parallel
	if workers <= 0 {
		workers = defaultWorkers()
	}
	fmt.Fprintf(os.Stderr, "cloudsim: %d/%d experiments succeeded, total wall time %.1fs (parallel=%d)\n",
		len(ids)-expFailures, len(ids), time.Since(start).Seconds(), workers)
	if csvFailures > 0 {
		fmt.Fprintf(os.Stderr, "cloudsim: %d csv exports failed\n", csvFailures)
	}
	if expFailures+csvFailures > 0 {
		os.Exit(1)
	}
}

// runScenario executes one registered scenario through the public sweep
// layer and prints a summary; it returns the process exit code.
func runScenario(ctx context.Context, name string, seed uint64, jobs, parallel int, jsonOut bool) int {
	s, err := sim.ScenarioByName(name, sim.WithSeed(seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudsim: %v\n", err)
		return 1
	}
	start := time.Now()
	outs, err := sim.RunSweep(ctx, []sim.Run{sim.Pin(s, seed)}, sim.SweepOptions{
		BaseSeed:    seed,
		DefaultJobs: jobs,
		Workers:     parallel,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudsim: scenario %s: %v\n", name, err)
		// Machine consumers still get one parseable outcome object
		// carrying the error, matching the -exp json contract, also when
		// the sweep was refused before the run started.
		if jsonOut {
			out := sim.Outcome{Name: name, Seed: seed, Err: err}
			if len(outs) > 0 {
				out = outs[0]
			}
			if encErr := json.NewEncoder(os.Stdout).Encode(out); encErr != nil {
				fmt.Fprintf(os.Stderr, "cloudsim: %v\n", encErr)
			}
		}
		return 1
	}
	out := outs[0]
	if jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "cloudsim: %v\n", err)
			return 1
		}
	} else {
		res := out.Result
		fmt.Printf("scenario %s (seed %d)\n", s.Name(), out.Seed)
		if s.Description() != "" {
			fmt.Printf("  %s\n", s.Description())
		}
		fmt.Printf("policy %s: %d jobs replayed, makespan %.0f s, %d events\n",
			res.Policy, len(res.Jobs), res.MakespanSec, res.Events)
		fmt.Printf("failures %d, mean WPR %.4f (all jobs), %.4f (failing jobs)\n",
			res.Failures(), res.MeanWPR(), res.MeanWPRFailing())
	}
	fmt.Fprintf(os.Stderr, "cloudsim: scenario %s finished in %.1fs\n", name, time.Since(start).Seconds())
	return 0
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func writeCSV(dir, id string, curves []sim.Curve) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return sim.WriteCurvesCSV(f, curves)
}
