// Command perfbench is the repository's benchmark: one binary that
// measures the simulator (engine-100k) and the simd service
// (service-local, service-dist) end to end, and, in a separate traced
// run, layer by layer. See README.md in this directory for the
// workloads, the metric map and how to run it.
//
// Usage (from the repository root; run.sh builds and execs this):
//
//	bash perfbench/run.sh --workload engine-100k --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics, with --trace 1 the per-layer metrics.
// A failed correctness gate exits 1 after printing the result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	smoke    bool   // tiny sizes, set by the self-test
	outDir   string // stores, results and traces live here
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload reports.
type result struct {
	attempted int
	failed    int
	problems  []string           // correctness-gate misses
	e2e       map[string]float64 // end-to-end metrics (untraced runs)
	layers    map[string]float64 // per-layer metrics (traced runs)
	extra     map[string]float64 // printed and recorded, not gated
	env       map[string]string
	tracer    *Tracer
}

func newResult() *result {
	return &result{
		e2e:    make(map[string]float64),
		layers: make(map[string]float64),
		extra:  make(map[string]float64),
		env:    make(map[string]string),
	}
}

// fail records a correctness-gate miss.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 5

// endToEnd lists the end-to-end metrics every workload reports, with
// units; BENCHMARK.json names exactly these.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_run_s", "s"},
	{"peak_heap_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"runs_per_s", "1/s"},
}

// perLayer lists the per-layer metrics every traced run reports, with
// units; a layer a workload never reaches reports 0.
var perLayer = []struct{ name, unit string }{
	// Simulator layers.
	{"trace.gen_s", "s"},
	{"trace.estimator_s", "s"},
	{"engine.replay_s", "s"},
	{"sim.facade_s", "s"},
	{"engine.events", "count"},
	{"engine.events_per_s", "1/s"},
	{"engine.gc_pause_ms", "ms"},
	{"engine.allocs_per_event", "count"},
	{"simeng.queue_rebuilds", "count"},
	{"simeng.queue_peak_pending", "count"},
	{"simeng.core_ns_per_event", "ns"},
	{"cluster.acquire_release_ns", "ns"},
	{"failure.next_after_ns", "ns"},
	{"storage.begin_release_ns", "ns"},
	{"failure.failures", "count"},
	{"storage.checkpoints", "count"},
	{"simeng.core_s", "s"},
	{"failure.next_after_s", "s"},
	{"storage.begin_release_s", "s"},
	// Service layers.
	{"http.submit_ms", "ms"},
	{"http.result_ms", "ms"},
	{"http.result_kb", "KB"},
	{"simsrv.queue_wait_ms", "ms"},
	{"simsrv.exec_ms", "ms"},
	{"simsrv.cached_job_p50_ms", "ms"},
	{"sweep.floor_ms", "ms"},
	{"simsrv.overhead_ratio", "ratio"},
	{"jobstore.append_ms", "ms"},
	{"jobstore.set_result_ms", "ms"},
	{"cache.put_ms", "ms"},
	{"cache.get_ms", "ms"},
	{"sim.marshal_ms", "ms"},
	{"store.records_per_run", "count"},
	{"store.kb_per_run", "KB"},
	{"http.work_p50_ms", "ms"},
	{"http.work_p90_ms", "ms"},
	{"http.claim_p50_ms", "ms"},
	{"http.claim_p90_ms", "ms"},
	{"http.renew_p50_ms", "ms"},
	{"http.renew_p90_ms", "ms"},
	{"http.publish_p50_ms", "ms"},
	{"http.publish_p90_ms", "ms"},
	{"coord.idle_polls_per_job", "count"},
	{"coord.claims_per_job", "count"},
	{"coord.useful_ratio", "ratio"},
	{"coord.wal_records_per_run", "count"},
	{"coord.wal_append_ms", "ms"},
	{"coord.ledger_op_us", "us"},
	// The traced end-to-end result against the untraced one.
	{"bench.tracing_overhead_pct", "%"},
}

// extraUnits gives units for the recorded-only numbers.
var extraUnits = map[string]string{
	"job_p90_ms":        "ms",
	"job_cached_p50_ms": "ms",
	"fail_ratio":        "ratio",
	"jobs":              "count",
	"cached_jobs":       "count",
	"runs":              "count",
	"window_s":          "s",
	"setup_s":           "s",
	"heap_max_mb":       "MB",
}

var workloads = map[string]func(context.Context, config, *result) error{
	"engine-100k":   runEngine,
	"service-local": runServiceLocal,
	"service-dist":  runServiceDist,
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "engine-100k, service-local or service-dist")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for stores, results and traces")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload engine-100k|service-local|service-dist --seed N --seconds S (≥ 1) --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds, cfg.traced = time.Duration(seconds)*time.Second, trace == 1

	res, err := execute(context.Background(), cfg, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := emit(os.Stdout, cfg, res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// execute runs one workload in a private directory under cfg.outDir,
// which it removes afterwards.
func execute(ctx context.Context, cfg config, run func(context.Context, config, *result) error) (*result, error) {
	res := newResult()
	if cfg.traced {
		res.tracer = newTracer()
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.outDir = work // the workload's stores live here
	recordEnv(res, work)
	steal0, total0 := cpuTicks()
	if err := run(ctx, cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	steal1, total1 := cpuTicks()
	if total1 > total0 {
		res.env["cpu_steal_pct"] = fmt.Sprintf("%.1f", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	return res, nil
}

// cpuTicks returns the machine's stolen and total CPU ticks from
// /proc/stat: on a shared virtual machine, time the host gave to other
// guests, which slows every timing of a run alike. Both are 0 where the
// file is missing.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// recordEnv notes what every result depends on besides the code.
func recordEnv(res *result, storeDir string) {
	res.env["nproc"] = fmt.Sprint(runtime.NumCPU())
	res.env["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	res.env["go_version"] = runtime.Version()
	res.env["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH
	res.env["store_fs"] = filesystem(storeDir)
}

// filesystem names the filesystem holding dir.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// emit prints the human-readable report and writes the result record
// (and spans, when traced) under .bench_build; it returns the final
// JSON line.
func emit(w *os.File, cfg config, res *result) (string, error) {
	chosen := res.e2e
	list := endToEnd
	if cfg.traced {
		chosen, list = res.layers, perLayer
	}
	metrics := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := chosen[m.name]
		if !ok {
			return "", fmt.Errorf("workload %s reported no %s", cfg.workload, m.name)
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	extra := make(map[string]metric, len(res.extra))
	for name, v := range res.extra {
		extra[name] = metric{Value: v, Unit: extraUnits[name]}
	}
	extra["fail_ratio"] = metric{Value: ratio(float64(res.failed), float64(res.attempted)), Unit: "ratio"}

	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.traced)
	keys := make([]string, 0, len(res.env))
	for k := range res.env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %-28s %s\n", k, res.env[k])
	}
	for _, m := range list {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, metrics[m.name].Value, m.unit)
	}
	names := make([]string, 0, len(extra))
	for k := range extra {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s (recorded)\n", k, extra[k].Value, extra[k].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  GATE MISS: %s\n", p)
	}

	final, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return "", err
	}

	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, boolInt(cfg.traced)))
	record, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload,
		"seed":     cfg.seed,
		"seconds":  int(cfg.seconds / time.Second),
		"traced":   cfg.traced,
		"env":      res.env,
		"metrics":  metrics,
		"recorded": extra,
		"problems": res.problems,
	}, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".json", record, 0o644); err != nil {
		return "", err
	}
	if err := res.tracer.WriteFile(base + ".spans.ndjson"); err != nil {
		return "", err
	}
	return string(final), nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
