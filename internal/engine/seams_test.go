package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The tests below drive the Config seams a caller plugs its own models
// into — LocalBackend/SharedBackend, FailureModel and CustomEstimator —
// the way a reference model of the paper's single-task process would:
// constant-cost devices, a fixed failure process, fixed statistics.

// constBackend is a checkpoint device with constant costs that counts
// the engine's calls to it. It hands the planner the C its writes
// charge; restarts counts every read of R, which the automatic storage
// rule also makes when it plans.
type constBackend struct {
	ckpt, restart float64

	begins, restarts int
}

func (b *constBackend) Begin(int, float64) (float64, func()) {
	b.begins++
	return b.ckpt, func() {}
}

func (b *constBackend) CheckpointCost(float64) float64 { return b.ckpt }

func (b *constBackend) RestartCost(float64) float64 {
	b.restarts++
	return b.restart
}

// costPolicy plans four intervals per task and records every
// checkpoint cost C the planner hands it.
type costPolicy struct{ costs map[float64]int }

func (p *costPolicy) Name() string { return "four-intervals" }

func (p *costPolicy) Intervals(_, c float64, _ core.Estimate) int {
	p.costs[c]++
	return 4
}

func marshal(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCustomStorageBackends: with constant-cost devices in both slots,
// the storage mode picks a slot per task, the slot's CheckpointCost is
// the planner's C, every blocking write costs what its Begin returned,
// a restart from an image costs the slot's RestartCost, and the slot
// sets UsedSharedStorage. The local device checkpoints cheaply but
// restarts dearly and the shared one the other way round, so the
// automatic rule must use both. One seed reproduces the same JSON bytes.
func TestCustomStorageBackends(t *testing.T) {
	tr := smallTrace(t, 31, 80)
	run := func(mode StorageMode) (*Result, *constBackend, *constBackend, *costPolicy) {
		t.Helper()
		local := &constBackend{ckpt: 1, restart: 60}
		shared := &constBackend{ckpt: 4, restart: 2}
		pol := &costPolicy{costs: map[float64]int{}}
		res := mustRun(t, Config{
			Seed: 31, Policy: pol, Mode: mode,
			LocalBackend: local, SharedBackend: shared,
		}, tr)
		return res, local, shared, pol
	}
	for _, mode := range []StorageMode{StorageLocal, StorageShared, StorageAuto} {
		res, local, shared, pol := run(mode)
		restarted, onShared, tasks := 0, 0, 0
		for _, jr := range res.Jobs {
			for _, task := range jr.Tasks {
				tasks++
				b := local
				if task.UsedSharedStorage {
					b = shared
					onShared++
				}
				if mode == StorageLocal && b != local || mode == StorageShared && b != shared {
					t.Fatalf("mode %d: task %s used_shared_storage=%v", mode, task.ID, task.UsedSharedStorage)
				}
				if task.CheckpointCostSec != b.ckpt*float64(task.Checkpoints) {
					t.Errorf("mode %d: task %s: %d checkpoints cost %g s, want %g s each",
						mode, task.ID, task.Checkpoints, task.CheckpointCostSec, b.ckpt)
				}
				if math.Mod(task.RestartCostSec, b.restart) != 0 {
					t.Errorf("mode %d: task %s: restart cost %g s is not a multiple of %g s",
						mode, task.ID, task.RestartCostSec, b.restart)
				}
				if task.RestartCostSec > 0 {
					restarted++
				}
			}
		}
		if restarted == 0 {
			t.Errorf("mode %d: no task restarted from an image", mode)
		}
		for c := range pol.costs {
			if c != local.ckpt && c != shared.ckpt ||
				mode == StorageLocal && c != local.ckpt || mode == StorageShared && c != shared.ckpt {
				t.Errorf("mode %d: planner saw C = %g, want the chosen slot's planned cost", mode, c)
			}
		}
		switch mode {
		case StorageLocal:
			if local.begins == 0 || local.restarts == 0 || shared.begins != 0 || shared.restarts != 0 {
				t.Errorf("local mode: %d local and %d shared writes, %d local and %d shared restarts",
					local.begins, shared.begins, local.restarts, shared.restarts)
			}
		case StorageShared:
			if shared.begins == 0 || shared.restarts == 0 || local.begins != 0 || local.restarts != 0 {
				t.Errorf("shared mode: %d shared and %d local writes, %d shared and %d local restarts",
					shared.begins, local.begins, shared.restarts, local.restarts)
			}
		case StorageAuto:
			if onShared == 0 || onShared == tasks || len(pol.costs) != 2 {
				t.Errorf("auto mode: %d of %d tasks on the shared slot, planner saw C in %v; want both slots",
					onShared, tasks, pol.costs)
			}
		}
	}

	a, _, _, _ := run(StorageAuto)
	b, _, _, _ := run(StorageAuto)
	if !bytes.Equal(marshal(t, a), marshal(t, b)) {
		t.Fatal("one seed with custom backends produced different JSON")
	}
}

// TestCustomBackendKeepsRandomStreams: a plugged-in device consumes the
// random stream split of the built-in device it replaces, so a device
// in the slot the storage mode never uses changes no byte of the run —
// not the other slot's built-in device, not the host-crash stream
// split after both.
func TestCustomBackendKeepsRandomStreams(t *testing.T) {
	tr := smallTrace(t, 32, 60)
	for _, c := range []struct {
		name string
		mode StorageMode
		plug func(*Config, storage.Backend)
	}{
		{"local slot under shared mode", StorageShared, func(cfg *Config, b storage.Backend) { cfg.LocalBackend = b }},
		{"shared slot under local mode", StorageLocal, func(cfg *Config, b storage.Backend) { cfg.SharedBackend = b }},
	} {
		cfg := Config{Seed: 32, Policy: core.MNOFPolicy{}, Mode: c.mode, HostMTBF: 3600}
		want := marshal(t, mustRun(t, cfg, tr))
		unused := &constBackend{ckpt: 1, restart: 1}
		c.plug(&cfg, unused)
		if got := marshal(t, mustRun(t, cfg, tr)); !bytes.Equal(got, want) {
			t.Errorf("%s: the run changed", c.name)
		}
		if unused.begins != 0 || unused.restarts != 0 {
			t.Errorf("%s: the unused device saw %d writes and %d restarts", c.name, unused.begins, unused.restarts)
		}
	}
}

// neverFails is a failure process with no failures.
type neverFails struct{}

func (neverFails) NextAfter(float64) float64 { return math.Inf(1) }

// TestCustomFailureModel: under a never-failing model no task fails,
// and the oracle estimator, which previews each task's own process,
// sees no failures to plan checkpoints for. The same trace fails
// without the model.
func TestCustomFailureModel(t *testing.T) {
	tr := smallTrace(t, 21, 60)
	if res := mustRun(t, Config{Seed: 21, Policy: core.NoCheckpointPolicy{}}, tr); sumFailures(res) == 0 {
		t.Fatal("the trace's own failure processes never fail; the test shows nothing")
	}
	never := func(trace.Task) failure.Process { return neverFails{} }
	for _, cfg := range []Config{
		{Seed: 21, Policy: core.NoCheckpointPolicy{}, FailureModel: never},
		{Seed: 21, Policy: core.MNOFPolicy{}, Estimates: EstimateOracle, FailureModel: never},
	} {
		res := mustRun(t, cfg, tr)
		if n := sumFailures(res); n != 0 {
			t.Errorf("%s: never-failing model recorded %d failures", cfg.Policy.Name(), n)
		}
		for _, jr := range res.Jobs {
			for _, task := range jr.Tasks {
				if task.Checkpoints != 0 {
					t.Fatalf("%s: task %s took %d checkpoints with no failures expected",
						cfg.Policy.Name(), task.ID, task.Checkpoints)
				}
			}
		}
	}
}

func sumFailures(res *Result) int {
	n := 0
	for _, jr := range res.Jobs {
		n += jr.Failures
	}
	return n
}

// fixedEstimator reports the same statistics for every task.
type fixedEstimator struct{ est core.Estimate }

func (f fixedEstimator) EstimateTask(trace.Task) core.Estimate { return f.est }

// estimatePolicy records every estimate the planner hands it. Without
// Dynamic the planner asks once per task, at submission, when the
// remaining work is the whole task, so it passes MNOF unscaled.
type estimatePolicy struct{ seen map[core.Estimate]int }

func (p *estimatePolicy) Name() string { return "recording" }

func (p *estimatePolicy) Intervals(_, _ float64, est core.Estimate) int {
	p.seen[est]++
	return 1
}

// TestCustomEstimator: a CustomEstimator supersedes the history
// estimator, and its statistics are what the policy sees.
func TestCustomEstimator(t *testing.T) {
	tr := smallTrace(t, 8, 40)
	want := core.Estimate{MNOF: 2, MTBF: 100}
	cfg := Config{Seed: 8, CustomEstimator: fixedEstimator{want}}
	if cfg.NeedsHistory() {
		t.Fatal("a run with a CustomEstimator asks for a history estimator")
	}
	pol := &estimatePolicy{seen: map[core.Estimate]int{}}
	cfg.Policy = pol
	mustRun(t, cfg, tr)
	if len(pol.seen) != 1 || pol.seen[want] == 0 {
		t.Fatalf("policy saw estimates %v, want only %+v", pol.seen, want)
	}
}
