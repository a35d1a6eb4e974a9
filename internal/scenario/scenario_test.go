package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

func TestWorkloadGenConfigDefaults(t *testing.T) {
	cfg := Workload{}.GenConfig(7, 1234)
	want := trace.DefaultGenConfig(7, 1234)
	if cfg != want {
		t.Fatalf("zero workload = %+v, want the paper defaults %+v", cfg, want)
	}
}

func TestWorkloadGenConfigOverrides(t *testing.T) {
	w := Workload{
		Jobs:                   50,
		ArrivalRate:            0.5,
		BoTFraction:            -1, // pure sequential-task mix
		MaxTaskLengthSec:       4000,
		PriorityChangeFraction: 1,
		ServiceFraction:        -1,
	}
	cfg := w.GenConfig(9, 9999)
	if cfg.Jobs != 50 || cfg.ArrivalRate != 0.5 || cfg.BoTFraction != 0 ||
		cfg.MaxTaskLengthSec != 4000 || cfg.PriorityChangeFraction != 1 || cfg.ServiceFraction != -1 {
		t.Fatalf("overrides lost: %+v", cfg)
	}
	// The compiled config must actually generate.
	tr := trace.Generate(cfg)
	if tr.NumJobs() != 50 {
		t.Fatalf("generated %d jobs, want 50", tr.NumJobs())
	}
	for _, seq := range tr.Sequential {
		if !seq {
			t.Fatal("BoTFraction -1 still produced bag-of-tasks jobs")
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"":         "Formula(3)",
		"formula3": "Formula(3)",
		"F3":       "Formula(3)",
		"mnof":     "Formula(3)",
		"young":    "Young",
		"Daly":     "Daly",
		"random":   "Random",
		"none":     "None",
	} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Errorf("PolicyByName(%q) = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := PolicyByName("quantum"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestEngineConfigCompiles(t *testing.T) {
	s := Scenario{
		Name:   "x",
		Policy: "young",
		Engine: engine.Config{
			Seed:                   3, // overwritten per run
			Dynamic:                true,
			Mode:                   engine.StorageShared,
			HostMTBF:               500,
			NonBlockingCheckpoints: true,
			Hosts:                  8,
		},
	}
	cfg, err := s.EngineConfig(42)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 || cfg.Policy.Name() != "Young" || !cfg.Dynamic ||
		cfg.Mode != engine.StorageShared || cfg.HostMTBF != 500 ||
		!cfg.NonBlockingCheckpoints || cfg.Hosts != 8 {
		t.Fatalf("config lost fields: %+v", cfg)
	}
	if s.Engine.Policy != nil || s.Engine.Seed != 3 {
		t.Fatal("EngineConfig mutated the scenario")
	}
	// A plugged-in policy supersedes the name, even an unresolvable one.
	s.Policy, s.Engine.Policy = "nope", core.DalyPolicy{}
	if cfg, err := s.EngineConfig(1); err != nil || cfg.Policy.Name() != "Daly" {
		t.Fatalf("Engine.Policy not used: %v, %v", cfg.Policy, err)
	}
	if _, err := (Scenario{Name: "bad", Policy: "nope"}).EngineConfig(1); err == nil {
		t.Fatal("unresolvable policy accepted")
	}
}

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{
		"baseline-f3", "baseline-young", "no-checkpoint", "oracle-f3",
		"priority-flip-dynamic", "spot-market", "mapreduce-burst", "hpc-long-jobs",
	} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("builtin scenario %q missing", name)
		}
		if sc.Description == "" {
			t.Errorf("builtin %q has no description", name)
		}
		if _, err := sc.EngineConfig(1); err != nil {
			t.Errorf("builtin %q does not compile: %v", name, err)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestRegisterValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nameless scenario registered")
		}
	}()
	Register(Scenario{})
}
