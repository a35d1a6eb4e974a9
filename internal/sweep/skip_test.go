package sweep

import (
	"context"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestSkipIndicesExcludesRunsAndCallbacks checks the resume hook at the
// scenario-sweep level: indices outside Options.Only execute nothing,
// receive no callbacks, and are marked Skipped, while their siblings
// behave as in an ordinary sweep.
func TestSkipIndicesExcludesRunsAndCallbacks(t *testing.T) {
	sc := scenario.Scenario{Name: "skip", Workload: scenario.Workload{Jobs: 15}}
	runs := []Run{{Scenario: sc}, {Scenario: sc}, {Scenario: sc}, {Scenario: sc}}

	var mu sync.Mutex
	started := map[int]bool{}
	done := map[int]bool{}
	outs := ScenariosContext(context.Background(), runs, Options{
		BaseSeed: 11,
		Workers:  2,
		Only:     map[int]bool{0: true, 2: true},
		OnRunStart: func(i int, _ string, _ uint64) {
			mu.Lock()
			started[i] = true
			mu.Unlock()
		},
		OnRunDone: func(i int, _ Outcome) {
			mu.Lock()
			done[i] = true
			mu.Unlock()
		},
	})

	for i, out := range outs {
		skip := i == 1 || i == 3
		if out.Skipped != skip {
			t.Errorf("run %d: Skipped = %v, want %v", i, out.Skipped, skip)
		}
		if skip {
			if out.Result != nil || out.Err != nil {
				t.Errorf("run %d: skipped run has Result/Err (%v, %v)", i, out.Result != nil, out.Err)
			}
			if started[i] || done[i] {
				t.Errorf("run %d: callbacks fired for skipped run", i)
			}
			continue
		}
		if out.Err != nil {
			t.Fatalf("run %d: %v", i, out.Err)
		}
		if out.Result == nil {
			t.Fatalf("run %d: no result", i)
		}
		if !started[i] || !done[i] {
			t.Errorf("run %d: missing callbacks (start %v, done %v)", i, started[i], done[i])
		}
	}

	// Seeds must be assigned by index regardless of skips.
	for i, out := range outs {
		if out.Seed != DeriveSeed(11, i) {
			t.Errorf("run %d: seed %d, want %d", i, out.Seed, DeriveSeed(11, i))
		}
	}
}

// TestSkipAllIndices degenerates gracefully: every outcome is Skipped
// and nothing executes.
func TestSkipAllIndices(t *testing.T) {
	sc := scenario.Scenario{Name: "skip-all", Workload: scenario.Workload{Jobs: 10}}
	outs := ScenariosContext(context.Background(), []Run{{Scenario: sc}, {Scenario: sc}}, Options{
		Only:      map[int]bool{},
		OnRunDone: func(i int, _ Outcome) { t.Errorf("OnRunDone(%d) fired", i) },
	})
	for i, out := range outs {
		if !out.Skipped || out.Result != nil || out.Err != nil {
			t.Errorf("run %d: not cleanly skipped", i)
		}
	}
}
