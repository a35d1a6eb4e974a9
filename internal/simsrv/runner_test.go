package simsrv

import (
	"testing"

	"repro/sim"
)

// TestRunProgressKeepsRunningTotal feeds progress for several runs out
// of order: after every callback the job's events counter must equal the
// sum of each run's latest progress, kept by per-run deltas.
func TestRunProgressKeepsRunningTotal(t *testing.T) {
	a := &activeJob{}
	p := &runPersister{srv: &Server{}, job: "j000001", a: a, total: 3, lastEvents: make([]uint64, 3)}
	latest := make([]uint64, 3)
	for _, step := range []struct {
		index  int
		events uint64
	}{{2, 10}, {0, 5}, {2, 40}, {1, 7}, {0, 20}, {1, 9}, {2, 41}} {
		p.RunProgress(sim.RunInfo{Index: step.index}, sim.Progress{Events: step.events})
		latest[step.index] = step.events
		var want uint64
		for _, e := range latest {
			want += e
		}
		if a.events != want {
			t.Fatalf("after run %d reached %d events: job events = %d, want %d", step.index, step.events, a.events, want)
		}
	}
}
