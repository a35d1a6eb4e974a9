package experiments

import (
	"strings"
	"testing"
)

// Names must present the paper's figures and tables first, in paper
// order, with this repository's ablations last — the order -exp all
// runs and prints.
func TestNamesPaperOrderAblationsLast(t *testing.T) {
	names := Names()
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			t.Fatalf("experiment %q is registered twice", n)
		}
		idx[n] = i
	}
	// Spot-check the paper ordering.
	for _, pair := range [][2]string{
		{"fig4", "fig5"}, {"fig5", "fig9"}, {"fig9", "fig10"},
		{"fig13", "fig14"}, {"fig14", "table6"}, {"table6", "table7"},
	} {
		if idx[pair[0]] >= idx[pair[1]] {
			t.Errorf("%s (#%d) should precede %s (#%d)", pair[0], idx[pair[0]], pair[1], idx[pair[1]])
		}
	}
	// Every ablation follows every figure/table.
	lastMain, firstAblation := -1, len(names)
	for i, n := range names {
		if strings.HasPrefix(n, "ablation-") {
			if i < firstAblation {
				firstAblation = i
			}
		} else if i > lastMain {
			lastMain = i
		}
	}
	if lastMain > firstAblation {
		t.Errorf("ablations interleaved with paper experiments: %v", names)
	}
}

// Parallel experiment execution must not change results: the sweeps
// behind a figure yield identical statistics for any worker count.
func TestExperimentParallelDeterminism(t *testing.T) {
	serial, err := Fig9(Opts{Seed: 20130601, Jobs: 300, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig9(Opts{Seed: 20130601, Jobs: 300, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("Fig9 diverged across worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
