package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the golden file from the in-code trace instead
// of comparing against it.
var updateGolden = flag.Bool("update-golden", false, "rewrite golden files instead of comparing")

// goldenTrace is a small hand-written trace exercising every serialized
// field: both job structures, a mid-run priority change, input units,
// and fractional values. It must never change — the golden file pins
// its exact on-disk bytes.
func goldenTrace(t *testing.T) *Trace {
	return fromJobs(t,
		Job{
			ID: "j000000", Structure: Sequential, ArrivalSec: 0.5, Priority: 7,
			Tasks: []Task{
				{
					ID: "j000000.t00", JobID: "j000000", Index: 0, Priority: 7,
					LengthSec: 120.25, MemMB: 96.5, InputUnits: 10.984,
					FailureSeed: 0xdeadbeef,
				},
				{
					ID: "j000000.t01", JobID: "j000000", Index: 1, Priority: 7,
					LengthSec: 300, MemMB: 128, FailureSeed: 42,
					Change: PriorityChange{AtFraction: 0.5, NewPriority: 10},
				},
			},
		},
		Job{
			ID: "j000001", Structure: BagOfTasks, ArrivalSec: 33.125, Priority: 1,
			Tasks: []Task{
				{
					ID: "j000001.t00", JobID: "j000001", Index: 0, Priority: 1,
					LengthSec: 45.5, MemMB: 10, FailureSeed: 1,
				},
			},
		},
	)
}

const goldenPath = "testdata/golden_trace.jsonl"

// TestGoldenTraceSerialization pins the JSON-lines trace format byte
// for byte: the columnar layout must never leak into what reaches disk
// or stdout, and format drift (field renames, ordering, number
// formatting) must fail loudly. Regenerate with
// `go test ./internal/trace -run GoldenTrace -update-golden` only for a
// deliberate, reviewed format change.
func TestGoldenTraceSerialization(t *testing.T) {
	tr := goldenTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden once): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace serialization drifted from golden file\n got: %q\nwant: %q", buf.Bytes(), want)
	}

	// Round trip: reading the golden bytes and re-serializing
	// reproduces them exactly.
	rt, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := rt.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("round-tripped serialization is not byte-identical")
	}
}
