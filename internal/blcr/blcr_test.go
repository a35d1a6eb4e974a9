package blcr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCheckpointCostLocalRange(t *testing.T) {
	// Figure 7(a): 10–240 MB costs 0.016–0.99 s over local ramdisk.
	if got := CheckpointCostLocal(10); math.Abs(got-0.016) > 1e-9 {
		t.Errorf("local cost at 10 MB = %v, want 0.016", got)
	}
	if got := CheckpointCostLocal(240); math.Abs(got-0.99) > 1e-9 {
		t.Errorf("local cost at 240 MB = %v, want 0.99", got)
	}
}

func TestCheckpointCostNFSAnchors(t *testing.T) {
	// Figure 7(b) range and the Table 2 degree-1 anchor at 160 MB.
	if got := CheckpointCostNFS(10); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("NFS cost at 10 MB = %v, want 0.25", got)
	}
	if got := CheckpointCostNFS(160); math.Abs(got-1.67) > 1e-9 {
		t.Errorf("NFS cost at 160 MB = %v, want 1.67", got)
	}
	if got := CheckpointCostNFS(240); math.Abs(got-2.52) > 1e-9 {
		t.Errorf("NFS cost at 240 MB = %v, want 2.52", got)
	}
}

func TestCheckpointOperationTimeTable4(t *testing.T) {
	// Exact Table 4 anchors.
	cases := map[float64]float64{
		10.3: 0.33, 22.3: 0.42, 42.3: 0.60, 46.3: 0.66,
		82.4: 1.46, 86.4: 1.75, 90.4: 2.09, 94.4: 2.34,
		162: 3.68, 174: 4.95, 212: 5.47, 240: 6.83,
	}
	for mem, want := range cases {
		if got := CheckpointOperationTime(mem); math.Abs(got-want) > 1e-9 {
			t.Errorf("operation time at %v MB = %v, want %v", mem, got, want)
		}
	}
	// The paper's summary claim: 0.33–6.83 s over 10–240 MB.
	if lo := CheckpointOperationTime(10.3); lo < 0.3 || lo > 0.4 {
		t.Errorf("low end = %v", lo)
	}
}

func TestRestartCostTable5(t *testing.T) {
	memories := []float64{10, 20, 40, 80, 160, 240}
	wantA := []float64{0.71, 0.84, 1.23, 1.87, 3.22, 5.69}
	wantB := []float64{0.37, 0.49, 0.54, 0.86, 1.45, 2.4}
	for i, mem := range memories {
		if got := RestartCost(mem, MigrationA); math.Abs(got-wantA[i]) > 1e-9 {
			t.Errorf("A restart at %v MB = %v, want %v", mem, got, wantA[i])
		}
		if got := RestartCost(mem, MigrationB); math.Abs(got-wantB[i]) > 1e-9 {
			t.Errorf("B restart at %v MB = %v, want %v", mem, got, wantB[i])
		}
	}
}

func TestMigrationAMoreExpensiveThanB(t *testing.T) {
	// Table 5's qualitative claim at every memory size, including
	// interpolated and extrapolated points.
	for mem := 5.0; mem <= 400; mem += 5 {
		a := RestartCost(mem, MigrationA)
		b := RestartCost(mem, MigrationB)
		if a <= b {
			t.Fatalf("at %v MB migration A (%v) not more expensive than B (%v)", mem, a, b)
		}
	}
}

func TestLocalCheaperThanNFSCheckpoints(t *testing.T) {
	// Figure 7's qualitative claim: ramdisk checkpoints are cheaper than
	// NFS checkpoints at every memory size.
	for mem := 10.0; mem <= 240; mem += 10 {
		if CheckpointCostLocal(mem) >= CheckpointCostNFS(mem) {
			t.Fatalf("at %v MB local (%v) not cheaper than NFS (%v)",
				mem, CheckpointCostLocal(mem), CheckpointCostNFS(mem))
		}
	}
}

func TestCostsMonotoneInMemory(t *testing.T) {
	eval := []func(float64) float64{
		CheckpointCostLocal,
		CheckpointCostNFS,
		CheckpointOperationTime,
		func(m float64) float64 { return RestartCost(m, MigrationA) },
		func(m float64) float64 { return RestartCost(m, MigrationB) },
	}
	for fi, f := range eval {
		prev := 0.0
		for mem := 5.0; mem <= 500; mem += 5 {
			got := f(mem)
			if got < prev {
				t.Fatalf("model %d not monotone at %v MB: %v < %v", fi, mem, got, prev)
			}
			prev = got
		}
	}
}

func TestCostsPositiveEvenExtrapolated(t *testing.T) {
	// Tiny memories extrapolate below the first anchor; cost must stay
	// positive (it is a duration).
	for _, mem := range []float64{0.1, 1, 2, 5} {
		if CheckpointCostLocal(mem) <= 0 {
			t.Fatalf("local cost at %v MB not positive", mem)
		}
		if RestartCost(mem, MigrationB) <= 0 {
			t.Fatalf("restart cost at %v MB not positive", mem)
		}
	}
}

func TestPanicsOnNonPositiveMemory(t *testing.T) {
	cases := []func(){
		func() { CheckpointCostLocal(0) },
		func() { CheckpointCostNFS(-5) },
		func() { CheckpointOperationTime(0) },
		func() { RestartCost(0, MigrationA) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMigrationTypeString(t *testing.T) {
	if MigrationA.String() != "migration-A(local)" || MigrationB.String() != "migration-B(shared)" {
		t.Fatal("MigrationType.String mismatch")
	}
}

// Property: interpolation stays within the envelope of neighboring
// anchors for in-range memory sizes.
func TestPropertyInterpolationWithinAnchors(t *testing.T) {
	f := func(raw uint16) bool {
		mem := 10 + float64(raw%230) // [10, 240)
		got := RestartCost(mem, MigrationA)
		return got >= 0.71 && got <= 5.69
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRestartCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RestartCost(float64(10+i%230), MigrationA)
	}
}
