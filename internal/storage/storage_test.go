package storage

import (
	"math"
	"testing"

	"repro/internal/simeng"
	"repro/internal/stats"
)

// measureParallel issues `degree` simultaneous checkpoints of memMB on
// the backend and returns their costs, repeated reps times (the paper
// runs each case 25 times).
func measureParallel(b interface {
	BeginBatch(hostIDs []int, memMB float64) ([]float64, func())
}, degree, reps int, memMB float64) []float64 {
	var costs []float64
	hostIDs := make([]int, degree)
	for i := range hostIDs {
		hostIDs[i] = i
	}
	for rep := 0; rep < reps; rep++ {
		batch, release := b.BeginBatch(hostIDs, memMB)
		costs = append(costs, batch...)
		release()
	}
	return costs
}

// Table 2, upper half: local-ramdisk checkpointing cost is stable under
// simultaneous checkpointing (averages 0.58-0.81 s at 160 MB).
func TestTable2LocalRamdiskFlat(t *testing.T) {
	rng := simeng.NewRNG(1)
	l := NewLocalRamdisk(rng)
	for degree := 1; degree <= 5; degree++ {
		costs := measureParallel(l, degree, 25, 160)
		avg := stats.Mean(costs)
		if avg < 0.5 || avg > 0.95 {
			t.Errorf("degree %d: local avg cost %v outside paper's 0.5-0.95 band", degree, avg)
		}
	}
}

// Table 2, lower half: NFS cost grows steeply with parallel degree
// (averages 1.67 -> 8.95 s for degrees 1 -> 5 at 160 MB).
func TestTable2NFSCongestion(t *testing.T) {
	rng := simeng.NewRNG(2)
	n := NewNFS(rng)
	want := []float64{1.67, 2.665, 5.38, 6.25, 8.95}
	for degree := 1; degree <= 5; degree++ {
		costs := measureParallel(n, degree, 25, 160)
		// The cost of the LAST concurrent operation reflects the full
		// degree; the paper reports the average over the batch.
		avg := stats.Mean(costs)
		// Paper averages blend all ops in a batch; compare within 40%.
		if math.Abs(avg-want[degree-1])/want[degree-1] > 0.40 {
			t.Errorf("degree %d: NFS avg cost %v, paper %v", degree, avg, want[degree-1])
		}
	}
	// The headline claim: degree-5 cost is several times degree-1 cost.
	d1 := stats.Mean(measureParallel(NewNFS(simeng.NewRNG(3)), 1, 25, 160))
	d5 := stats.Mean(measureParallel(NewNFS(simeng.NewRNG(4)), 5, 25, 160))
	if d5 < 3*d1 {
		t.Errorf("NFS degree-5 cost (%v) not >= 3x degree-1 cost (%v)", d5, d1)
	}
}

// Table 3: DM-NFS cost stays within ~2 s at 160 MB for degrees 1-5.
func TestTable3DMNFSFlat(t *testing.T) {
	rng := simeng.NewRNG(5)
	d := NewDMNFS(rng, 32)
	for degree := 1; degree <= 5; degree++ {
		costs := measureParallel(d, degree, 25, 160)
		avg := stats.Mean(costs)
		if avg > 2.0 {
			t.Errorf("degree %d: DM-NFS avg cost %v exceeds the paper's 2 s bound", degree, avg)
		}
		if avg < 1.3 {
			t.Errorf("degree %d: DM-NFS avg cost %v implausibly low", degree, avg)
		}
	}
}

func TestDMNFSManyServersBeatSingleNFS(t *testing.T) {
	// At high parallel degree DM-NFS must dramatically beat plain NFS.
	nfsCosts := measureParallel(NewNFS(simeng.NewRNG(6)), 5, 25, 160)
	dmCosts := measureParallel(NewDMNFS(simeng.NewRNG(7), 32), 5, 25, 160)
	if stats.Mean(dmCosts) > stats.Mean(nfsCosts)/2 {
		t.Errorf("DM-NFS (%v) not at least 2x cheaper than NFS (%v) at degree 5",
			stats.Mean(dmCosts), stats.Mean(nfsCosts))
	}
}

func TestDMNFSSingleServerDegradesToNFS(t *testing.T) {
	// With one server, DM-NFS must congest like plain NFS.
	dm := NewDMNFS(simeng.NewRNG(8), 1)
	costs := measureParallel(dm, 5, 25, 160)
	if stats.Mean(costs) < 3 {
		t.Errorf("single-server DM-NFS avg %v suspiciously flat", stats.Mean(costs))
	}
}

func TestCongestionReleaseRestoresCost(t *testing.T) {
	n := NewNFS(nil)
	c1, r1 := n.Begin(0, 160)
	c2, r2 := n.Begin(1, 160)
	if c2 <= c1 {
		t.Fatalf("second concurrent op (%v) not more expensive than first (%v)", c2, c1)
	}
	r1()
	r2()
	if n.InFlight() != 0 {
		t.Fatalf("inFlight = %d after releases", n.InFlight())
	}
	c3, r3 := n.Begin(0, 160)
	defer r3()
	if math.Abs(c3-c1) > 1e-9 {
		t.Fatalf("cost after drain (%v) differs from initial (%v)", c3, c1)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	l, n, d := NewLocalRamdisk(nil), NewNFS(nil), NewDMNFS(simeng.NewRNG(9), 4)
	for _, c := range []struct {
		name string
		b    Backend
		pool *opPool
	}{{"local-ramdisk", l, &l.ops}, {"nfs", n, &n.ops}, {"dm-nfs", d, &d.ops}} {
		_, release := c.b.Begin(0, 100)
		release()
		release() // double release must not pool the op twice
		if got := len(c.pool.free); got != 1 {
			t.Errorf("%s: %d pooled ops after double release, want 1", c.name, got)
		}
	}
	if n.InFlight() != 0 || d.InFlight() != 0 {
		t.Errorf("inFlight = %d (nfs), %d (dm-nfs) after double release, want 0", n.InFlight(), d.InFlight())
	}
}

// TestImageHostSemantics pins where each backend's images live, which
// its Kind tells the engine: only local-ramdisk images stay on the
// writer's host; NFS and DM-NFS images are reachable from any host.
func TestImageHostSemantics(t *testing.T) {
	if k := NewLocalRamdisk(nil).Kind(); k != KindLocal {
		t.Errorf("local ramdisk Kind = %v, want the writer-bound %v", k, KindLocal)
	}
	if k := NewNFS(nil).Kind(); k != KindNFS {
		t.Errorf("NFS Kind = %v, want shared %v", k, KindNFS)
	}
	if k := NewDMNFS(simeng.NewRNG(10), 4).Kind(); k != KindDMNFS {
		t.Errorf("DM-NFS Kind = %v, want shared %v", k, KindDMNFS)
	}
}

func TestRestartCostMatchesMigrationTypes(t *testing.T) {
	l := NewLocalRamdisk(nil)
	n := NewNFS(nil)
	// Local storage implies migration A (more expensive restart).
	if l.RestartCost(160) <= n.RestartCost(160) {
		t.Errorf("local restart (%v) must exceed shared restart (%v)",
			l.RestartCost(160), n.RestartCost(160))
	}
	// Table 5 anchors.
	if math.Abs(l.RestartCost(160)-3.22) > 1e-9 {
		t.Errorf("local restart at 160 MB = %v, want 3.22", l.RestartCost(160))
	}
	if math.Abs(n.RestartCost(160)-1.45) > 1e-9 {
		t.Errorf("shared restart at 160 MB = %v, want 1.45", n.RestartCost(160))
	}
}

func TestCheckpointCostHelpers(t *testing.T) {
	if CheckpointCost(KindLocal, 160) >= CheckpointCost(KindNFS, 160) {
		t.Error("planning cost: local must be cheaper than NFS")
	}
	if CheckpointCost(KindDMNFS, 160) != CheckpointCost(KindNFS, 160) {
		t.Error("DM-NFS planning cost should equal the uncontended NFS cost")
	}
	if RestartCostFor(KindLocal, 160) <= RestartCostFor(KindNFS, 160) {
		t.Error("planning restart: local (migration A) must be dearer")
	}
}

func TestKindString(t *testing.T) {
	if KindLocal.String() != "local-ramdisk" || KindNFS.String() != "nfs" || KindDMNFS.String() != "dm-nfs" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestDMNFSConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewDMNFS(simeng.NewRNG(1), 0) },
		func() { NewDMNFS(nil, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCongestionExtrapolation(t *testing.T) {
	// Beyond degree 5 the multiplier keeps growing.
	if congestion(6) <= congestion(5) {
		t.Error("congestion must keep growing past degree 5")
	}
	if congestion(0) != 1 || congestion(1) != 1 {
		t.Error("degree <= 1 must be uncontended")
	}
}

func BenchmarkNFSBeginRelease(b *testing.B) {
	n := NewNFS(simeng.NewRNG(1))
	for i := 0; i < b.N; i++ {
		_, release := n.Begin(0, 160)
		release()
	}
}
