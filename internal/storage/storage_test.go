package storage

import (
	"math"
	"testing"

	"repro/internal/simeng"
	"repro/internal/stats"
)

// measureParallel prices `degree` simultaneous checkpoints of memMB on
// the backend, repeated reps times (the paper runs each case 25 times).
func measureParallel(b interface {
	BatchCosts(k int, memMB float64) []float64
}, degree, reps int, memMB float64) []float64 {
	var costs []float64
	for rep := 0; rep < reps; rep++ {
		costs = append(costs, b.BatchCosts(degree, memMB)...)
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

// TestReleaseWithoutWriteInFlightPanics: each release ends exactly one
// write, so a second call of the same release, with no write left in
// flight, is a caller bug the contended devices refuse loudly.
func TestReleaseWithoutWriteInFlightPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		b    Backend
	}{{"nfs", NewNFS(nil)}, {"dm-nfs", NewDMNFS(simeng.NewRNG(9), 4)}} {
		_, release := c.b.Begin(0, 100)
		release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a release with no write in flight did not panic", c.name)
				}
			}()
			release()
		}()
	}
}

// TestWarmWriteAllocFree: a device binds its releases once, so a write
// begun and released after the first allocates nothing.
func TestWarmWriteAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		b    Backend
	}{
		{"local-ramdisk", NewLocalRamdisk(simeng.NewRNG(1))},
		{"nfs", NewNFS(simeng.NewRNG(2))},
		{"dm-nfs", NewDMNFS(simeng.NewRNG(3), 32)},
	} {
		write := func() {
			_, release := c.b.Begin(0, 160)
			release()
		}
		write()
		if n := testing.AllocsPerRun(1000, write); n != 0 {
			t.Errorf("%s: a warm Begin plus release allocates %v times", c.name, n)
		}
	}
}

// TestBatchCostsReserveNothing: a batch pays for the writes already in
// flight as well as its own, and leaves no write in flight behind.
func TestBatchCostsReserveNothing(t *testing.T) {
	n := NewNFS(nil)
	_, release := n.Begin(0, 160)
	for _, c := range n.BatchCosts(2, 160) {
		if want := n.CheckpointCost(160) * congestion(3); c != want {
			t.Errorf("NFS batch of 2 beside 1 in flight costs %v, want degree 3's %v", c, want)
		}
	}
	if n.InFlight() != 1 {
		t.Errorf("NFS: %d writes in flight after a batch, want 1", n.InFlight())
	}
	release()

	d := NewDMNFS(simeng.NewRNG(11), 1)
	_, release = d.Begin(0, 160)
	for _, c := range d.BatchCosts(4, 160) {
		if lo := d.CheckpointCost(160) * congestion(5) * (1 - d.jitter); c < lo {
			t.Errorf("one-server DM-NFS batch of 4 beside 1 in flight costs %v, below degree 5's %v", c, lo)
		}
	}
	if d.InFlight() != 1 {
		t.Errorf("DM-NFS: %d writes in flight after a batch, want 1", d.InFlight())
	}
	release()
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
	l, n, d := NewLocalRamdisk(nil), NewNFS(nil), NewDMNFS(simeng.NewRNG(10), 4)
	if l.CheckpointCost(160) >= n.CheckpointCost(160) {
		t.Error("planning cost: local must be cheaper than NFS")
	}
	if d.CheckpointCost(160) != n.CheckpointCost(160) {
		t.Error("DM-NFS planning cost should equal the uncontended NFS cost")
	}
	if l.RestartCost(160) <= d.RestartCost(160) {
		t.Error("planning restart: local (migration A) must be dearer")
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
