package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewCluster(t *testing.T) {
	c := New(32, 7168)
	if c.Hosts() != 32 {
		t.Fatalf("Hosts = %d", c.Hosts())
	}
	if c.FreeMem() != 32*7168 {
		t.Fatalf("FreeMem = %v", c.FreeMem())
	}
	if c.MaxFreeMem() != 7168 {
		t.Fatalf("MaxFreeMem = %v", c.MaxFreeMem())
	}
	if c.RunningTasks() != 0 {
		t.Fatal("fresh cluster not empty")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 100) },
		func() { New(4, 0) },
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

func TestAcquirePicksMaxFreeMemory(t *testing.T) {
	c := New(3, 1000)
	// Load host 0 heavily, host 1 lightly.
	p0 := c.AcquireExcluding(800, 1) // lands on host 0 or 2; both equal, lowest id wins -> 0
	if p0.HostID != 0 {
		t.Fatalf("first placement on host %d, want 0 (tie broken by id)", p0.HostID)
	}
	p1 := c.Acquire(100)
	// Host 0 has 200 free, hosts 1-2 have 1000: must pick host 1.
	if p1.HostID != 1 {
		t.Fatalf("second placement on host %d, want 1", p1.HostID)
	}
	p2 := c.Acquire(100)
	// Now host 1 has 900, host 2 has 1000: must pick host 2.
	if p2.HostID != 2 {
		t.Fatalf("third placement on host %d, want 2", p2.HostID)
	}
}

func TestAcquireFailsWhenFull(t *testing.T) {
	c := New(2, 500)
	a := c.Acquire(400)
	b := c.Acquire(400)
	if a == nil || b == nil {
		t.Fatal("initial placements failed")
	}
	if p := c.Acquire(200); p != nil {
		t.Fatalf("acquire succeeded on full cluster (host %d)", p.HostID)
	}
	c.Release(a)
	if p := c.Acquire(200); p == nil {
		t.Fatal("acquire failed after release")
	}
}

func TestAcquireExcludingSkipsHost(t *testing.T) {
	c := New(2, 1000)
	// Host 1 is the failed host; restart must go to host 0 even if
	// host 1 has more free memory.
	c.AcquireExcluding(500, 1) // consume on host 0
	p := c.AcquireExcluding(100, 1)
	if p == nil || p.HostID != 0 {
		t.Fatalf("restart placed on %+v, want host 0", p)
	}
	// If only the excluded host has room, the request must fail.
	c.AcquireExcluding(400, 1) // host 0 now almost full (900 used)
	if p := c.AcquireExcluding(200, 0); p == nil {
		t.Fatal("placement on non-excluded host 1 should succeed")
	}
	if p := c.AcquireExcluding(200, 1); p != nil && p.HostID == 1 {
		t.Fatal("placement landed on excluded host")
	}
}

// TestAcquireExcludingTieBreak pins the index's tie-breaking: among
// hosts with equal maximum free memory the lowest id must win, also
// when the exclusion masks the root winner out of the tournament.
func TestAcquireExcludingTieBreak(t *testing.T) {
	c := New(5, 1000)
	// All five hosts tie; excluding the would-be winner (0) must yield
	// the next id up, not an arbitrary subtree champion.
	if p := c.AcquireExcluding(100, 0); p.HostID != 1 {
		t.Fatalf("excluded-tie placement on host %d, want 1", p.HostID)
	}
	// Hosts 0,2,3,4 tie at 1000 again; exclusion of 2 keeps 0 first.
	if p := c.AcquireExcluding(100, 2); p.HostID != 0 {
		t.Fatalf("placement on host %d, want 0", p.HostID)
	}
	// Now 2,3,4 tie at 1000. Exclude 3: lowest of {2,4} wins.
	if p := c.AcquireExcluding(100, 3); p.HostID != 2 {
		t.Fatalf("placement on host %d, want 2", p.HostID)
	}
	// Remaining full-free hosts: 3,4. Exclude 3 -> 4.
	if p := c.AcquireExcluding(100, 3); p.HostID != 4 {
		t.Fatalf("placement on host %d, want 4", p.HostID)
	}
}

// TestOnlyExcludedHostFits covers the preview/acquire pair in the case
// the demand filter alone cannot decide: the cluster-wide maximum free
// memory fits the request, but it sits entirely on the excluded host.
func TestOnlyExcludedHostFits(t *testing.T) {
	c := New(3, 1000)
	c.AcquireExcluding(900, -1) // host 0 -> 100 free
	c.AcquireExcluding(800, 0)  // host 1 -> 200 free; host 2 keeps 1000
	if got := c.MaxFreeMem(); got != 1000 {
		t.Fatalf("MaxFreeMem = %v, want 1000", got)
	}
	// 500 MB fits only on host 2. Excluding host 2 must fail both the
	// preview and the acquire, even though MaxFreeMem says 1000.
	if c.AcquirePreview(500, 2) {
		t.Fatal("preview claims a fit with the only fitting host excluded")
	}
	if p := c.AcquireExcluding(500, 2); p != nil {
		t.Fatalf("acquire placed on host %d with the only fitting host excluded", p.HostID)
	}
	// Not excluding it succeeds on host 2.
	if p := c.AcquireExcluding(500, 0); p == nil || p.HostID != 2 {
		t.Fatalf("placement = %+v, want host 2", p)
	}
}

func TestReleasePanicsOnDoubleRelease(t *testing.T) {
	c := New(1, 100)
	p := c.Acquire(50)
	c.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	c.Release(p)
}

func TestSetAliveExcludesHost(t *testing.T) {
	c := New(2, 1000)
	c.SetAlive(1, false)
	for i := 0; i < 3; i++ {
		p := c.Acquire(100)
		if p == nil {
			t.Fatal("placement failed with live host available")
		}
		if p.HostID == 1 {
			t.Fatal("placed on dead host")
		}
	}
	c.SetAlive(1, true)
	// Host 1 now has max free memory again.
	if p := c.Acquire(100); p.HostID != 1 {
		t.Fatalf("revived host not preferred, got %d", p.HostID)
	}
}

// TestHostChurnKeepsIndexConsistent cycles hosts up and down while
// placing and releasing, checking the index never places on a dead
// host and recovers revived hosts' capacity.
func TestHostChurnKeepsIndexConsistent(t *testing.T) {
	c := New(4, 1000)
	var live []*Placement
	for round := 0; round < 50; round++ {
		down := round % 4
		c.SetAlive(down, false)
		if got := c.MaxFreeMem(); math.IsInf(got, -1) {
			t.Fatalf("round %d: no live host reported with 3 up", round)
		}
		for i := 0; i < 3; i++ {
			p := c.Acquire(100)
			if p == nil {
				break
			}
			if p.HostID == down {
				t.Fatalf("round %d: placed on downed host %d", round, down)
			}
			live = append(live, p)
		}
		c.SetAlive(down, true)
		// Release about half to keep churn going.
		for len(live) > 6 {
			c.Release(live[len(live)-1])
			live = live[:len(live)-1]
		}
	}
	for _, p := range live {
		c.Release(p)
	}
	if c.RunningTasks() != 0 {
		t.Fatalf("RunningTasks = %d after draining", c.RunningTasks())
	}
	if got := c.MaxFreeMem(); got != 1000 {
		t.Fatalf("MaxFreeMem = %v after draining, want 1000", got)
	}
}

// TestMaxFreeMemNoLiveHosts pins the -Inf contract the engine's
// saturation early-exit relies on.
func TestMaxFreeMemNoLiveHosts(t *testing.T) {
	c := New(2, 1000)
	c.SetAlive(0, false)
	c.SetAlive(1, false)
	if got := c.MaxFreeMem(); !math.IsInf(got, -1) {
		t.Fatalf("MaxFreeMem = %v with no live hosts, want -Inf", got)
	}
	if c.AcquirePreview(1, -1) {
		t.Fatal("preview succeeded with no live hosts")
	}
}

// TestUtilizationAndSnapshot reads the cluster's memory use after one
// placement, in total and per host.
func TestUtilizationAndSnapshot(t *testing.T) {
	c := New(2, 1000)
	c.Acquire(500)
	if got := c.FreeMem(); got != 1500 {
		t.Fatalf("FreeMem = %v, want 1500 (a quarter of 2000 in use)", got)
	}
	if c.Host(0).FreeMem() != 500 || c.Host(1).FreeMem() != 1000 {
		t.Fatalf("per-host free memory %v, %v, want 500, 1000", c.Host(0).FreeMem(), c.Host(1).FreeMem())
	}
	if c.RunningTasks() != 1 {
		t.Fatalf("RunningTasks = %d", c.RunningTasks())
	}
}

func TestAcquirePanicsOnBadMem(t *testing.T) {
	c := New(1, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-memory acquire did not panic")
		}
	}()
	c.Acquire(0)
}

func TestPendingQueueFIFO(t *testing.T) {
	var q PendingQueue[int]
	q.PushFresh(1, 10)
	q.PushFresh(2, 10)
	q.PushFresh(3, 10)
	for want := 1; want <= 3; want++ {
		got, ok := q.PopFitting(math.Inf(1), nil)
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := q.PopFitting(math.Inf(1), nil); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
}

func TestPendingQueueRestartsFirst(t *testing.T) {
	var q PendingQueue[string]
	q.PushFresh("fresh1", 1)
	q.PushRestart("restart1", 1)
	q.PushFresh("fresh2", 1)
	q.PushRestart("restart2", 1)
	want := []string{"restart1", "restart2", "fresh1", "fresh2"}
	for _, w := range want {
		got, ok := q.PopFitting(math.Inf(1), nil)
		if !ok || got != w {
			t.Fatalf("Pop = %q, want %q", got, w)
		}
	}
}

// TestPendingQueuePopWhere pops by an arbitrary predicate: with no
// demand limit, PopFitting's fits alone picks the task.
func TestPendingQueuePopWhere(t *testing.T) {
	var q PendingQueue[int]
	q.PushFresh(100, 100)
	q.PushFresh(5, 5)
	q.PushFresh(50, 50)
	got, ok := q.PopFitting(math.Inf(1), func(v int) bool { return v <= 10 })
	if !ok || got != 5 {
		t.Fatalf("PopFitting(+Inf, v <= 10) = %d,%v", got, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after the predicate pop", q.Len())
	}
	// Remaining order preserved.
	a, _ := q.PopFitting(math.Inf(1), nil)
	b, _ := q.PopFitting(math.Inf(1), nil)
	if a != 100 || b != 50 {
		t.Fatalf("remaining order %d,%d", a, b)
	}
	if _, ok := q.PopFitting(math.Inf(1), func(int) bool { return true }); ok {
		t.Fatal("predicate pop on empty queue succeeded")
	}
}

func TestPendingQueuePopFitting(t *testing.T) {
	var q PendingQueue[int]
	q.PushFresh(100, 100)
	q.PushFresh(5, 5)
	q.PushFresh(50, 50)
	q.PushFresh(7, 7)
	if got := q.MinDemand(); got != 5 {
		t.Fatalf("MinDemand = %v, want 5", got)
	}
	// First fit in FIFO order under a 60 MB ceiling is 5.
	got, ok := q.PopFitting(60, nil)
	if !ok || got != 5 {
		t.Fatalf("PopFitting = %d,%v, want 5", got, ok)
	}
	// A fits predicate can veto a demand-fitting candidate: 50 is
	// rejected, the scan moves on to 7 without disturbing order.
	got, ok = q.PopFitting(60, func(v int) bool { return v != 50 })
	if !ok || got != 7 {
		t.Fatalf("PopFitting with veto = %d,%v, want 7", got, ok)
	}
	// Nothing fits under 10 MB anymore.
	if _, ok := q.PopFitting(10, nil); ok {
		t.Fatal("PopFitting found a fit below the minimum demand")
	}
	// Remaining order preserved: 100 then 50.
	a, _ := q.PopFitting(math.Inf(1), nil)
	b, _ := q.PopFitting(math.Inf(1), nil)
	if a != 100 || b != 50 {
		t.Fatalf("remaining order %d,%d", a, b)
	}
	if got := q.MinDemand(); !math.IsInf(got, 1) {
		t.Fatalf("MinDemand on empty queue = %v, want +Inf", got)
	}
}

// TestPendingQueuePopFittingUnbounded pins the non-finite maxFree
// contract: +Inf means "no demand limit" and must skip tombstones left
// by mid-queue removals (never returning a zero item), NaN matches
// nothing.
func TestPendingQueuePopFittingUnbounded(t *testing.T) {
	var q PendingQueue[int]
	q.PushFresh(1, 5)
	q.PushFresh(2, 7)
	q.PushFresh(3, 9)
	// Mid-queue removal leaves a tombstone (+Inf leaf) at slot 1.
	if v, ok := q.PopFitting(math.Inf(1), func(v int) bool { return v == 2 }); !ok || v != 2 {
		t.Fatalf("PopFitting(+Inf, only 2) = %d,%v", v, ok)
	}
	if v, ok := q.PopFitting(math.NaN(), nil); ok {
		t.Fatalf("PopFitting(NaN) returned %d", v)
	}
	// Unbounded pop must return the first live item, not the tombstone.
	if v, ok := q.PopFitting(math.Inf(1), func(v int) bool { return v != 1 }); !ok || v != 3 {
		t.Fatalf("PopFitting(+Inf, veto 1) = %d,%v, want 3", v, ok)
	}
	if v, ok := q.PopFitting(math.Inf(1), nil); !ok || v != 1 {
		t.Fatalf("PopFitting(+Inf) = %d,%v, want 1", v, ok)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestPendingQueueRestartLaneFitsFirst pins the lane priority of the
// indexed pop: a fitting restart wins over an earlier-demand fresh
// task.
func TestPendingQueueRestartLaneFitsFirst(t *testing.T) {
	var q PendingQueue[string]
	q.PushFresh("small-fresh", 1)
	q.PushRestart("big-restart", 80)
	q.PushRestart("small-restart", 10)
	got, ok := q.PopFitting(20, nil)
	if !ok || got != "small-restart" {
		t.Fatalf("PopFitting = %q,%v, want small-restart", got, ok)
	}
	got, ok = q.PopFitting(100, nil)
	if !ok || got != "big-restart" {
		t.Fatalf("PopFitting = %q,%v, want big-restart", got, ok)
	}
}

// TestLaneRebuildInPlaceAllocatesNothing: a full ring that is at most
// half live compacts in place when the next push rebuilds it, so
// restarts churning a steady-size lane allocate nothing, and FIFO order
// and the demand index survive the compaction.
func TestLaneRebuildInPlaceAllocatesNothing(t *testing.T) {
	var q PendingQueue[int]
	l := &q.fresh
	live := make([]int, 0, 2*minLaneCap)
	next := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.PushFresh(next, float64(1+next%7))
			live = append(live, next)
			next++
		}
	}
	push(minLaneCap)
	// Each cycle tombstones all but the first and the last three of a
	// full ring, then refills it; the first push of the refill rebuilds.
	cycle := func() {
		for pos := l.head + 1; pos < l.tail-3; pos++ {
			l.remove(pos)
		}
		live = append(live[:1], live[len(live)-3:]...)
		push(minLaneCap - 4)
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("same-capacity rebuild allocates %v times per cycle", allocs)
	}
	if len(l.items) != minLaneCap {
		t.Fatalf("capacity %d, want %d: the rebuild grew a lane that was a quarter live", len(l.items), minLaneCap)
	}
	if got := q.MinDemand(); got != 1 {
		t.Fatalf("MinDemand = %v after compaction, want 1", got)
	}
	for i, want := range live {
		if got, ok := q.PopFitting(math.Inf(1), nil); !ok || got != want {
			t.Fatalf("pop %d = %d,%v, want %d", i, got, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestPendingQueueReleasesPoppedReferences guards the reference-
// retention fix: vacated ring slots must not keep popped items alive
// in the backing array.
func TestPendingQueueReleasesPoppedReferences(t *testing.T) {
	var q PendingQueue[*int]
	a, b, c := new(int), new(int), new(int)
	q.PushFresh(a, 1)
	q.PushFresh(b, 2)
	q.PushFresh(c, 3)
	if v, _ := q.PopFitting(math.Inf(1), nil); v != a {
		t.Fatal("unexpected pop order")
	}
	if v, ok := q.PopFitting(math.Inf(1), func(p *int) bool { return p == c }); !ok || v != c {
		t.Fatal("PopFitting missed the target")
	}
	for i, it := range q.fresh.items {
		if it != nil && it != b {
			t.Errorf("slot %d retains a popped reference", i)
		}
	}
	if v, ok := q.PopFitting(2, nil); !ok || v != b {
		t.Fatal("PopFitting missed the survivor")
	}
	for i, it := range q.fresh.items {
		if it != nil {
			t.Errorf("slot %d retains a reference after draining", i)
		}
	}
}

// TestPendingQueueWraparound pushes and pops past the initial ring
// capacity repeatedly so logical positions wrap physical slots, with
// mid-queue removals in the mix.
func TestPendingQueueWraparound(t *testing.T) {
	var q PendingQueue[int]
	demand := func(v int) float64 { return float64(v%9) + 1 }
	var model []int // FIFO mirror of the fresh lane
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			q.PushFresh(next, demand(next))
			model = append(model, next)
			next++
		}
		// One mid-queue indexed pop, then FIFO pops.
		v, ok := q.PopFitting(3, nil)
		wantIdx := -1
		for i, w := range model {
			if demand(w) <= 3 {
				wantIdx = i
				break
			}
		}
		if (wantIdx < 0) != !ok || (ok && v != model[wantIdx]) {
			t.Fatalf("round %d: PopFitting = %d,%v, model %v", round, v, ok, model)
		}
		if ok {
			model = append(model[:wantIdx], model[wantIdx+1:]...)
		}
		for q.Len() > 5 {
			v, ok := q.PopFitting(math.Inf(1), nil)
			if !ok || v != model[0] {
				t.Fatalf("round %d: Pop = %d,%v, want %d", round, v, ok, model[0])
			}
			model = model[1:]
		}
	}
}

// Property: memory accounting never goes negative and acquire/release
// round-trips restore free memory exactly.
func TestPropertyMemoryConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New(4, 1000)
		var live []*Placement
		initial := c.FreeMem()
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				mem := float64(op%90) + 10
				if p := c.Acquire(mem); p != nil {
					live = append(live, p)
				}
			} else {
				p := live[len(live)-1]
				live = live[:len(live)-1]
				c.Release(p)
			}
			if c.FreeMem() < -1e-9 || c.FreeMem() > initial+1e-9 {
				return false
			}
		}
		for _, p := range live {
			c.Release(p)
		}
		return c.FreeMem() == initial && c.RunningTasks() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAcquireRelease(b *testing.B) {
	c := New(32, 7168)
	for i := 0; i < b.N; i++ {
		p := c.Acquire(128)
		if p != nil {
			c.Release(p)
		}
	}
}
