package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// The differential tests drive the indexed Cluster/PendingQueue and
// the retained naive implementations (naive_test.go) through identical
// randomized operation sequences and require identical answers at
// every step. This is the byte-identical-placement contract: the index
// is an acceleration structure, never a semantic change. Demands and
// requests are quantized to coarse steps so free-memory ties — the
// tie-breaking hot spot — occur constantly.

// TestClusterDifferential checks every placement decision — chosen
// host, with and without an excluded host, and max-free-mem reads —
// against the linear scan over randomized acquire/release/up-down
// churn.
func TestClusterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20130601))
	for trial := 0; trial < 25; trial++ {
		nHosts := 1 + rng.Intn(40)
		idx := New(nHosts, 1000)
		ref := NewNaive(nHosts, 1000)
		var live []*Placement
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // acquire, sometimes excluding a host
				mem := float64(1+rng.Intn(10)) * 97
				ex := -1
				if rng.Intn(3) == 0 {
					ex = rng.Intn(nHosts + 2) // may exceed the host range
				}
				p := idx.AcquireExcluding(mem, ex)
				want := ref.AcquireExcluding(mem, ex)
				if (p == nil) != (want < 0) {
					t.Fatalf("trial %d op %d: acquire(%v, ex %d) success mismatch (naive host %d)",
						trial, op, mem, ex, want)
				}
				if p != nil {
					if p.HostID != want {
						t.Fatalf("trial %d op %d: acquire(%v, ex %d) placed on host %d, naive %d",
							trial, op, mem, ex, p.HostID, want)
					}
					live = append(live, p)
				}
			case k < 8: // release a random placement
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				p := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				ref.Release(p.HostID, p.MemMB)
				idx.Release(p)
			case k < 9: // toggle a host
				h := rng.Intn(nHosts)
				alive := rng.Intn(2) == 0
				idx.SetAlive(h, alive)
				ref.SetAlive(h, alive)
			default: // max free mem must match bit-for-bit
				got, want := idx.MaxFreeMem(), ref.MaxFreeMem()
				if got != want && !(math.IsInf(got, -1) && math.IsInf(want, -1)) {
					t.Fatalf("trial %d op %d: MaxFreeMem = %v, naive %v", trial, op, got, want)
				}
			}
		}
	}
}

// TestQueueDifferential checks the indexed queue's pops — plain FIFO
// and demand-filtered with a veto predicate — against the splice-based
// scan, over randomized push/pop interleavings on both lanes.
func TestQueueDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		var idx PendingQueue[int]
		var ref NaivePendingQueue[int]
		vetoMod := 3 + rng.Intn(5)
		veto := func(v int) bool { return v%vetoMod != 0 }
		next := 0
		for op := 0; op < 4000; op++ {
			switch k := rng.Intn(10); {
			case k < 4: // push (either lane)
				demand := float64(1+rng.Intn(12)) * 50
				if rng.Intn(4) == 0 {
					idx.PushRestart(next, demand)
					ref.PushRestart(next, demand)
				} else {
					idx.PushFresh(next, demand)
					ref.PushFresh(next, demand)
				}
				next++
			case k < 6: // FIFO pop
				gv, gok := idx.PopFitting(math.Inf(1), nil)
				wv, wok := ref.Pop()
				if gv != wv || gok != wok {
					t.Fatalf("trial %d op %d: Pop = %d,%v, naive %d,%v", trial, op, gv, gok, wv, wok)
				}
			case k < 9: // demand-filtered pop, sometimes with a veto
				maxFree := float64(rng.Intn(14)) * 50
				if rng.Intn(8) == 0 {
					maxFree = math.Inf(1) // "no limit" must agree too
				}
				fits := func(int) bool { return true }
				if rng.Intn(2) == 0 {
					fits = veto
				}
				gv, gok := idx.PopFitting(maxFree, fits)
				wv, wok := ref.PopFitting(maxFree, fits)
				if gv != wv || gok != wok {
					t.Fatalf("trial %d op %d: PopFitting(%v) = %d,%v, naive %d,%v",
						trial, op, maxFree, gv, gok, wv, wok)
				}
			default: // aggregate reads
				if g, w := idx.Len(), ref.Len(); g != w {
					t.Fatalf("trial %d op %d: Len = %d, naive %d", trial, op, g, w)
				}
				g, w := idx.MinDemand(), ref.MinDemand()
				if g != w && !(math.IsInf(g, 1) && math.IsInf(w, 1)) {
					t.Fatalf("trial %d op %d: MinDemand = %v, naive %v", trial, op, g, w)
				}
			}
		}
		// Drain both to the end: order must agree all the way down.
		for {
			gv, gok := idx.PopFitting(math.Inf(1), nil)
			wv, wok := ref.Pop()
			if gv != wv || gok != wok {
				t.Fatalf("trial %d drain: Pop = %d,%v, naive %d,%v", trial, gv, gok, wv, wok)
			}
			if !gok {
				break
			}
		}
	}
}
