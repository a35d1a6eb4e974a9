package coord

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutable time source for deterministic lease expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestLedger(n int, lease time.Duration) (*Ledger, *fakeClock) {
	l := NewLedger(n, lease)
	clk := newFakeClock()
	l.SetClock(clk.Now)
	return l, clk
}

func TestClaimRangesAreDisjointAndCoverTheSpace(t *testing.T) {
	l, _ := newTestLedger(10, time.Minute)
	seen := make(map[int]string)
	for {
		cl, ok := l.Claim("w", 3)
		if !ok {
			break
		}
		if cl.End <= cl.Start {
			t.Fatalf("empty claim %+v", cl)
		}
		for i := cl.Start; i < cl.End; i++ {
			if prev, dup := seen[i]; dup {
				t.Fatalf("index %d claimed twice (%s then %s)", i, prev, cl.ID)
			}
			seen[i] = cl.ID
		}
	}
	if len(seen) != 10 {
		t.Fatalf("claims covered %d/10 indices", len(seen))
	}
	if _, _, avail := l.Counts(); avail != 0 {
		t.Fatalf("available %d after full lease-out", avail)
	}
}

func TestCompleteReturnsUnfinishedIndices(t *testing.T) {
	l, _ := newTestLedger(6, time.Minute)
	cl, ok := l.Claim("w", 6)
	if !ok {
		t.Fatal("no claim")
	}
	for i := 0; i < 3; i++ {
		if err := l.CompleteIndex(cl.ID, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Complete(cl.ID); err != nil {
		t.Fatal(err)
	}
	done, leased, avail := l.Counts()
	if done != 3 || leased != 0 || avail != 3 {
		t.Fatalf("counts after partial complete: done=%d leased=%d avail=%d", done, leased, avail)
	}
	// The handed-back indices must be re-claimable, and the retired
	// claim must be fenced.
	if err := l.CompleteIndex(cl.ID, 4); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("retired claim not fenced: %v", err)
	}
	cl2, ok := l.Claim("w2", 6)
	if !ok || cl2.Start != 3 || cl2.End != 6 {
		t.Fatalf("re-claim got %+v, want [3,6)", cl2)
	}
}

// TestLeaseExpirySingleWinner is the duplicate-claim race distilled:
// a worker's lease expires mid-range, two claimants race for the
// expired range, exactly one wins it, and the zombie's late publishes
// and renewals are all fenced with ErrLeaseLost.
func TestLeaseExpirySingleWinner(t *testing.T) {
	l, clk := newTestLedger(4, time.Second)
	zombie, ok := l.Claim("zombie", 4)
	if !ok {
		t.Fatal("no claim")
	}
	// The zombie publishes index 0, then stalls past its lease.
	if err := l.CompleteIndex(zombie.ID, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)

	// Two replacements race for the expired range.
	type res struct {
		cl Claim
		ok bool
	}
	results := make(chan res, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			cl, ok := l.Claim(name, 4)
			results <- res{cl, ok}
		}(fmt.Sprintf("w%d", g))
	}
	wg.Wait()
	close(results)
	var winners []Claim
	for r := range results {
		if r.ok {
			winners = append(winners, r.cl)
		}
	}
	if len(winners) != 1 {
		t.Fatalf("%d winners for the expired range, want exactly 1", len(winners))
	}
	win := winners[0]
	// Index 0 was already done and must NOT be re-issued: the zombie's
	// partial result is durable and heals by cache probe.
	if win.Start != 1 || win.End != 4 {
		t.Fatalf("winner got [%d,%d), want [1,4) — done index re-issued", win.Start, win.End)
	}
	// Every zombie operation is fenced.
	if _, err := l.Renew(zombie.ID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie renew: %v, want ErrLeaseLost", err)
	}
	if err := l.Owns(zombie.ID, 2); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie owns: %v, want ErrLeaseLost", err)
	}
	if err := l.CompleteIndex(zombie.ID, 2); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie complete: %v, want ErrLeaseLost", err)
	}
	// The winner finishes the job.
	for i := 1; i < 4; i++ {
		if err := l.CompleteIndex(win.ID, i); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-l.Done():
	default:
		t.Fatal("ledger not done after every index completed")
	}
}

func TestRenewKeepsClaimAlive(t *testing.T) {
	l, clk := newTestLedger(2, time.Second)
	cl, _ := l.Claim("w", 2)
	for i := 0; i < 5; i++ {
		clk.Advance(700 * time.Millisecond) // past 2/3 of the lease each time
		if _, err := l.Renew(cl.ID); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if err := l.CompleteIndex(cl.ID, 0); err != nil {
		t.Fatalf("claim lost despite renewals: %v", err)
	}
}

func TestMarkDonePreloadsCheckpointedIndices(t *testing.T) {
	l, _ := newTestLedger(5, time.Minute)
	l.MarkDone(0, 2, 4, 99, -1) // out-of-range ignored
	cl, ok := l.Claim("w", 5)
	if !ok || cl.Start != 1 || cl.End != 2 {
		t.Fatalf("claim %+v, want [1,2) — done indices must not be issued", cl)
	}
	cl2, ok := l.Claim("w", 5)
	if !ok || cl2.Start != 3 || cl2.End != 4 {
		t.Fatalf("claim %+v, want [3,4)", cl2)
	}
	l.CompleteIndex(cl.ID, 1)
	l.CompleteIndex(cl2.ID, 3)
	select {
	case <-l.Done():
	default:
		t.Fatal("ledger not done")
	}
}

func TestAllDoneAtConstruction(t *testing.T) {
	l, _ := newTestLedger(3, time.Minute)
	l.MarkDone(0, 1, 2)
	select {
	case <-l.Done():
	default:
		t.Fatal("fully pre-completed ledger not done")
	}
	if _, ok := l.Claim("w", 1); ok {
		t.Fatal("claim granted on a done ledger")
	}
}

func TestReleaseReturnsIndicesImmediately(t *testing.T) {
	l, _ := newTestLedger(3, time.Hour)
	cl, _ := l.Claim("w", 3)
	l.CompleteIndex(cl.ID, 0)
	if err := l.Complete(cl.ID); err != nil {
		t.Fatal(err)
	}
	done, leased, avail := l.Counts()
	if done != 1 || leased != 0 || avail != 2 {
		t.Fatalf("counts after release: done=%d leased=%d avail=%d", done, leased, avail)
	}
	if err := l.Complete(cl.ID); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("second hand-back: %v, want ErrLeaseLost", err)
	}
}

// TestFailedIndexHasOneOwner: an index its claim failed belongs to the
// next claim that leases it. The failing claim may no longer publish
// it, and neither its completion nor its lease expiry may hand the
// index back or charge it — otherwise a third claim leases an index
// the second still holds.
func TestFailedIndexHasOneOwner(t *testing.T) {
	for _, end := range []string{"complete", "expire"} {
		t.Run(end, func(t *testing.T) {
			l, clk := newTestLedger(4, time.Second)
			a, _ := l.Claim("a", 4)
			if err := l.Fail(a.ID, 1, "boom"); err != nil {
				t.Fatal(err)
			}
			clk.Advance(500 * time.Millisecond)
			b, ok := l.Claim("b", 1)
			if !ok || b.Start != 1 || b.End != 2 {
				t.Fatalf("re-claim got %+v, want [1,2)", b)
			}
			if err := l.Owns(a.ID, 1); err == nil || errors.Is(err, ErrLeaseLost) {
				t.Fatalf("Owns(a, 1) = %v, want a live claim that no longer leases index 1", err)
			}
			if err := l.CompleteIndex(a.ID, 1); err == nil {
				t.Fatal("claim a completed index 1, which b leases")
			}
			if end == "complete" {
				if err := l.Complete(a.ID); err != nil {
					t.Fatal(err)
				}
			} else {
				clk.Advance(600 * time.Millisecond) // past a's deadline, not b's
			}
			c, ok := l.Claim("c", 4)
			if !ok || c.Start != 0 || c.End != 1 {
				t.Fatalf("claim c got %+v, want [0,1): index 1 is still b's", c)
			}
			if err := l.Owns(b.ID, 1); err != nil {
				t.Fatalf("b lost index 1: %v", err)
			}
			for _, ix := range l.View().Troubled {
				if ix.Index == 1 && ix.Attempts != 1 {
					t.Fatalf("index 1 charged %d attempts, want only a's reported failure", ix.Attempts)
				}
			}
		})
	}
}

// TestLeaseExpiryQuarantinesAfterBudget: a run that kills every
// claimant (they stop renewing) is charged one attempt per expiry and
// quarantined at the budget, turning the ledger fatal with a per-index
// diagnosis instead of livelocking the fleet.
func TestLeaseExpiryQuarantinesAfterBudget(t *testing.T) {
	l, clk := newTestLedger(3, time.Second)
	l.SetMaxAttempts(3)
	for i := 0; i < 3; i++ {
		cl, ok := l.Claim("crasher", 1)
		if !ok {
			t.Fatalf("claim %d refused", i)
		}
		if cl.Start != 0 {
			t.Fatalf("claim %d got [%d,%d), want the poisoned index 0", i, cl.Start, cl.End)
		}
		clk.Advance(2 * time.Second) // claimant dies; lease expires
	}
	l.Counts() // reap the third expiry
	select {
	case <-l.Fatal():
	default:
		t.Fatal("ledger not fatal after 3 expired attempts with budget 3")
	}
	err := l.FatalErr()
	for _, want := range []string{"poisoned", "run 0", "3 failed attempts", "stopped renewing"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnosis %q missing %q", err, want)
		}
	}
	if _, ok := l.Claim("w", 1); ok {
		t.Fatal("fatal ledger handed out work")
	}
}

// TestVoluntaryReleaseChargesNoAttempt: handing a range back cleanly is
// not a failure — only expiries and reported failures count toward
// quarantine.
func TestVoluntaryReleaseChargesNoAttempt(t *testing.T) {
	l, _ := newTestLedger(2, time.Minute)
	l.SetMaxAttempts(1)
	cl, _ := l.Claim("w", 2)
	if err := l.Complete(cl.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.Fatal():
		t.Fatal("voluntary release charged an attempt")
	default:
	}
	if v := l.View(); len(v.Troubled) != 0 {
		t.Fatalf("troubled after release: %+v", v.Troubled)
	}
	if _, ok := l.Claim("w2", 2); !ok {
		t.Fatal("released range not reclaimable")
	}
}

// TestViewSnapshotsClaimsAndTrouble exercises the GET claims payload:
// population counts, live claims with owners, the fenced-ID count, and
// per-index attempt diagnostics.
func TestViewSnapshotsClaimsAndTrouble(t *testing.T) {
	l, clk := newTestLedger(4, time.Second)
	cl, _ := l.Claim("w1", 2)
	if err := l.CompleteIndex(cl.ID, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // w1 dies; index 1 charged on next reap
	cl2, _ := l.Claim("w2", 1)
	v := l.View()
	if v.Runs != 4 || v.Done != 1 || v.Leased != 1 || v.Available != 2 || v.Quarantined != 0 {
		t.Fatalf("view counts %+v", v)
	}
	if len(v.Claims) != 1 || v.Claims[0].ID != cl2.ID || v.Claims[0].Worker != "w2" {
		t.Fatalf("view claims %+v", v.Claims)
	}
	if v.Fenced != 1 {
		t.Fatalf("fenced %d, want 1 (the expired claim)", v.Fenced)
	}
	if len(v.Troubled) != 1 || v.Troubled[0].Index != 1 || v.Troubled[0].Attempts != 1 {
		t.Fatalf("troubled %+v", v.Troubled)
	}
}

// TestConcurrentClaimStorm hammers the ledger from many goroutines with
// interleaved claims, completions, abandons, and clock advances; run
// under -race this is the ledger's data-race probe, and the invariant
// checked is the protocol's core one: every index is completed by
// exactly one claim's publish path.
func TestConcurrentClaimStorm(t *testing.T) {
	const n = 500
	l, clk := newTestLedger(n, 30*time.Millisecond)
	// Abandons here are chaos, not poison: disarm the quarantine budget
	// so the storm always converges to full completion.
	l.SetMaxAttempts(1 << 30)
	var completions atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := uint64(g)*0x9e3779b9 + 1
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for {
				cl, ok := l.Claim(fmt.Sprintf("w%d", g), 1+int(next()%7))
				if !ok {
					select {
					case <-l.Done():
						return
					default:
						continue
					}
				}
				if next()%5 == 0 {
					continue // abandon: lease must expire and re-issue
				}
				for i := cl.Start; i < cl.End; i++ {
					if next()%7 == 0 {
						if _, err := l.Renew(cl.ID); err != nil {
							break // lease lost mid-range
						}
					}
					if err := l.CompleteIndex(cl.ID, i); err != nil {
						break
					}
					completions.Add(1)
				}
				l.Complete(cl.ID)
			}
		}(g)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				clk.Advance(10 * time.Millisecond)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	if got := completions.Load(); got != n {
		t.Fatalf("%d successful completions, want exactly %d — an index completed twice or never", got, n)
	}
	done, _, _ := l.Counts()
	if done != n {
		t.Fatalf("done %d, want %d", done, n)
	}
}
