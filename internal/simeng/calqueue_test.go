package simeng

import (
	"math"
	"testing"
)

// popLiveNaive pops the oracle heap until it yields an item that was
// not canceled, mirroring how the simulator discards tombstones.
func popLiveNaive(q *naiveQueue, canceled map[int]bool) (naiveItem, bool) {
	for q.len() > 0 {
		it := q.pop()
		if !canceled[it.id] {
			return it, true
		}
	}
	return naiveItem{}, false
}

// TestDifferentialVsNaiveHeap drives randomized schedule/cancel/pop
// sequences through the ladder queue and the binary heap in
// naive_test.go in lockstep and asserts bit-identical pop order — the
// same ids in the same sequence, including (at, priority, seq)
// tie-breaks and pops that follow cancellations. The schedule mix (see
// runDifferential) reaches every placement path — the spill heap, rung
// buckets, bucket splits, the top — and compaction.
func TestDifferentialVsNaiveHeap(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		st := runDifferential(t, NewRNG(seed), 20000)
		if st.Compactions == 0 || st.TopAppends == 0 || st.Rebuilds <= st.Compactions {
			t.Fatalf("seed %d left a path unexercised: %+v", seed, st)
		}
	}
}

// FuzzQueueVsNaive is TestDifferentialVsNaiveHeap driven by fuzz bytes
// instead of a seeded RNG: every operation, delay and priority is read
// from the input.
func FuzzQueueVsNaive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	seeded := make([]byte, 512)
	r := NewRNG(3)
	for i := range seeded {
		seeded[i] = byte(r.Uint64())
	}
	f.Add(seeded)
	f.Fuzz(func(t *testing.T, in []byte) {
		runDifferential(t, &byteSource{b: in}, len(in))
	})
}

// opSource supplies the differential test's choices.
type opSource interface {
	Intn(n int) int
	Float64() float64
}

// byteSource reads choices from fuzz input, yielding zeros once it is
// spent.
type byteSource struct{ b []byte }

func (s *byteSource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return int(c)
}

func (s *byteSource) Intn(n int) int { return (s.next()<<8 | s.next()) % n }

func (s *byteSource) Float64() float64 { return float64(s.next()<<8|s.next()) / 65536 }

// runDifferential runs up to ops operations drawn from src against the
// simulator and the oracle heap. Each firing pops the oracle and checks
// the id inside the callback, so events that callbacks schedule (half
// of them schedule a follow-up, as the engine's task events do) are
// checked in the order the simulator really interleaves them.
//
// Delays follow the engine's measured mix: about 9% at the current
// instant (the spill heap), the rest log-uniform over 2^-7..2^9
// seconds weighted to 2^-4..2^5, plus exact repeats of an earlier
// timestamp (equal-at ties), far-future outliers (the top), and times
// within an ulp of a rung's bucket boundary.
func runDifferential(t *testing.T, src opSource, ops int) QueueStats {
	t.Helper()
	s := NewSimulator()
	oracle := &naiveQueue{}

	ev := make(map[int]*Event)     // scheduled, not canceled, not yet fired
	canceled := make(map[int]bool) // ids canceled before firing
	var liveIDs []int              // cancel-candidate pool (lazily pruned)
	nextID := 0
	var seq uint64 // mirrors the simulator's internal seq counter
	var lastAt Time
	live := 0 // expected Pending()
	fired := 0

	var schedule func()
	var record func(arg uint32)
	fire := func(id int) {
		it, ok := popLiveNaive(oracle, canceled)
		if !ok {
			t.Fatalf("simulator fired id %d, oracle is empty", id)
		}
		if it.id != id {
			t.Fatalf("pop %d: simulator fired id %d, oracle expects id %d (at=%g prio=%d seq=%d)",
				fired, id, it.id, it.at, it.prio, it.seq)
		}
		if s.Now() != it.at {
			t.Fatalf("pop %d: clock %g, oracle event at %g", fired, s.Now(), it.at)
		}
		fired++
		delete(ev, id)
		live--
		if src.Intn(2) == 1 {
			schedule()
		}
	}
	record = func(arg uint32) { fire(int(arg)) }

	schedule = func() {
		now := s.Now()
		var at Time
		switch roll := src.Intn(100); {
		case roll < 9:
			at = now
		case roll < 14 && lastAt >= now:
			at = lastAt
		case roll < 17:
			at = now + 1e6 + src.Float64()*1e7
		case roll < 22 && len(s.rungs) > 0:
			// Within an ulp of a bucket boundary, where rung arithmetic
			// rounds: the clamp and the parent-imposed limits.
			g := &s.rungs[src.Intn(len(s.rungs))]
			at = g.boundary(g.next + src.Intn(len(g.heads)-g.next+1))
			switch src.Intn(3) {
			case 0:
				at = math.Nextafter(at, math.Inf(-1))
			case 1:
				at = math.Nextafter(at, math.Inf(1))
			}
			at = max(at, now)
		case roll < 27:
			at = now + math.Exp2(-7+16*src.Float64())
		default:
			at = now + math.Exp2(-4+9*src.Float64())
		}
		prio := src.Intn(5) - 2
		if src.Intn(10) == 0 {
			prio = 10 // the engine's dispatch passes
		}
		id := nextID
		nextID++
		var e *Event
		if src.Intn(4) == 0 {
			// Exercise the closure path too.
			e = s.SchedulePriority(at, prio, func() { fire(id) })
		} else {
			e = s.ScheduleIndexed(at, prio, record, uint32(id))
		}
		oracle.push(naiveItem{at: at, seq: seq, id: id, prio: int32(prio)})
		seq++
		lastAt = at
		ev[id] = e
		liveIDs = append(liveIDs, id)
		live++
	}

	cancel := func() {
		// Pick a random still-live id; prune fired/canceled ids as we
		// stumble on them so the pool stays honest.
		for len(liveIDs) > 0 {
			i := src.Intn(len(liveIDs))
			id := liveIDs[i]
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
			e, ok := ev[id]
			if !ok {
				continue
			}
			e.Cancel()
			canceled[id] = true
			delete(ev, id)
			live--
			return
		}
	}

	for i := 0; i < ops; i++ {
		switch roll := src.Intn(100); {
		case roll < 55:
			schedule()
		case roll < 75:
			cancel()
		default:
			// Follow-ups scheduled by the callbacks keep the queue busy,
			// so cap each pop burst.
			s.RunLimit(uint64(1 + src.Intn(4)))
		}
		if got := s.Pending(); got != live {
			t.Fatalf("op %d: Pending() = %d, want %d live events", i, got, live)
		}
	}

	// Cancel until the compactor runs, then schedule into the compacted
	// queue before anything pops.
	for c := s.Stats().Compactions; s.Stats().Compactions == c && len(liveIDs) > 0; {
		cancel()
	}
	for i := 0; i < 64; i++ {
		schedule()
	}

	// Drain both completely, without follow-ups (a spent byteSource
	// yields zeros): the tails must agree.
	src = &byteSource{}
	s.RunLimit(math.MaxUint64)
	if _, ok := popLiveNaive(oracle, canceled); ok {
		t.Fatalf("simulator drained but oracle still holds live events")
	}
	if s.Pending() != 0 {
		t.Fatalf("drained simulator reports Pending() = %d", s.Pending())
	}
	return s.Stats()
}

// TestCancelStormCompactsAndStaysFast cancels 90% of a 100k-event queue
// and asserts the live-event accounting stays exact, the compactor
// actually ran (reclaiming tombstone slots), only the surviving 10%
// fire, and the queue comes out of the storm still allocation-free on
// the warm schedule/fire loop.
func TestCancelStormCompactsAndStaysFast(t *testing.T) {
	s := NewSimulator()
	const n = 100000
	firedCount := 0
	fn := func(uint32) { firedCount++ }
	rng := NewRNG(7)
	evs := make([]*Event, n)
	for i := range evs {
		evs[i] = s.ScheduleIndexed(rng.Float64()*1e4, 0, fn, uint32(i))
	}
	for i, e := range evs {
		if i%10 != 0 {
			e.Cancel()
		}
	}
	const survivors = n / 10
	if got := s.Pending(); got != survivors {
		t.Fatalf("after canceling 90%%: Pending() = %d, want %d", got, survivors)
	}
	if s.Stats().Compactions == 0 {
		t.Fatalf("canceling 90%% of %d events triggered no compaction", n)
	}
	s.RunLimit(math.MaxUint64)
	if firedCount != survivors {
		t.Fatalf("fired %d callbacks, want %d survivors", firedCount, survivors)
	}
	if got := s.Fired(); got != survivors {
		t.Fatalf("Fired() = %d, want %d", got, survivors)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("after Run: Pending() = %d, want 0", got)
	}
	// The storm must not degrade the warm loop: rescheduling into the
	// compacted structure reuses pooled events and existing buckets.
	allocs := testing.AllocsPerRun(100, func() {
		s.ScheduleIndexed(s.Now()+1, 0, fn, 0)
		s.RunLimit(1)
	})
	if allocs != 0 {
		t.Fatalf("post-storm schedule/fire loop allocates %.1f allocs/op, want 0", allocs)
	}
}

// benchEventCore measures steady-state event throughput: fanout
// self-rescheduling events churn through the queue, one benchmark op
// per event fired. next picks each event's successor timestamp, which
// is what differentiates the workload shapes below.
func benchEventCore(b *testing.B, fanout int, next func(r *RNG, now Time) Time) {
	s := NewSimulator()
	r := NewRNG(1)
	var fn func(uint32)
	fn = func(arg uint32) {
		s.ScheduleIndexed(next(r, s.Now()), 0, fn, arg)
	}
	for i := 0; i < fanout; i++ {
		s.ScheduleIndexed(next(r, 0), 0, fn, uint32(i))
	}
	// Warm up: let the width tuner and bucket geometry settle.
	s.RunLimit(uint64(fanout) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	s.RunLimit(uint64(b.N))
}

// BenchmarkEventCoreUniform is the generic discrete-event shape:
// uniformly distributed inter-event gaps, no ties.
func BenchmarkEventCoreUniform(b *testing.B) {
	benchEventCore(b, 1024, func(r *RNG, now Time) Time {
		return now + r.Float64()
	})
}

// BenchmarkEventCoreBurst is the same-timestamp storm: all events
// collapse onto integer timestamps, so every dispatch is a 1024-event
// batch through the equal-at fast path.
func BenchmarkEventCoreBurst(b *testing.B) {
	benchEventCore(b, 1024, func(r *RNG, now Time) Time {
		return math.Floor(now) + 1
	})
}

// BenchmarkEventCoreFarFuture skews a slice of the load far beyond the
// fine window, through the top and the spreads it implies.
func BenchmarkEventCoreFarFuture(b *testing.B) {
	benchEventCore(b, 1024, func(r *RNG, now Time) Time {
		if r.Intn(16) == 0 {
			return now + 1e6 + r.Float64()*1e6
		}
		return now + r.Float64()
	})
}

// TestRungBoundaryIsExact pins the rung limit arithmetic: boundary(i)
// is the first float the bucket formula maps to bucket i or later, so
// routing by a limit and routing by the parent's bucket index agree.
func TestRungBoundaryIsExact(t *testing.T) {
	r := NewRNG(11)
	for k := 0; k < 20000; k++ {
		g := rung{start: r.Float64() * math.Exp2(float64(r.Intn(40))), width: math.Exp2(-20 + 40*r.Float64())}
		g.inv = 1 / g.width
		i := 1 + r.Intn(1<<16)
		b := g.boundary(i)
		if (b-g.start)*g.inv < float64(i) {
			t.Fatalf("start %v width %v: boundary(%d) = %v maps below bucket %d", g.start, g.width, i, b, i)
		}
		if p := math.Nextafter(b, math.Inf(-1)); (p-g.start)*g.inv >= float64(i) {
			t.Fatalf("start %v width %v: boundary(%d) = %v is not the first float of bucket %d", g.start, g.width, i, b, i)
		}
	}
}
