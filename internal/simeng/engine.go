package simeng

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the simulation.
type Time = float64

// Event is a scheduled callback in simulated time.
//
// Events are pooled: once an event has fired (or been discarded after
// cancellation) the simulator recycles it for a future Schedule call.
// Holding an *Event across its firing is therefore only safe when the
// holder can tell the event already fired (as the engine's in-flight
// write records do); Cancel must only be called on events that have not
// fired yet.
//
// The struct is packed for the hot path: the simulator allocates events
// in contiguous blocks (see Simulator.alloc), and a callback is either
// a plain closure (Schedule) or an indexed callback — a shared function
// plus a uint32 argument (ScheduleIndexed) — so steady-state consumers
// like the engine never allocate a closure per scheduled entity.
type Event struct {
	// at is the simulated time at which the event fires.
	at Time
	// seq breaks ties among events with equal (at, priority): events
	// fire in scheduling order (FIFO), which keeps runs deterministic.
	seq uint64
	// fn is the plain callback (Schedule); nil when fnIdx is used.
	fn func()
	// fnIdx is the indexed callback (ScheduleIndexed): a long-lived
	// function shared by many events, applied to arg when the event
	// fires. It lets per-entity schedulers avoid per-event closures.
	fnIdx func(uint32)
	// owner is the simulator whose queue holds the event; Cancel uses it
	// to keep the live-event count and compaction threshold current.
	owner *Simulator
	// next links the event into its rung bucket or the top list while
	// it waits there (see calqueue.go).
	next *Event
	arg  uint32
	// priority breaks ties between events scheduled at the same time;
	// lower values fire first.
	priority int32
	canceled bool
}

// Cancel prevents a scheduled event from firing. Canceling an event that
// was already canceled is a no-op; canceling an event that already fired
// is undefined (the simulator may have recycled it for another
// callback).
func (e *Event) Cancel() {
	if e == nil || e.canceled {
		return
	}
	e.canceled = true
	if s := e.owner; s != nil {
		s.canceled++
		s.maybeCompact()
	}
}

// eventBlock is the number of Events carved per slab when the free list
// runs dry: block allocation keeps pooled events contiguous in memory,
// so the queue's event dereferences land in far fewer cache lines than
// one-at-a-time allocation would.
const eventBlock = 64

// Simulator is a discrete-event simulation kernel. It is single-threaded:
// event callbacks run sequentially in timestamp order on the goroutine
// that calls RunLimit.
//
// Pending events live in a ladder queue (see calqueue.go): rungs of
// time buckets sorted on demand, an unsorted top list for events beyond
// the rungs, and a spill heap for events landing behind the drain
// cursor. Events fire in strict (at, priority, seq) order — identical
// to a binary heap (naive_test.go keeps one as the differential-test
// oracle).
type Simulator struct {
	now   Time
	seq   uint64
	fired uint64
	// free is the recycled-event pool: events that fired or were
	// discarded as canceled return here and the next Schedule reuses
	// them, keeping the steady-state event loop allocation-free.
	free []*Event

	// Ladder queue (calqueue.go). count includes canceled events not
	// yet discarded; canceled tracks how many of those there are.
	rungs          []rung
	top            *Event
	topN           int
	topMin, topMax Time
	// cur is the sorted drain slice of the finest rung's current bucket;
	// curIdx is the drain position within it.
	cur      []qent
	curIdx   int
	spill    []qent
	count    int
	canceled int
	// width is the tuned fine bucket width and fineNB the fine bucket
	// count the last top spread chose.
	width  float64
	fineNB int
	// gapSum/gapCnt sample inter-event gaps to retune the bucket width.
	gapSum float64
	gapCnt int
	stats  QueueStats
}

// NewSimulator returns a simulator with the clock at zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of live events: scheduled, not yet fired,
// and not canceled. Canceled events awaiting discard or compaction are
// excluded — a queue holding only tombstones reports zero, matching
// what Run would do with it (fire nothing).
func (s *Simulator) Pending() int {
	if n := s.count - s.canceled; n > 0 {
		return n
	}
	return 0
}

// alloc returns a pooled event, slab-allocating a fresh block when the
// pool is empty.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	blk := make([]Event, eventBlock)
	for i := range blk {
		blk[i].owner = s
	}
	for i := 1; i < eventBlock; i++ {
		s.free = append(s.free, &blk[i])
	}
	return &blk[0]
}

// Schedule registers fn to run at absolute simulated time at.
// Scheduling in the past (before Now) panics: it indicates a model bug.
func (s *Simulator) Schedule(at Time, fn func()) *Event {
	return s.SchedulePriority(at, 0, fn)
}

// SchedulePriority is Schedule with an explicit tie-breaking priority.
func (s *Simulator) SchedulePriority(at Time, priority int, fn func()) *Event {
	e := s.schedule(at, priority)
	e.fn = fn
	return e
}

// ScheduleIndexed registers fn(arg) to run at absolute simulated time
// at. The function is meant to be long-lived and shared across many
// events (e.g. one per-engine dispatcher applied to dense entity
// handles), so schedulers of per-entity work need no per-event closure.
func (s *Simulator) ScheduleIndexed(at Time, priority int, fn func(uint32), arg uint32) *Event {
	e := s.schedule(at, priority)
	e.fnIdx = fn
	e.arg = arg
	return e
}

func (s *Simulator) schedule(at Time, priority int) *Event {
	if math.IsNaN(at) {
		panic("simeng: schedule at NaN time")
	}
	if at < s.now {
		panic(fmt.Sprintf("simeng: schedule at %.9g before now %.9g", at, s.now))
	}
	e := s.alloc()
	e.at, e.priority, e.canceled = at, int32(priority), false
	e.seq = s.seq
	s.seq++
	s.enqueue(e)
	return e
}

// recycle returns a popped event to the pool for reuse by Schedule.
func (s *Simulator) recycle(e *Event) {
	e.fn = nil
	e.fnIdx = nil
	s.free = append(s.free, e)
}

// RunLimit is the event loop: it fires at most limit live events and
// returns how many fired. Callers loop until it returns 0, interleaving
// their own work — cancellation checks, progress reporting — between
// chunks.
//
// Events at the same timestamp are dispatched as a batch: the clock
// moves, and the inter-event gap is sampled for bucket-width tuning,
// only when the timestamp changes. The rest of an equal-`at` run sits at
// the head of the drain slice or the spill heap, so each of its events
// costs popNext one comparison and never reaches the rung machinery.
// Callbacks may keep extending the batch: a same-time event scheduled
// mid-batch lands in the spill heap and is picked up in (priority, seq)
// position, exactly where a heap would have fired it. The fired-count
// limit applies per event, so RunLimit can cut a batch mid-run.
func (s *Simulator) RunLimit(limit uint64) uint64 {
	var done uint64
	for done < limit {
		e := s.popNext()
		if e == nil {
			break
		}
		if at := e.at; at > s.now {
			s.gapSum += at - s.now
			s.gapCnt++
			s.now = at
		}
		s.fired++
		done++
		fn, fnIdx, arg := e.fn, e.fnIdx, e.arg
		// Recycle before the callback: fn may schedule follow-up work
		// into the freed slot, so steady-state loops reuse one Event.
		// Holders of e must refresh their pointer before the next event
		// fires (see Event).
		s.recycle(e)
		if fnIdx != nil {
			fnIdx(arg)
		} else {
			fn()
		}
	}
	return done
}
