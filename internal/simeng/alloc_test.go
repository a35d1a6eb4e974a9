package simeng

import (
	"math"
	"testing"
)

// TestStepIsAllocFreeWhenWarm pins the event pool's core property: a
// steady-state schedule/fire loop reuses recycled events and allocates
// nothing once warm.
func TestStepIsAllocFreeWhenWarm(t *testing.T) {
	s := NewSimulator()
	var tick func()
	tick = func() { s.Schedule(s.Now()+1, tick) }
	s.Schedule(0, tick)
	s.RunLimit(64) // warm the pool

	allocs := testing.AllocsPerRun(50, func() {
		s.RunLimit(128)
	})
	if allocs > 0 {
		t.Errorf("warm schedule/fire loop allocates %.1f per 128 events, want 0", allocs)
	}
}

// TestCanceledEventsAreRecycled verifies discarding canceled events
// feeds the pool too (no allocation to re-schedule afterwards).
func TestCanceledEventsAreRecycled(t *testing.T) {
	s := NewSimulator()
	for i := 0; i < 32; i++ {
		s.Schedule(float64(i), func() {}).Cancel()
	}
	s.RunLimit(math.MaxUint64) // discards all canceled events into the pool
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 32; i++ {
			s.Schedule(s.Now()+float64(i), func() {})
		}
		s.RunLimit(math.MaxUint64)
	})
	if allocs > 0 {
		t.Errorf("re-scheduling over a warm pool allocates %.1f, want 0", allocs)
	}
}
