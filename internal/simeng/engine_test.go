package simeng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimulatorStartsAtZero(t *testing.T) {
	s := NewSimulator()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := NewSimulator()
	var got []int
	s.Schedule(3, func() { got = append(got, 3) })
	s.Schedule(1, func() { got = append(got, 1) })
	s.Schedule(2, func() { got = append(got, 2) })
	s.RunLimit(math.MaxUint64)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("final Now() = %v, want 3", s.Now())
	}
}

func TestScheduleFIFOTieBreak(t *testing.T) {
	s := NewSimulator()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.RunLimit(math.MaxUint64)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestSchedulePriorityTieBreak(t *testing.T) {
	s := NewSimulator()
	var got []string
	s.SchedulePriority(1, 5, func() { got = append(got, "low") })
	s.SchedulePriority(1, -5, func() { got = append(got, "high") })
	s.RunLimit(math.MaxUint64)
	if got[0] != "high" || got[1] != "low" {
		t.Fatalf("priority order wrong: %v", got)
	}
}

// TestAfterRelativeDelay schedules relative to the clock from inside a
// callback, as every model does.
func TestAfterRelativeDelay(t *testing.T) {
	s := NewSimulator()
	var fireTimes []Time
	s.Schedule(10, func() {
		s.Schedule(s.Now()+5, func() { fireTimes = append(fireTimes, s.Now()) })
	})
	s.RunLimit(math.MaxUint64)
	if len(fireTimes) != 1 || fireTimes[0] != 15 {
		t.Fatalf("relative event fired at %v, want [15]", fireTimes)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(10, func() {})
	s.RunLimit(math.MaxUint64)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.Schedule(5, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	s := NewSimulator()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	s.Schedule(math.NaN(), func() {})
}

func TestCancel(t *testing.T) {
	s := NewSimulator()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	e.Cancel()
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after Cancel, want 0", s.Pending())
	}
	s.RunLimit(math.MaxUint64)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelNilIsNoOp(t *testing.T) {
	var e *Event
	e.Cancel() // must not panic
}

func TestRunLimit(t *testing.T) {
	s := NewSimulator()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		s.Schedule(s.Now()+1, rearm)
	}
	s.Schedule(1, rearm)
	done := s.RunLimit(50)
	if done != 50 || count != 50 {
		t.Fatalf("RunLimit executed %d (count %d), want 50", done, count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewSimulator()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			s.Schedule(s.Now()+0.5, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.RunLimit(math.MaxUint64)
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if math.Abs(s.Now()-49.5) > 1e-9 {
		t.Fatalf("Now() = %v, want 49.5", s.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// The child stream must not be a shifted copy of the parent stream.
	parentDraws := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		parentDraws[parent.Uint64()] = true
	}
	collisions := 0
	for i := 0; i < 200; i++ {
		if parentDraws[child.Uint64()] {
			collisions++
		}
	}
	if collisions > 2 {
		t.Fatalf("child stream shares %d/200 values with parent", collisions)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		if r.Float64Open() == 0 {
			t.Fatal("Float64Open returned 0")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) bucket %d has %d/70000 draws, severe bias", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

// Property: for any batch of events with non-negative offsets, Run fires
// them in non-decreasing timestamp order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewSimulator()
		var fired []Time
		for _, o := range offsets {
			at := Time(o)
			s.Schedule(at, func() { fired = append(fired, at) })
		}
		s.RunLimit(math.MaxUint64)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intn(n) is always within bounds for any positive n.
func TestPropertyIntnInBounds(t *testing.T) {
	r := NewRNG(23)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSimulator()
		for j := 0; j < 1000; j++ {
			s.Schedule(Time(j%97), func() {})
		}
		s.RunLimit(math.MaxUint64)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
