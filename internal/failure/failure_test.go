package failure

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/simeng"
)

// Fixed is a Process with a predetermined list of failure times, for
// deterministic tests.
type Fixed struct {
	Times []float64 // must be sorted ascending
}

// NextAfter implements Process.
func (f Fixed) NextAfter(t float64) float64 {
	lo, hi := 0, len(f.Times)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.Times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.Times) {
		return f.Times[lo]
	}
	return math.Inf(1)
}

func TestRenewalMonotoneTimes(t *testing.T) {
	p := NewRenewal(dist.NewExponential(0.1), simeng.NewRNG(1))
	prev := 0.0
	for i := 0; i < 1000; i++ {
		next := p.NextAfter(prev)
		if next <= prev {
			t.Fatalf("failure time %v not after %v", next, prev)
		}
		prev = next
	}
}

func TestRenewalDeterministicAcrossRuns(t *testing.T) {
	a := NewRenewal(dist.NewPareto(30, 1.1), simeng.NewRNG(42))
	b := NewRenewal(dist.NewPareto(30, 1.1), simeng.NewRNG(42))
	ta, tb := 0.0, 0.0
	for i := 0; i < 500; i++ {
		ta = a.NextAfter(ta)
		tb = b.NextAfter(tb)
		if ta != tb {
			t.Fatalf("same-seed processes diverged at failure %d: %v vs %v", i, ta, tb)
		}
	}
}

// TestRenewalResetMatchesFresh: a process Reset after use draws
// exactly what a fresh process draws, for forward and backward queries.
func TestRenewalResetMatchesFresh(t *testing.T) {
	reused := NewRenewal(dist.NewPareto(30, 1.1), simeng.NewRNG(7))
	for x := 0.0; x < 5000; x = reused.NextAfter(x) {
	}
	reused.Reset(dist.NewPareto(30, 1.1), simeng.NewRNG(42))
	fresh := NewRenewal(dist.NewPareto(30, 1.1), simeng.NewRNG(42))
	a, b := 0.0, 0.0
	for i := 0; i < 500; i++ {
		a, b = reused.NextAfter(a), fresh.NextAfter(b)
		if a != b {
			t.Fatalf("reset process diverged at failure %d: %v vs %v", i, a, b)
		}
	}
	for _, q := range []float64{-1, 0, a / 3, a / 2} {
		if x, y := reused.NextAfter(q), fresh.NextAfter(q); x != y {
			t.Fatalf("NextAfter(%v) = %v after Reset, %v fresh", q, x, y)
		}
	}
}

// recordingRenewal is the reference renewal process: it records every
// failure time it draws and answers each query by searching them.
type recordingRenewal struct {
	d     dist.Distribution
	rng   *simeng.RNG
	times []float64
}

func (r *recordingRenewal) NextAfter(t float64) float64 {
	cursor := 0.0
	if n := len(r.times); n > 0 {
		cursor = r.times[n-1]
	}
	for cursor <= t {
		iv := r.d.Sample(r.rng)
		if iv < 1e-9 {
			iv = 1e-9
		}
		cursor += iv
		r.times = append(r.times, cursor)
	}
	for _, x := range r.times {
		if x > t {
			return x
		}
	}
	return cursor
}

// TestRenewalMatchesRecordingReference: the renewal process answers
// every query, in any order, exactly as a process that records every
// failure time — including queries behind its last two failures, which
// it answers by replaying its draws.
func TestRenewalMatchesRecordingReference(t *testing.T) {
	rng := simeng.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		d := dist.NewPareto(5+rng.Float64()*50, 1.05+rng.Float64())
		seed := rng.Uint64()
		got := NewRenewal(d, simeng.NewRNG(seed))
		want := &recordingRenewal{d: d, rng: simeng.NewRNG(seed)}
		q := 0.0
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 6: // forward, the engine's pattern
				q += rng.Float64() * 200
			case k < 8: // repeat
			case k < 9: // backward
				q *= rng.Float64()
			default: // before the first failure, or negative
				q = rng.Float64()*2 - 1
			}
			if g, w := got.NextAfter(q), want.NextAfter(q); g != w {
				t.Fatalf("trial %d op %d: NextAfter(%v) = %v, reference %v", trial, op, q, g, w)
			}
		}
	}
}

func TestRenewalNextAfterIsIdempotentForSameT(t *testing.T) {
	p := NewRenewal(dist.NewExponential(0.5), simeng.NewRNG(3))
	first := p.NextAfter(10)
	second := p.NextAfter(10)
	if first != second {
		t.Fatalf("NextAfter(10) changed between calls: %v vs %v", first, second)
	}
	// Querying an earlier time must return an earlier-or-equal failure.
	earlier := p.NextAfter(0)
	if earlier > first {
		t.Fatalf("NextAfter(0) = %v after NextAfter(10) = %v", earlier, first)
	}
}

func TestRenewalRateMatchesDistribution(t *testing.T) {
	// Exponential with rate 0.01 -> about 100 failures in 10000 s.
	p := NewRenewal(dist.NewExponential(0.01), simeng.NewRNG(4))
	n := CountIn(p, 0, 10000)
	if n < 60 || n > 140 {
		t.Fatalf("exponential(0.01) renewal produced %d failures in 10000 s, want ~100", n)
	}
}

func TestSwitchingChangesRate(t *testing.T) {
	// Low rate before t=1000, high rate after.
	rng := simeng.NewRNG(5)
	s := NewSwitching(
		NewRenewal(dist.NewExponential(0.001), rng.Split()),
		NewRenewal(dist.NewExponential(0.1), rng.Split()),
		1000,
	)
	before := CountIn(s, 0, 1000)
	after := CountIn(s, 1000, 2000)
	if after < before*5+5 {
		t.Fatalf("switching process: before=%d after=%d, expected sharp increase", before, after)
	}
}

func TestSwitchingBoundary(t *testing.T) {
	// A fixed pre-switch process with a failure exactly at the switch
	// point: the failure must be reported, and post-switch queries use
	// the second process.
	s := NewSwitching(Fixed{Times: []float64{500, 999}}, Fixed{Times: []float64{1, 2}}, 1000)
	if got := s.NextAfter(0); got != 500 {
		t.Fatalf("first failure = %v, want 500", got)
	}
	if got := s.NextAfter(500); got != 999 {
		t.Fatalf("second failure = %v, want 999", got)
	}
	// After 999 the Before process is exhausted below SwitchAt, so the
	// next failures come from After, shifted by 1000.
	if got := s.NextAfter(999); got != 1001 {
		t.Fatalf("post-switch failure = %v, want 1001", got)
	}
	if got := s.NextAfter(1001); got != 1002 {
		t.Fatalf("post-switch failure = %v, want 1002", got)
	}
}

func TestFixedProcess(t *testing.T) {
	p := Fixed{Times: []float64{10, 20, 30}}
	if p.NextAfter(0) != 10 || p.NextAfter(10) != 20 || p.NextAfter(25) != 30 {
		t.Fatal("Fixed returned wrong times")
	}
	if !math.IsInf(p.NextAfter(30), 1) {
		t.Fatal("exhausted Fixed did not return +Inf")
	}
}

func TestCountIn(t *testing.T) {
	p := Fixed{Times: []float64{10, 20, 30, 40}}
	if n := CountIn(p, 0, 25); n != 2 {
		t.Fatalf("CountIn(0,25] = %d, want 2", n)
	}
	if n := CountIn(p, 10, 40); n != 3 {
		t.Fatalf("CountIn(10,40] = %d, want 3 (10 itself excluded)", n)
	}
	if n := CountIn(p, 100, 200); n != 0 {
		t.Fatalf("CountIn empty window = %d", n)
	}
}

func TestIntervalsIn(t *testing.T) {
	p := Fixed{Times: []float64{10, 25, 60}}
	got := IntervalsIn(p, 100)
	want := []float64{10, 15, 35}
	if len(got) != len(want) {
		t.Fatalf("IntervalsIn = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IntervalsIn = %v, want %v", got, want)
		}
	}
	// Horizon before the last failure censors it.
	if got := IntervalsIn(p, 59); len(got) != 2 {
		t.Fatalf("censored IntervalsIn = %v, want 2 intervals", got)
	}
}

// TestRenewalIntervalsAccessor reads a renewal process's intervals the
// way the history estimator does, through IntervalsIn: each is positive
// and is the gap between the failure times NextAfter reports.
func TestRenewalIntervalsAccessor(t *testing.T) {
	p := NewRenewal(dist.NewExponential(1), simeng.NewRNG(6))
	ivs := IntervalsIn(p, 5)
	if len(ivs) == 0 {
		t.Fatal("no intervals recorded")
	}
	var prev float64
	for i, iv := range ivs {
		next := p.NextAfter(prev)
		if iv <= 0 || iv != next-prev {
			t.Fatalf("interval %d = %v, want %v (failures at %v and %v)", i, iv, next-prev, prev, next)
		}
		prev = next
	}
	if next := p.NextAfter(prev); prev > 5 || next <= 5 {
		t.Fatalf("last interval ends at %v, next failure %v, want the cut at 5 s", prev, next)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewRenewal(nil, simeng.NewRNG(1)) },
		func() { NewRenewal(dist.NewExponential(1), nil) },
		func() { NewSwitching(nil, Fixed{}, 5) },
		func() { NewSwitching(Fixed{}, Fixed{}, -1) },
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

// Property: NextAfter always returns a value strictly greater than its
// argument for renewal processes.
func TestPropertyNextAfterStrictlyGreater(t *testing.T) {
	p := NewRenewal(dist.NewPareto(10, 1.2), simeng.NewRNG(7))
	f := func(raw uint32) bool {
		q := float64(raw % 100000)
		next := p.NextAfter(q)
		return next > q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRenewalNextAfter(b *testing.B) {
	p := NewRenewal(dist.NewExponential(0.01), simeng.NewRNG(1))
	t := 0.0
	for i := 0; i < b.N; i++ {
		t = p.NextAfter(t)
	}
}
