package simeng

import (
	"math"
	"slices"
)

// The ladder queue: the simulator's pending-event structure (Tang, Goh &
// Thng, "Ladder Queue: An O(1) priority queue structure for large-scale
// discrete event simulation", ACM TOMACS 2005), with a calendar of small
// time buckets as its finest rung.
//
// A pending event sits in exactly one of four places:
//
//   - top: an unsorted list of events at or beyond the coarsest rung's
//     limit. Appending is O(1); the list is spread into a new rung only
//     once every rung has drained, so a far-future event is touched once
//     on its way in, not at every window advance.
//   - rungs: rungs[0] is the coarsest, the last one the finest. A rung is
//     an array of time buckets over [start, limit); each bucket is an
//     unsorted list of events linked through Event.next, so an append
//     writes only the event and the bucket head. A rung spawned from a
//     parent bucket covers exactly that bucket's time range.
//   - cur: the finest rung's current bucket, copied out as inline
//     (at, priority, seq) keys, sorted, and drained front to back.
//   - spill: a small binary heap for events that land behind the finest
//     rung's drain cursor, most commonly events scheduled at exactly the
//     current instant (coalesced dispatch passes). The head of the queue
//     is min(cur head, spill head).
//
// Draining takes the finest rung's next non-empty bucket. A bucket wider
// than splitWidthFactor fine widths, or holding more than splitThreshold
// events, is split into a finer rung instead of being sorted whole, so
// near-future inserts keep landing in small buckets and no bucket sort
// grows with the queue. A drained rung is dropped; when none is left the
// top is spread into a new coarsest rung whose buckets are one fine
// window (fineNB fine buckets) wide. The fine width is retuned at every
// spread to bucketOccupancy times the mean observed inter-event gap, and
// fineNB to four buckets per pending event, so a fine window spans most
// of the delays the workload schedules and few events are moved twice.
//
// Ordering stays byte-identical to a binary heap's: the comparator is the
// strict total order (at, priority, seq), seq is unique, and every
// placement decision — rung limits, bucket indices, the drain cursor —
// is a monotone function of at, so everything in an earlier bucket,
// rung or the spill sorts before everything later. The randomized tests
// in calqueue_test.go check the pop order against the heap in
// naive_test.go.

// qent is a drain-slice or spill-heap entry: the event's sort key by
// value plus the event pointer. Sorting compares the inline key only, so
// a bucket sort touches contiguous memory instead of chasing *Event
// pointers.
type qent struct {
	at   Time
	seq  uint64
	e    *Event
	prio int32
}

// qless is the queue's total order: (at, priority, seq). seq is unique,
// so it is strict.
func qless(a, b qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// cmpQent is qless as a three-way comparison for slices.SortFunc; it
// never returns 0 because seq is unique.
func cmpQent(a, b qent) int {
	if qless(a, b) {
		return -1
	}
	return 1
}

// sortBucket sorts one bucket into (at, priority, seq) order. Buckets
// are small by construction (the width tuner targets bucketOccupancy
// events each and larger ones are split), so the common case is a
// hand-rolled insertion sort whose qless calls inline — measurably
// cheaper than the indirect comparator calls of slices.SortFunc, which
// handles the rare large bucket (e.g. a t=0 submission storm, whose
// equal timestamps cannot be split).
func sortBucket(b []qent) {
	if len(b) > 32 {
		slices.SortFunc(b, cmpQent)
		return
	}
	for i := 1; i < len(b); i++ {
		q := b[i]
		j := i - 1
		for j >= 0 && qless(q, b[j]) {
			b[j+1] = b[j]
			j--
		}
		b[j+1] = q
	}
}

const (
	// minCalBuckets is the smallest fine window, maxCalBuckets the most
	// buckets any rung gets.
	minCalBuckets = 64
	maxCalBuckets = 1 << 14
	// defaultCalWidth seeds the fine bucket width before any inter-event
	// gaps have been observed (simulated seconds).
	defaultCalWidth = 1.0
	// minCalWidth/maxCalWidth clamp the retuned width so degenerate gap
	// statistics (all-zero or enormous) cannot wedge the rungs.
	minCalWidth = 1e-9
	maxCalWidth = 1e12
	// widthTuneSamples is the number of observed gaps required before a
	// spread retunes the width.
	widthTuneSamples = 32
	// bucketOccupancy is the width tuner's target events per fine bucket:
	// runs of this size sort in a few comparisons each, while the rung
	// stays few enough buckets that its drain scan is cheap.
	bucketOccupancy = 4
	// splitThreshold is the largest bucket sorted whole; a fuller one is
	// split into a finer rung when the drain reaches it.
	splitThreshold = 48
	// splitWidthFactor: a bucket wider than this many fine widths is
	// split even when sparse, so the events scheduled into its range
	// while it drains land in fine buckets rather than the spill heap.
	splitWidthFactor = 2
	// maxRungs bounds the ladder's depth. A bucket at the deepest rung is
	// sorted whole whatever its size.
	maxRungs = 8
	// compactMinCanceled gates cancellation compaction: a sweep runs
	// only once at least this many canceled events are queued AND they
	// make up at least half the queue, so bucket scans never degrade to
	// stepping over tombstones while small cancel counts stay free.
	compactMinCanceled = 64
)

// rung is one level of the ladder: len(heads) buckets of equal width
// from start. An event at time at belongs to bucket
// int((at-start)*inv), clamped to the last bucket. Events before next
// belong to finer structures.
type rung struct {
	start, width, inv float64
	// limit is the smallest time beyond the rung: for the coarsest rung
	// the top's threshold, for a spawned rung the first time its parent
	// maps past the split bucket. It is exact, so routing by limit and
	// routing by the parent's bucket index always agree.
	limit Time
	// heads are the bucket lists, linked through Event.next. A retired
	// rung leaves every head nil, so its storage is reused as is.
	heads []*Event
	// next is the first bucket not yet drained.
	next int
	// n counts the events in the buckets.
	n int
}

// boundary returns the smallest time t with (t-start)*inv >= i: the
// first time the rung's bucket arithmetic maps to bucket i or later.
// Rounding makes start+i*width only an estimate, so it searches for the
// exact float. Times are non-negative, so their bit patterns order like
// their values: it gallops out from the estimate to bracket the answer,
// then bisects.
func (g *rung) boundary(i int) Time {
	fi := float64(i)
	in := func(b uint64) bool { return (math.Float64frombits(b)-g.start)*g.inv >= fi }
	t := g.start + fi*g.width
	if math.IsInf(t, 1) {
		return t
	}
	const inf = 0x7ff0000000000000 // math.Float64bits(+Inf)
	lo, hi := math.Float64bits(t), math.Float64bits(t)
	for d := uint64(1); in(lo); d *= 2 {
		hi = lo
		if lo < d {
			lo = 0
			break
		}
		lo -= d
	}
	for d := uint64(1); !in(hi); d *= 2 {
		lo = hi
		hi = min(hi+d, inf)
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; in(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// QueueStats reports the ladder queue's shape and work counters,
// surfaced through benchkit into the BENCH reports.
type QueueStats struct {
	// PeakPending is the largest number of live (non-canceled) events
	// queued at once.
	PeakPending int `json:"peak_pending"`
	// Buckets and Width are the fine bucket count and width (simulated
	// seconds) the tuner last chose.
	Buckets int     `json:"buckets"`
	Width   float64 `json:"width"`
	// PeakBucket is the largest bucket ever sorted whole — the queue's
	// worst-case batch, e.g. the t=0 submission storm of a batch replay.
	PeakBucket int `json:"peak_bucket"`
	// Rebuilds counts redistributions: top spreads, bucket splits and
	// compactions. Compactions counts the cancellation sweeps alone.
	Rebuilds    uint64 `json:"rebuilds"`
	Compactions uint64 `json:"compactions"`
	// The work counters: appends to a rung bucket, appends to the top,
	// entries moved by a redistribution, pushes onto the spill heap
	// (events scheduled at or behind the drain cursor, mostly at the
	// current instant), and entries sorted into the drain slice.
	BucketAppends uint64 `json:"bucket_appends"`
	TopAppends    uint64 `json:"top_appends"`
	Replaced      uint64 `json:"replaced"`
	SpillPushes   uint64 `json:"spill_pushes"`
	Sorted        uint64 `json:"sorted"`
}

// Stats returns the queue counters accumulated since construction, with
// the fine geometry filled in.
func (s *Simulator) Stats() QueueStats {
	st := s.stats
	st.Buckets = s.fineNB
	st.Width = s.width
	return st
}

// enqueue places a freshly scheduled event. When the queue just drained,
// the ladder restarts as one fine rung anchored at the new event's time,
// so steady-state schedule/fire loops stay in its first buckets.
func (s *Simulator) enqueue(e *Event) {
	if s.count == 0 {
		s.restart(e.at)
	}
	s.count++
	if live := s.count - s.canceled; live > s.stats.PeakPending {
		s.stats.PeakPending = live
	}
	s.place(e)
}

// restart empties the ladder and, for a finite anchor, opens one fine
// rung at it. Only called with no event queued, so every bucket head is
// already nil.
func (s *Simulator) restart(at Time) {
	s.canceled = 0 // self-heal any cancel-after-fire miscount
	if s.width == 0 {
		s.width = defaultCalWidth
		s.fineNB = minCalBuckets
		s.rungs = make([]rung, 0, maxRungs)
	}
	s.rungs = s.rungs[:0]
	if !math.IsInf(at, 1) {
		s.pushRung(at, s.width, s.fineNB)
	}
}

// pushRung opens a finer rung of nb buckets of the given width from
// start, ending at its own bucket boundary.
func (s *Simulator) pushRung(start Time, width float64, nb int) *rung {
	s.rungs = s.rungs[:len(s.rungs)+1]
	g := &s.rungs[len(s.rungs)-1]
	if cap(g.heads) < nb {
		g.heads = make([]*Event, nb)
	}
	g.heads = g.heads[:nb]
	g.start, g.width, g.inv = start, width, 1/width
	g.next, g.n = 0, 0
	g.limit = g.boundary(nb)
	return g
}

// place routes one event to the finest rung whose limit lies beyond it,
// the spill heap when that bucket has already been drained, or the top.
func (s *Simulator) place(e *Event) {
	at := e.at
	for r := len(s.rungs) - 1; r >= 0; r-- {
		g := &s.rungs[r]
		if at >= g.limit {
			continue
		}
		i := int((at - g.start) * g.inv)
		if i >= len(g.heads) {
			// A spawned rung ends at its parent's boundary, which its own
			// arithmetic may round past.
			i = len(g.heads) - 1
		}
		if i < g.next {
			// The drain cursor already passed (or is draining) this
			// bucket's range; only the finest rung has such a range,
			// since a coarser rung's passed range is its child's.
			s.spillPush(qent{at: at, seq: e.seq, e: e, prio: e.priority})
			return
		}
		e.next = g.heads[i]
		g.heads[i] = e
		g.n++
		s.stats.BucketAppends++
		return
	}
	if len(s.rungs) == 0 {
		// Only +Inf events are queued, all in the bottom; anything new
		// sorts among them.
		s.spillPush(qent{at: at, seq: e.seq, e: e, prio: e.priority})
		return
	}
	s.pushTop(e)
}

// pushTop appends to the unsorted top list.
func (s *Simulator) pushTop(e *Event) {
	if s.top == nil || e.at < s.topMin {
		s.topMin = e.at
	}
	if s.top == nil || e.at > s.topMax {
		s.topMax = e.at
	}
	e.next = s.top
	s.top = e
	s.topN++
	s.stats.TopAppends++
}

// advance refills the drain slice from the finest rung's next non-empty
// bucket, splitting wide or crowded buckets into finer rungs, dropping
// drained rungs and spreading the top when the rungs run out. It is
// called with the drain slice and spill heap empty and reports false
// only when the whole queue is.
func (s *Simulator) advance() bool {
	for {
		n := len(s.rungs)
		if n == 0 {
			if s.top == nil {
				return false
			}
			s.spreadTop()
			if len(s.spill) > 0 {
				return true
			}
			continue
		}
		g := &s.rungs[n-1]
		if g.n == 0 {
			s.rungs = s.rungs[:n-1]
			continue
		}
		i := g.next
		for g.heads[i] == nil {
			i++
		}
		g.next = i + 1
		list := g.heads[i]
		g.heads[i] = nil
		buf := s.cur[:0]
		for e := list; e != nil; e = e.next {
			buf = append(buf, qent{at: e.at, seq: e.seq, e: e, prio: e.priority})
		}
		g.n -= len(buf)
		s.cur, s.curIdx = buf, 0
		if n < maxRungs && (len(buf) > splitThreshold || g.width > splitWidthFactor*s.width) && s.split(g, i) {
			if len(s.spill) > 0 {
				return true
			}
			continue
		}
		sortBucket(buf)
		s.stats.Sorted += uint64(len(buf))
		if len(buf) > s.stats.PeakBucket {
			s.stats.PeakBucket = len(buf)
		}
		return true
	}
}

// split spreads bucket i of rung g, already copied into the drain slice,
// over a new finer rung covering the bucket's time range. Buckets are
// fine-width by default and narrower when crowded. It reports false,
// leaving the slice to be sorted whole, when the bucket cannot be split:
// all its events share one instant, or its range is too narrow.
func (s *Simulator) split(g *rung, i int) bool {
	buf := s.cur
	lo, hi := buf[0].at, buf[0].at
	for _, q := range buf[1:] {
		lo = math.Min(lo, q.at)
		hi = math.Max(hi, q.at)
	}
	wide := g.width > splitWidthFactor*s.width
	if lo == hi && !wide {
		return false
	}
	start := math.Min(g.start+float64(i)*g.width, lo)
	// The child ends exactly where the parent's next bucket begins (the
	// parent's own limit after its last bucket, which absorbs anything
	// its arithmetic rounds past), so routing by limit and by the
	// parent's index agree.
	limit := g.limit
	if i+1 < len(g.heads) {
		limit = g.boundary(i + 1)
	}
	span := limit - start
	nb := 2
	if wide {
		// One fine window at most; wider buckets split again in turn.
		nb = int(min(math.Ceil(span/s.tunedWidth()), float64(s.fineNB)))
	}
	if c := len(buf) / bucketOccupancy; c > nb {
		nb = min(c, maxCalBuckets)
	}
	// No narrower than minCalWidth or the float spacing at the limit:
	// finer buckets would be unreachable and only slow the drain scan.
	minWidth := max(minCalWidth, math.Nextafter(limit, math.Inf(1))-limit)
	if f := span / minWidth; f < float64(nb) {
		nb = int(f)
	}
	if nb < 2 || math.IsInf(span, 1) {
		return false
	}
	width := span / float64(nb)
	s.stats.Rebuilds++
	s.stats.Replaced += uint64(len(buf))
	s.pushRung(start, width, nb).limit = limit
	for _, q := range buf {
		s.place(q.e)
	}
	clear(buf)
	s.cur = buf[:0]
	return true
}

// spreadTop turns the top list into a new coarsest rung whose buckets
// are one fine window wide. Events beyond the rung's bucket budget stay
// in the top; when every topped event is at +Inf they go straight to
// the spill heap, which orders them by (priority, seq).
func (s *Simulator) spreadTop() {
	list, n := s.top, s.topN
	lo, hi := s.topMin, s.topMax
	s.top, s.topN = nil, 0
	s.stats.Rebuilds++
	s.stats.Replaced += uint64(n)
	if math.IsInf(lo, 1) {
		for e := list; e != nil; e = e.next {
			s.spillPush(qent{at: e.at, seq: e.seq, e: e, prio: e.priority})
		}
		return
	}
	if math.IsInf(hi, 1) {
		hi = lo
		for e := list; e != nil; e = e.next {
			if !math.IsInf(e.at, 1) {
				hi = math.Max(hi, e.at)
			}
		}
	}
	s.fineNB = minCalBuckets
	for s.fineNB < 4*n && s.fineNB < maxCalBuckets {
		s.fineNB *= 2
	}
	// At most one bucket per event, as in the original ladder: a sparse,
	// far-spread top leaves its tail in the top rather than paying for
	// empty buckets.
	width := s.tunedWidth() * float64(s.fineNB)
	nb := int(min((hi-lo)/width, float64(max(n, minCalBuckets)-1))) + 1
	s.pushRung(lo, width, nb)
	for e := list; e != nil; {
		next := e.next
		s.place(e)
		e = next
	}
}

// tunedWidth derives the fine bucket width from the mean observed
// inter-event gap, keeping the current width until enough gaps
// accumulate.
func (s *Simulator) tunedWidth() float64 {
	if s.gapCnt < widthTuneSamples {
		return s.width
	}
	w := bucketOccupancy * s.gapSum / float64(s.gapCnt)
	s.gapSum, s.gapCnt = 0, 0
	if !(w >= minCalWidth) { // also catches NaN
		w = minCalWidth
	}
	if w > maxCalWidth {
		w = maxCalWidth
	}
	s.width = w
	return w
}

// maybeCompact sweeps canceled events out of the queue once they pass
// the compaction threshold, recycling them into the event pool. Called
// from Event.Cancel.
func (s *Simulator) maybeCompact() {
	if s.canceled >= compactMinCanceled && 2*s.canceled >= s.count {
		s.stats.Compactions++
		s.compact()
	}
}

// compact drops every canceled event and re-queues the live ones
// through the top into a fresh rung.
func (s *Simulator) compact() {
	top := s.top
	s.top, s.topN = nil, 0
	s.count, s.canceled = 0, 0
	for _, q := range s.cur[s.curIdx:] {
		s.requeue(q.e)
	}
	clear(s.cur)
	s.cur, s.curIdx = s.cur[:0], 0
	for _, q := range s.spill {
		s.requeue(q.e)
	}
	clear(s.spill)
	s.spill = s.spill[:0]
	for r := range s.rungs {
		g := &s.rungs[r]
		for i := g.next; i < len(g.heads); i++ {
			for e := g.heads[i]; e != nil; {
				next := e.next
				s.requeue(e)
				e = next
			}
			g.heads[i] = nil
		}
	}
	s.rungs = s.rungs[:0]
	for e := top; e != nil; {
		next := e.next
		s.requeue(e)
		e = next
	}
	if s.top != nil {
		// Spread right away: until a rung exists, a new event would be
		// taken for one sorting among +Inf events in the spill heap.
		s.spreadTop()
	}
}

// requeue recycles a canceled event or moves a live one to the top.
func (s *Simulator) requeue(e *Event) {
	if e.canceled {
		s.recycle(e)
		return
	}
	s.count++
	s.pushTop(e)
}

// spillPush inserts into the spill min-heap (ordered by qless).
func (s *Simulator) spillPush(q qent) {
	s.stats.SpillPushes++
	s.spill = append(s.spill, q)
	i := len(s.spill) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !qless(s.spill[i], s.spill[p]) {
			break
		}
		s.spill[i], s.spill[p] = s.spill[p], s.spill[i]
		i = p
	}
}

// spillPop removes the spill heap's minimum.
func (s *Simulator) spillPop() {
	n := len(s.spill) - 1
	s.spill[0] = s.spill[n]
	s.spill[n] = qent{}
	s.spill = s.spill[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && qless(s.spill[r], s.spill[l]) {
			c = r
		}
		if !qless(s.spill[c], s.spill[i]) {
			return
		}
		s.spill[i], s.spill[c] = s.spill[c], s.spill[i]
		i = c
	}
}

// discardCanceled drops canceled events at the heads of the drain slice
// and the spill heap, recycling them into the pool.
func (s *Simulator) discardCanceled() {
	for s.curIdx < len(s.cur) && s.cur[s.curIdx].e.canceled {
		e := s.cur[s.curIdx].e
		s.cur[s.curIdx] = qent{}
		s.curIdx++
		s.count--
		s.canceled--
		s.recycle(e)
	}
	for len(s.spill) > 0 && s.spill[0].e.canceled {
		e := s.spill[0].e
		s.spillPop()
		s.count--
		s.canceled--
		s.recycle(e)
	}
}

// popNext removes and returns the earliest live event, or nil when the
// queue is empty or that event is due after deadline (it then stays
// queued). Canceled entries met at the head are discarded.
func (s *Simulator) popNext(deadline Time) *Event {
	for {
		if s.canceled > 0 {
			s.discardCanceled()
		}
		if s.curIdx < len(s.cur) {
			q := &s.cur[s.curIdx]
			if len(s.spill) == 0 || qless(*q, s.spill[0]) {
				if q.at > deadline {
					return nil
				}
				e := q.e
				*q = qent{}
				s.curIdx++
				s.count--
				return e
			}
		} else if len(s.spill) == 0 {
			if !s.advance() {
				return nil
			}
			continue
		}
		if s.spill[0].at > deadline {
			return nil
		}
		e := s.spill[0].e
		s.spillPop()
		s.count--
		return e
	}
}
