package cluster

import (
	"fmt"
	"math"
)

// minLaneCap is the initial ring capacity of a lane's first push.
const minLaneCap = 16

// lane is one FIFO lane of the pending queue: a power-of-two ring
// buffer of items plus a min-segment tree over each slot's resource
// demand. Mid-queue removal leaves a tombstone (demand +Inf, item
// zeroed so the reference is collectable) instead of splicing, and the
// tree answers "first position in FIFO order whose demand fits" in
// O(log queue). Tombstones are reclaimed when the head passes them or
// when a full ring compacts, so space stays proportional to the
// population plus the removals not yet swept.
type lane[T any] struct {
	items []T // ring storage; len(items) is the capacity (power of two)
	// tree is the 1-based min-segment tree; tree[cap+i] is slot i's
	// demand, +Inf marking an empty slot or tombstone, so the root is
	// the minimum live demand with no special cases.
	tree  []float64
	head  uint64 // logical position of the first (live) element
	tail  uint64 // logical position one past the last element
	count int    // live items, excluding tombstones
}

// phys maps a logical position to its ring slot.
func (l *lane[T]) phys(pos uint64) int { return int(pos) & (len(l.items) - 1) }

func (l *lane[T]) init(capacity int) {
	l.items = make([]T, capacity)
	l.tree = make([]float64, 2*capacity)
	for i := range l.tree {
		l.tree[i] = math.Inf(1)
	}
}

// set writes slot i's demand leaf and replays the min up to the root.
func (l *lane[T]) set(i int, d float64) {
	i += len(l.items)
	l.tree[i] = d
	for i >>= 1; i >= 1; i >>= 1 {
		l.tree[i] = math.Min(l.tree[2*i], l.tree[2*i+1])
	}
}

func (l *lane[T]) push(v T, demand float64) {
	if math.IsNaN(demand) || math.IsInf(demand, 0) {
		panic(fmt.Sprintf("cluster: queue demand must be finite, got %v", demand))
	}
	if l.items == nil {
		l.init(minLaneCap)
	}
	if l.tail-l.head == uint64(len(l.items)) {
		l.rebuild()
	}
	i := l.phys(l.tail)
	l.items[i] = v
	l.set(i, demand)
	l.tail++
	l.count++
}

// rebuild drops tombstones from a full ring. Capacity doubles only
// when the lane is genuinely more than half full, so both growth and
// tombstone sweeping are amortized O(1) per push; otherwise the live
// items slide toward the head in place and nothing is allocated.
func (l *lane[T]) rebuild() {
	capacity := len(l.items)
	if l.count > capacity/2 {
		oldItems, oldTree := l.items, l.tree
		l.init(2 * capacity)
		n := 0
		for pos := l.head; pos != l.tail; pos++ {
			i := int(pos) & (capacity - 1)
			if d := oldTree[capacity+i]; !math.IsInf(d, 1) {
				l.items[n] = oldItems[i]
				l.tree[2*capacity+n] = d
				n++
			}
		}
		l.head, l.tail = 0, uint64(n)
	} else {
		// The write position never passes the read position, so every
		// live item moves before its slot is overwritten.
		var zero T
		w := l.head
		for pos := l.head; pos != l.tail; pos++ {
			i := l.phys(pos)
			if d := l.tree[capacity+i]; !math.IsInf(d, 1) {
				if j := l.phys(w); j != i {
					l.items[j], l.tree[capacity+j] = l.items[i], d
					l.items[i], l.tree[capacity+i] = zero, math.Inf(1)
				}
				w++
			}
		}
		l.tail = w
	}
	for i := len(l.items) - 1; i >= 1; i-- {
		l.tree[i] = math.Min(l.tree[2*i], l.tree[2*i+1])
	}
}

// min returns the smallest live demand, +Inf when the lane is empty.
func (l *lane[T]) min() float64 {
	if l.count == 0 {
		return math.Inf(1)
	}
	return l.tree[1]
}

// remove vacates the slot at logical position pos, returning its item.
// The slot is zeroed so the backing array drops the reference, and the
// head is advanced past any tombstones it now points at.
func (l *lane[T]) remove(pos uint64) T {
	i := l.phys(pos)
	v := l.items[i]
	var zero T
	l.items[i] = zero
	l.set(i, math.Inf(1))
	l.count--
	if pos == l.head {
		for l.head != l.tail && math.IsInf(l.tree[len(l.items)+l.phys(l.head)], 1) {
			l.head++
		}
	}
	return v
}

// findFirst returns the first logical position at or after `from`
// whose demand is at most x. The logical window [from, tail) covers at
// most two physical intervals of the ring, each answered by one
// leftmost-leaf descent of the segment tree.
func (l *lane[T]) findFirst(from uint64, x float64) (uint64, bool) {
	if from < l.head {
		from = l.head
	}
	if l.count == 0 || from >= l.tail || math.IsNaN(x) {
		return 0, false
	}
	capacity := uint64(len(l.items))
	f := l.phys(from)
	t := l.phys(l.tail)
	if f < t {
		if i := l.seek(1, 0, int(capacity), f, t, x); i >= 0 {
			return from + uint64(i-f), true
		}
		return 0, false
	}
	// Wrapped window: [f, cap) first, then [0, t).
	if i := l.seek(1, 0, int(capacity), f, int(capacity), x); i >= 0 {
		return from + uint64(i-f), true
	}
	if i := l.seek(1, 0, int(capacity), 0, t, x); i >= 0 {
		return from + (capacity - uint64(f)) + uint64(i), true
	}
	return 0, false
}

// seek descends the tree for the leftmost leaf in [lo, hi) with value
// <= x, pruning any subtree whose minimum already exceeds x. An
// all-tombstone subtree (minimum +Inf) is pruned even when x itself is
// +Inf, so an unbounded query still lands only on live slots. -1 when
// none qualifies.
func (l *lane[T]) seek(node, nodeLo, nodeHi, lo, hi int, x float64) int {
	if lo >= nodeHi || hi <= nodeLo || l.tree[node] > x || math.IsInf(l.tree[node], 1) {
		return -1
	}
	if nodeHi-nodeLo == 1 {
		return nodeLo
	}
	mid := (nodeLo + nodeHi) / 2
	if r := l.seek(2*node, nodeLo, mid, lo, hi, x); r >= 0 {
		return r
	}
	return l.seek(2*node+1, mid, nodeHi, lo, hi, x)
}

// popFitting removes and returns the first item in FIFO order whose
// demand is at most maxFree and that passes fits (nil means any). The
// demand filter is a necessary condition for placement — no host can
// offer more than the cluster-wide maximum — so the predicate runs
// only on true candidates; the rare candidate it rejects (only the
// excluded host fits) is skipped exactly like the linear scan did.
func (l *lane[T]) popFitting(maxFree float64, fits func(T) bool) (T, bool) {
	var zero T
	for pos := l.head; ; pos++ {
		p, ok := l.findFirst(pos, maxFree)
		if !ok {
			return zero, false
		}
		pos = p
		if v := l.items[l.phys(p)]; fits == nil || fits(v) {
			return l.remove(p), true
		}
	}
}

// PendingQueue is the FIFO queue of tasks waiting for resources, with
// a restart lane: restarting tasks (already partially executed) are
// placed ahead of fresh tasks, matching the paper's immediate-restart
// design. Each entry carries its memory demand, which the queue
// indexes (see lane) so memory-aware dispatch pops the first fitting
// task in O(log queue) instead of scanning, and the smallest queued
// demand is readable in O(1) for the engine's saturation early-exit.
type PendingQueue[T any] struct {
	restarts lane[T]
	fresh    lane[T]
}

// PushFresh enqueues a newly arrived task with its memory demand (MB).
func (q *PendingQueue[T]) PushFresh(v T, demand float64) { q.fresh.push(v, demand) }

// PushRestart enqueues a task awaiting restart with its memory demand
// (MB); it takes priority over fresh tasks.
func (q *PendingQueue[T]) PushRestart(v T, demand float64) { q.restarts.push(v, demand) }

// PopFitting dequeues the first task (restarts first) whose recorded
// demand is at most maxFree and that passes fits (nil accepts all
// demand-fitting tasks), preserving the order of the rest — the
// dispatcher's first-fit pop. fits refines the demand filter for tasks
// with extra placement constraints (e.g. a host to avoid); it must
// accept only tasks the caller can place.
// A maxFree of +Inf means "no demand limit"; NaN matches nothing.
func (q *PendingQueue[T]) PopFitting(maxFree float64, fits func(T) bool) (T, bool) {
	if v, ok := q.restarts.popFitting(maxFree, fits); ok {
		return v, true
	}
	return q.fresh.popFitting(maxFree, fits)
}

// MinDemand returns the smallest queued demand across both lanes, +Inf
// when the queue is empty — an O(1) read for saturation early-exits.
func (q *PendingQueue[T]) MinDemand() float64 {
	return math.Min(q.restarts.min(), q.fresh.min())
}
