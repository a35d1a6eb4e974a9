package simeng

// The binary min-heap event queue the simulator started with, retained
// as the differential-test oracle: the randomized and fuzzed tests in
// calqueue_test.go drive schedule/cancel/pop sequences through it and
// the ladder queue (calqueue.go) and assert bit-identical pop order,
// including (at, priority, seq) tie-breaks and post-cancel behavior.
// Same pattern as internal/cluster's naive dispatch-index references.
// It is deliberately simple — O(log n) sifts, no pooling, no batching —
// so a disagreement always indicts the ladder queue.

// naiveItem is one queued key in the oracle; id identifies the
// scheduled event to the test harness.
type naiveItem struct {
	at   Time
	seq  uint64
	id   int
	prio int32
}

// naiveLess is the engine's total order (at, priority, seq).
func naiveLess(a, b naiveItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// naiveQueue is a binary min-heap over naiveItem.
type naiveQueue struct {
	h []naiveItem
}

func (q *naiveQueue) len() int { return len(q.h) }

func (q *naiveQueue) push(it naiveItem) {
	q.h = append(q.h, it)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !naiveLess(q.h[i], q.h[p]) {
			return
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *naiveQueue) pop() naiveItem {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return top
		}
		c := l
		if r := l + 1; r < n && naiveLess(q.h[r], q.h[l]) {
			c = r
		}
		if !naiveLess(q.h[c], q.h[i]) {
			return top
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
}
