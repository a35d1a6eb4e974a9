package cluster

import "math"

// This file retains the pre-index reference implementations of the
// placement policy and the pending queue: every query is a linear
// scan over a plain slice, which is slow but obviously correct. They
// exist as the oracles for the differential tests — the indexed
// Cluster and PendingQueue must make byte-identical decisions on any
// operation sequence — and as executable documentation of the
// semantics the index structures encode.

// NaiveCluster mirrors Cluster's placement decisions with O(hosts)
// scans. It tracks host ids rather than issuing Placements, keeping
// the oracle free of the pooling machinery under test elsewhere.
type NaiveCluster struct {
	hosts []*Host
}

// NewNaive builds the reference cluster: `hosts` hosts of memMB each,
// all alive.
func NewNaive(hosts int, memMB float64) *NaiveCluster {
	c := &NaiveCluster{hosts: make([]*Host, hosts)}
	for i := range c.hosts {
		c.hosts[i] = &Host{ID: i, MemMB: memMB, alive: true}
	}
	return c
}

// AcquireExcluding reserves memMB on the live host with maximum free
// memory (ties to the lowest id), never on excludeHost. It returns the
// chosen host id, or -1 when no host fits.
func (c *NaiveCluster) AcquireExcluding(memMB float64, excludeHost int) int {
	var best *Host
	for _, h := range c.hosts {
		if !h.alive || h.ID == excludeHost || h.FreeMem() < memMB {
			continue
		}
		if best == nil || h.FreeMem() > best.FreeMem() ||
			(h.FreeMem() == best.FreeMem() && h.ID < best.ID) {
			best = h
		}
	}
	if best == nil {
		return -1
	}
	best.used += memMB
	best.tasks++
	return best.ID
}

// MaxFreeMem returns the largest free memory on any live host, -Inf
// when none is live.
func (c *NaiveCluster) MaxFreeMem() float64 {
	best := math.Inf(-1)
	for _, h := range c.hosts {
		if h.alive && h.FreeMem() > best {
			best = h.FreeMem()
		}
	}
	return best
}

// Release returns memMB to the given host.
func (c *NaiveCluster) Release(hostID int, memMB float64) {
	h := c.hosts[hostID]
	h.used -= memMB
	h.tasks--
	if h.used < 0 {
		h.used = 0
	}
}

// SetAlive marks a host up or down.
func (c *NaiveCluster) SetAlive(hostID int, alive bool) {
	c.hosts[hostID].alive = alive
}

// NaivePendingQueue mirrors PendingQueue with the original slice-and-
// splice implementation (plus the demand bookkeeping the indexed queue
// carries), so both answer the same pops in the same order.
type NaivePendingQueue[T any] struct {
	restarts []naiveEntry[T]
	fresh    []naiveEntry[T]
}

type naiveEntry[T any] struct {
	v      T
	demand float64
}

// PushFresh enqueues a newly arrived task.
func (q *NaivePendingQueue[T]) PushFresh(v T, demand float64) {
	q.fresh = append(q.fresh, naiveEntry[T]{v, demand})
}

// PushRestart enqueues a task awaiting restart.
func (q *NaivePendingQueue[T]) PushRestart(v T, demand float64) {
	q.restarts = append(q.restarts, naiveEntry[T]{v, demand})
}

// Pop dequeues the next task (restarts first).
func (q *NaivePendingQueue[T]) Pop() (T, bool) {
	var zero T
	if len(q.restarts) > 0 {
		v := q.restarts[0].v
		q.restarts = q.restarts[1:]
		return v, true
	}
	if len(q.fresh) > 0 {
		v := q.fresh[0].v
		q.fresh = q.fresh[1:]
		return v, true
	}
	return zero, false
}

// PopFitting dequeues the first task (restarts first) with demand at
// most maxFree passing fits, by linear scan and slice splice.
func (q *NaivePendingQueue[T]) PopFitting(maxFree float64, fits func(T) bool) (T, bool) {
	var zero T
	for _, lane := range []*[]naiveEntry[T]{&q.restarts, &q.fresh} {
		for i, e := range *lane {
			if e.demand <= maxFree && (fits == nil || fits(e.v)) {
				*lane = append((*lane)[:i], (*lane)[i+1:]...)
				return e.v, true
			}
		}
	}
	return zero, false
}

// MinDemand returns the smallest queued demand, +Inf when empty.
func (q *NaivePendingQueue[T]) MinDemand() float64 {
	best := math.Inf(1)
	for _, lane := range [][]naiveEntry[T]{q.restarts, q.fresh} {
		for _, e := range lane {
			if e.demand < best {
				best = e.demand
			}
		}
	}
	return best
}

// Len returns the number of queued tasks.
func (q *NaivePendingQueue[T]) Len() int { return len(q.restarts) + len(q.fresh) }
