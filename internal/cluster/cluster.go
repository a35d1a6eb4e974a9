// Package cluster models the execution substrate of the paper's testbed:
// physical hosts running Xen-style VMs whose memory is the binding
// resource. The scheduling policy is the paper's: "the physical host
// with the maximum available memory size will be selected" (greedy
// load balancing by free memory), and interrupted tasks are restarted
// on a different host than the one where they failed.
//
// Placement queries are served by a tournament tree over the hosts
// (see hostTree), so Acquire/AcquireExcluding/MaxFreeMem cost O(log
// hosts) or less instead of a linear scan, while choosing exactly the
// host the scan would have chosen. The package also provides the
// simulator's PendingQueue (queue.go), demand-indexed for O(log queue)
// first-fit pops, and retains the pre-index reference implementations
// (naive_test.go) as differential-test oracles.
package cluster

import (
	"fmt"
	"math"
)

// Host is one physical machine.
type Host struct {
	ID    int
	MemMB float64
	used  float64
	tasks int
	alive bool
}

// Placement is a granted resource reservation: a VM instance isolated
// (in the paper, by the hypervisor's credit scheduler) to the task's
// memory demand on a chosen host.
type Placement struct {
	HostID int
	MemMB  float64
	seq    uint64
	active bool
}

// Active reports whether the placement still holds resources.
func (p *Placement) Active() bool { return p != nil && p.active }

// Cluster is a collection of hosts with memory-constrained placement.
// It is driven from a single goroutine (the discrete-event simulator).
type Cluster struct {
	hosts []*Host
	// tree indexes live hosts by (free memory desc, id asc); every
	// mutation of a host's free memory or liveness goes through touch()
	// so the index never drifts from the host structs.
	tree *hostTree
	seq  uint64
	// free pools released Placements for reuse, so the steady-state
	// acquire/release churn of restarting tasks allocates nothing.
	// Callers must drop their pointer once they Release (the engine nils
	// its reference immediately); Active() guards against use of a
	// released placement before it is re-issued.
	free []*Placement
}

// New builds a cluster of `hosts` hosts with memMB memory each. The
// paper's testbed is 32 hosts x 16 GB, of which 7 GB per host backs VM
// instances; pass the memory the scheduler may commit to tasks.
func New(hosts int, memMB float64) *Cluster {
	if hosts <= 0 {
		panic(fmt.Sprintf("cluster: need at least one host, got %d", hosts))
	}
	if !(memMB > 0) {
		panic(fmt.Sprintf("cluster: host memory must be positive, got %v", memMB))
	}
	c := &Cluster{hosts: make([]*Host, hosts), tree: newHostTree(hosts)}
	for i := range c.hosts {
		c.hosts[i] = &Host{ID: i, MemMB: memMB, alive: true}
		c.touch(c.hosts[i])
	}
	return c
}

// touch re-indexes a host after any change to its free memory or
// liveness. The key is the same MemMB-used subtraction FreeMem()
// evaluates, so index comparisons see the scan's exact operands.
func (c *Cluster) touch(h *Host) {
	c.tree.set(h.ID, h.MemMB-h.used, h.alive)
}

// Hosts returns the number of hosts.
func (c *Cluster) Hosts() int { return len(c.hosts) }

// Host returns the host with the given id.
func (c *Cluster) Host(id int) *Host {
	if id < 0 || id >= len(c.hosts) {
		panic(fmt.Sprintf("cluster: host id %d out of range", id))
	}
	return c.hosts[id]
}

// Acquire reserves memMB on the live host with the maximum available
// memory (the paper's VM selection policy). It returns nil when no host
// can fit the request.
func (c *Cluster) Acquire(memMB float64) *Placement {
	return c.AcquireExcluding(memMB, -1)
}

// AcquireExcluding is Acquire but never places on the excluded host —
// used when restarting a failed task "on another host". If only the
// excluded host has room, the request fails (the task waits).
//
// The chosen host is the tournament winner among live, non-excluded
// hosts; it fits the request iff its free memory does, because every
// other candidate has no more free memory than the winner. O(log
// hosts) when the winner is the excluded host, O(1) otherwise.
func (c *Cluster) AcquireExcluding(memMB float64, excludeHost int) *Placement {
	if !(memMB > 0) {
		panic(fmt.Sprintf("cluster: acquire of non-positive memory %v", memMB))
	}
	best := c.tree.bestExcluding(excludeHost)
	if best < 0 || c.tree.keys[best] < memMB {
		return nil
	}
	h := c.hosts[best]
	h.used += memMB
	h.tasks++
	c.touch(h)
	c.seq++
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*p = Placement{HostID: h.ID, MemMB: memMB, seq: c.seq, active: true}
		return p
	}
	return &Placement{HostID: h.ID, MemMB: memMB, seq: c.seq, active: true}
}

// MaxFreeMem returns the largest free memory on any live host — the
// head of the placement order — in O(1). With no live hosts it returns
// -Inf, so every (positive) demand fails the fit comparison.
func (c *Cluster) MaxFreeMem() float64 {
	best := c.tree.best()
	if best < 0 {
		return math.Inf(-1)
	}
	return c.tree.keys[best]
}

// Release returns a placement's resources. Releasing an inactive
// placement panics: it indicates double-release in the engine.
func (c *Cluster) Release(p *Placement) {
	if p == nil || !p.active {
		panic("cluster: release of inactive placement")
	}
	h := c.Host(p.HostID)
	h.used -= p.MemMB
	h.tasks--
	if h.used < -1e-9 || h.tasks < 0 {
		panic(fmt.Sprintf("cluster: host %d accounting underflow (used %v, tasks %d)", h.ID, h.used, h.tasks))
	}
	if h.used < 0 {
		h.used = 0
	}
	c.touch(h)
	p.active = false
	c.free = append(c.free, p)
}

// SetAlive marks a host up or down. Tasks on a downed host are the
// engine's responsibility to fail over; the cluster only stops placing
// new work there.
func (c *Cluster) SetAlive(hostID int, alive bool) {
	h := c.Host(hostID)
	h.alive = alive
	c.touch(h)
}
