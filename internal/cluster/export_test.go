package cluster

// Accessors the tests read production state through.

// FreeMem returns the host's unallocated memory.
func (h *Host) FreeMem() float64 { return h.MemMB - h.used }

// FreeMem returns the total free memory across live hosts.
func (c *Cluster) FreeMem() float64 {
	var sum float64
	for _, h := range c.hosts {
		if h.alive {
			sum += h.FreeMem()
		}
	}
	return sum
}

// RunningTasks returns the number of active placements.
func (c *Cluster) RunningTasks() int {
	var n int
	for _, h := range c.hosts {
		n += h.tasks
	}
	return n
}

// Len returns the number of queued tasks.
func (q *PendingQueue[T]) Len() int { return q.restarts.count + q.fresh.count }
