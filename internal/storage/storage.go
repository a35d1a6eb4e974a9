package storage

import (
	"fmt"

	"repro/internal/blcr"
	"repro/internal/simeng"
)

// Backend is a checkpoint storage device, described by what the paper
// measures of one: a write's cost under contention (Tables 2-3), the
// uncontended per-checkpoint cost C (Figure 7, Table 4) and the restart
// cost R (Table 5).
//
// Begin starts one checkpoint write and returns its wall-clock cost
// (seconds) plus a release the caller must call exactly once, when the
// write's time has elapsed; contention-sensitive devices charge
// concurrent writes more. The built-in devices bind their releases once,
// at construction, so a write allocates nothing; an NFS or DM-NFS
// release panics when no write is in flight.
//
// Backends are not safe for concurrent use by multiple goroutines; the
// discrete-event engine drives them from a single goroutine.
type Backend interface {
	// Begin starts a checkpoint of memMB megabytes issued by hostID.
	Begin(hostID int, memMB float64) (cost float64, release func())
	// CheckpointCost returns the steady-state (uncontended) cost of one
	// checkpoint of memMB: the planning constant C.
	CheckpointCost(memMB float64) float64
	// RestartCost returns the cost of restarting a task of memMB from
	// this device onto any host: the constant R.
	RestartCost(memMB float64) float64
}

// congestion is the NFS parallel-degree cost multiplier implied by
// Table 2 at 160 MB: averages 1.67, 2.665, 5.38, 6.25, 8.95 s for
// degrees 1-5, i.e. multipliers 1, 1.60, 3.22, 3.74, 5.36 over the
// uncontended cost. Beyond degree 5 the last segment's slope continues.
var congestionMult = []float64{1, 1.596, 3.222, 3.743, 5.359}

func congestion(degree int) float64 {
	if degree <= 1 {
		return 1
	}
	if degree <= len(congestionMult) {
		return congestionMult[degree-1]
	}
	last := congestionMult[len(congestionMult)-1]
	slope := last - congestionMult[len(congestionMult)-2]
	return last + slope*float64(degree-len(congestionMult))
}

// jittered multiplies cost by a uniform factor in [1-j, 1+j], modeling
// the min/max spread of the paper's 25-repetition measurements.
func jittered(r *simeng.RNG, cost, j float64) float64 {
	if r == nil || j <= 0 {
		return cost
	}
	return cost * (1 - j + 2*j*r.Float64())
}

// LocalRamdisk models per-VM ramdisk checkpoint storage. Checkpoint
// costs follow Figure 7(a) and do not grow with parallel degree
// (Table 2, upper half); restarting requires migration type A.
type LocalRamdisk struct {
	rng    *simeng.RNG
	jitter float64
}

// NewLocalRamdisk returns a local-ramdisk backend. rng may be nil for
// deterministic costs (no measurement jitter).
func NewLocalRamdisk(rng *simeng.RNG) *LocalRamdisk {
	return &LocalRamdisk{rng: rng, jitter: 0.06}
}

// noRelease is the local ramdisk's release: a local write holds no
// shared resource.
func noRelease() {}

// Begin implements Backend; local writes do not contend.
func (l *LocalRamdisk) Begin(hostID int, memMB float64) (float64, func()) {
	return jittered(l.rng, l.CheckpointCost(memMB), l.jitter), noRelease
}

// BatchCosts returns the costs of k checkpoints of memMB that overlap
// fully in time (the simultaneous-checkpointing methodology of Tables
// 2-3). Local writes never contend, so each costs what a lone Begin
// would.
func (l *LocalRamdisk) BatchCosts(k int, memMB float64) []float64 {
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = jittered(l.rng, l.CheckpointCost(memMB), l.jitter)
	}
	return costs
}

// CheckpointCost implements Backend (Figure 7(a)).
func (l *LocalRamdisk) CheckpointCost(memMB float64) float64 {
	return blcr.CheckpointCostLocal(memMB)
}

// RestartCost implements Backend (migration type A).
func (l *LocalRamdisk) RestartCost(memMB float64) float64 {
	return blcr.RestartCost(memMB, blcr.MigrationA)
}

// NFS models a single shared NFS server. Simultaneous checkpoints
// congest it: cost grows with the parallel degree per Table 2's lower
// half. Restarting uses migration type B.
type NFS struct {
	rng      *simeng.RNG
	jitter   float64
	inFlight int
	release  func()
}

// NewNFS returns a plain shared-NFS backend. rng may be nil for
// deterministic costs.
func NewNFS(rng *simeng.RNG) *NFS {
	n := &NFS{rng: rng, jitter: 0.10}
	n.release = func() {
		if n.inFlight == 0 {
			panic("storage: NFS release with no write in flight")
		}
		n.inFlight--
	}
	return n
}

// Begin implements Backend; the cost reflects the parallel degree at
// issue time (this write included).
func (n *NFS) Begin(hostID int, memMB float64) (float64, func()) {
	n.inFlight++
	return n.cost(n.inFlight, memMB), n.release
}

// BatchCosts is LocalRamdisk.BatchCosts on NFS: every write in the
// batch pays the congestion of the total degree, the writes already in
// flight plus the whole batch.
func (n *NFS) BatchCosts(k int, memMB float64) []float64 {
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = n.cost(n.inFlight+k, memMB)
	}
	return costs
}

// cost draws the cost of one write at the given parallel degree.
func (n *NFS) cost(degree int, memMB float64) float64 {
	return jittered(n.rng, n.CheckpointCost(memMB)*congestion(degree), n.jitter)
}

// CheckpointCost implements Backend (Figure 7(b)).
func (n *NFS) CheckpointCost(memMB float64) float64 {
	return blcr.CheckpointCostNFS(memMB)
}

// RestartCost implements Backend (migration type B).
func (n *NFS) RestartCost(memMB float64) float64 {
	return blcr.RestartCost(memMB, blcr.MigrationB)
}

// DMNFS models the paper's distributively-managed NFS: every physical
// host runs an NFS server, every VM mounts all of them, and each
// checkpoint picks a server uniformly at random. Per-server congestion
// still applies, but with tens of servers the expected degree per server
// stays near one, which keeps costs flat (Table 3).
type DMNFS struct {
	rng       *simeng.RNG
	jitter    float64
	perServer []int
	// releases[s] ends one write on server s.
	releases []func()
}

// NewDMNFS returns a DM-NFS backend with the given number of servers
// (the paper uses one per physical host, 32 in its testbed). rng is
// required: server selection is random by design.
func NewDMNFS(rng *simeng.RNG, servers int) *DMNFS {
	if servers <= 0 {
		panic(fmt.Sprintf("storage: DM-NFS needs at least one server, got %d", servers))
	}
	if rng == nil {
		panic("storage: DM-NFS requires an RNG for random server selection")
	}
	d := &DMNFS{rng: rng, jitter: 0.08, perServer: make([]int, servers), releases: make([]func(), servers)}
	for s := range d.releases {
		d.releases[s] = func() {
			if d.perServer[s] == 0 {
				panic(fmt.Sprintf("storage: DM-NFS server %d release with no write in flight", s))
			}
			d.perServer[s]--
		}
	}
	return d
}

// Begin implements Backend: one server is selected at random and the
// congestion multiplier reflects only that server's outstanding writes.
func (d *DMNFS) Begin(hostID int, memMB float64) (float64, func()) {
	s := d.rng.Intn(len(d.perServer))
	d.perServer[s]++
	return d.cost(d.perServer[s], memMB), d.releases[s]
}

// BatchCosts is LocalRamdisk.BatchCosts on DM-NFS: servers are drawn
// up front, then every write pays the congestion of its own server's
// degree, the writes already in flight there plus the batch's.
func (d *DMNFS) BatchCosts(k int, memMB float64) []float64 {
	servers := make([]int, k)
	degree := append([]int(nil), d.perServer...)
	for i := range servers {
		servers[i] = d.rng.Intn(len(d.perServer))
		degree[servers[i]]++
	}
	costs := make([]float64, k)
	for i, s := range servers {
		costs[i] = d.cost(degree[s], memMB)
	}
	return costs
}

// cost draws the cost of one write at its server's degree.
func (d *DMNFS) cost(degree int, memMB float64) float64 {
	return jittered(d.rng, d.CheckpointCost(memMB)*congestion(degree), d.jitter)
}

// CheckpointCost implements Backend: an uncontended server writes at
// the NFS cost (Figure 7(b)).
func (d *DMNFS) CheckpointCost(memMB float64) float64 {
	return blcr.CheckpointCostNFS(memMB)
}

// RestartCost implements Backend (migration type B).
func (d *DMNFS) RestartCost(memMB float64) float64 {
	return blcr.RestartCost(memMB, blcr.MigrationB)
}
