package storage

import (
	"fmt"

	"repro/internal/blcr"
	"repro/internal/simeng"
)

// Kind identifies a storage configuration.
type Kind int

const (
	// KindLocal is the per-VM local ramdisk.
	KindLocal Kind = iota
	// KindNFS is a single shared NFS server.
	KindNFS
	// KindDMNFS is the paper's distributively-managed NFS.
	KindDMNFS
)

func (k Kind) String() string {
	switch k {
	case KindLocal:
		return "local-ramdisk"
	case KindNFS:
		return "nfs"
	default:
		return "dm-nfs"
	}
}

// Backend is a checkpoint storage device. Begin starts one checkpoint
// operation and returns its wall-clock cost (seconds) plus a release
// function the caller must invoke when the operation's time has elapsed;
// contention-sensitive backends charge concurrent operations more.
//
// Release functions from the built-in backends are pooled: calling one
// is idempotent until the backend re-issues the underlying operation,
// so a caller must invoke each release exactly once (an immediate
// double call is tolerated but must not race a later Begin).
//
// Backends are not safe for concurrent use by multiple goroutines; the
// discrete-event engine drives them from a single goroutine.
type Backend interface {
	Kind() Kind
	// Begin starts a checkpoint of memMB megabytes issued by hostID.
	Begin(hostID int, memMB float64) (cost float64, release func())
	// RestartCost returns the cost of restarting a task of memMB from
	// this backend onto any host (Table 5 semantics).
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

// op is one in-flight checkpoint operation. Its release closure is
// built once, when the op is first allocated, and reused across pool
// recycles, so the engine's per-checkpoint Begin/release churn
// allocates nothing in steady state.
type op struct {
	released bool
	server   int // DM-NFS: chosen server index
	fn       func()
}

// opPool recycles ops for one backend instance (single-goroutine use,
// like the backends themselves).
type opPool struct {
	free []*op
}

// take returns a pooled op reset for reuse, or nil when the pool is
// empty and the caller must allocate one (binding its release closure).
func (p *opPool) take() *op {
	n := len(p.free)
	if n == 0 {
		return nil
	}
	o := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	o.released = false
	return o
}

func (p *opPool) put(o *op) { p.free = append(p.free, o) }

// LocalRamdisk models per-VM ramdisk checkpoint storage. Checkpoint
// costs follow Figure 7(a) and do not grow with parallel degree
// (Table 2, upper half); restarting requires migration type A.
type LocalRamdisk struct {
	rng    *simeng.RNG
	jitter float64
	ops    opPool
}

// NewLocalRamdisk returns a local-ramdisk backend. rng may be nil for
// deterministic costs (no measurement jitter).
func NewLocalRamdisk(rng *simeng.RNG) *LocalRamdisk {
	return &LocalRamdisk{rng: rng, jitter: 0.06}
}

// Kind implements Backend.
func (l *LocalRamdisk) Kind() Kind { return KindLocal }

// Begin implements Backend; local writes do not contend.
func (l *LocalRamdisk) Begin(hostID int, memMB float64) (float64, func()) {
	cost := jittered(l.rng, blcr.CheckpointCostLocal(memMB), l.jitter)
	o := l.ops.take()
	if o == nil {
		o = &op{}
		o.fn = l.releaseFn(o)
	}
	return cost, o.fn
}

// releaseFn binds an op's reusable release closure; it runs on every
// issuance of the op, not just the first.
func (l *LocalRamdisk) releaseFn(o *op) func() {
	return func() {
		if !o.released {
			o.released = true
			l.ops.put(o)
		}
	}
}

// BeginBatch starts len(hostIDs) checkpoints that overlap fully in
// time (the paper's simultaneous-checkpointing methodology of Tables
// 2-3) and returns their costs and one release that ends all of them.
// Local writes never contend, so the batch is equivalent to independent
// Begins.
func (l *LocalRamdisk) BeginBatch(hostIDs []int, memMB float64) ([]float64, func()) {
	costs := make([]float64, len(hostIDs))
	releases := make([]func(), len(hostIDs))
	for i, h := range hostIDs {
		costs[i], releases[i] = l.Begin(h, memMB)
	}
	return costs, func() {
		for _, r := range releases {
			r()
		}
	}
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
	ops      opPool
}

// NewNFS returns a plain shared-NFS backend. rng may be nil for
// deterministic costs.
func NewNFS(rng *simeng.RNG) *NFS {
	return &NFS{rng: rng, jitter: 0.10}
}

// Kind implements Backend.
func (n *NFS) Kind() Kind { return KindNFS }

// Begin implements Backend; the cost reflects the parallel degree at
// issue time (this operation included).
func (n *NFS) Begin(hostID int, memMB float64) (float64, func()) {
	n.inFlight++
	base := blcr.CheckpointCostNFS(memMB)
	cost := jittered(n.rng, base*congestion(n.inFlight), n.jitter)
	o := n.ops.take()
	if o == nil {
		o = &op{}
		o.fn = n.releaseFn(o)
	}
	return cost, o.fn
}

// releaseFn binds an op's reusable release closure (see LocalRamdisk).
func (n *NFS) releaseFn(o *op) func() {
	return func() {
		if !o.released {
			o.released = true
			n.inFlight--
			n.ops.put(o)
		}
	}
}

// BeginBatch is LocalRamdisk.BeginBatch on NFS: all operations in the
// batch overlap fully, so each one pays the congestion of the total
// degree (existing in-flight operations plus the whole batch).
func (n *NFS) BeginBatch(hostIDs []int, memMB float64) ([]float64, func()) {
	k := len(hostIDs)
	n.inFlight += k
	degree := n.inFlight
	base := blcr.CheckpointCostNFS(memMB)
	costs := make([]float64, k)
	for i := range costs {
		costs[i] = jittered(n.rng, base*congestion(degree), n.jitter)
	}
	released := false
	return costs, func() {
		if !released {
			released = true
			n.inFlight -= k
		}
	}
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
	ops       opPool
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
	return &DMNFS{rng: rng, jitter: 0.08, perServer: make([]int, servers)}
}

// Kind implements Backend.
func (d *DMNFS) Kind() Kind { return KindDMNFS }

// Begin implements Backend: one server is selected at random and the
// congestion multiplier reflects only that server's outstanding
// operations.
func (d *DMNFS) Begin(hostID int, memMB float64) (float64, func()) {
	s := d.rng.Intn(len(d.perServer))
	d.perServer[s]++
	base := blcr.CheckpointCostNFS(memMB)
	cost := jittered(d.rng, base*congestion(d.perServer[s]), d.jitter)
	o := d.ops.take()
	if o == nil {
		o = &op{}
		o.fn = d.releaseFn(o)
	}
	o.server = s
	return cost, o.fn
}

// releaseFn binds an op's reusable release closure; the op records the
// chosen server so the closure can decrement the right counter on every
// issuance.
func (d *DMNFS) releaseFn(o *op) func() {
	return func() {
		if !o.released {
			o.released = true
			d.perServer[o.server]--
			d.ops.put(o)
		}
	}
}

// BeginBatch is LocalRamdisk.BeginBatch on DM-NFS: servers are
// assigned up front, then every operation pays the congestion of its
// own server's final degree.
func (d *DMNFS) BeginBatch(hostIDs []int, memMB float64) ([]float64, func()) {
	k := len(hostIDs)
	servers := make([]int, k)
	for i := range servers {
		s := d.rng.Intn(len(d.perServer))
		servers[i] = s
		d.perServer[s]++
	}
	base := blcr.CheckpointCostNFS(memMB)
	costs := make([]float64, k)
	for i, s := range servers {
		costs[i] = jittered(d.rng, base*congestion(d.perServer[s]), d.jitter)
	}
	released := false
	return costs, func() {
		if !released {
			released = true
			for _, s := range servers {
				d.perServer[s]--
			}
		}
	}
}

// RestartCost implements Backend (migration type B).
func (d *DMNFS) RestartCost(memMB float64) float64 {
	return blcr.RestartCost(memMB, blcr.MigrationB)
}

// CheckpointCost returns the steady-state (uncontended) per-checkpoint
// cost a policy should plan with for the given backend kind and memory
// size — the constant C of the paper's model.
func CheckpointCost(kind Kind, memMB float64) float64 {
	if kind == KindLocal {
		return blcr.CheckpointCostLocal(memMB)
	}
	return blcr.CheckpointCostNFS(memMB)
}

// RestartCostFor returns the constant R for the given backend kind and
// memory size.
func RestartCostFor(kind Kind, memMB float64) float64 {
	if kind == KindLocal {
		return blcr.RestartCost(memMB, blcr.MigrationA)
	}
	return blcr.RestartCost(memMB, blcr.MigrationB)
}

// CostModel is an optional Backend extension: backends that implement
// it supply their own planning constants C and R instead of the
// BLCR-derived curves keyed by Kind. Third-party backends plugged in
// through the public API implement it so the planner sees their real
// costs.
type CostModel interface {
	PlannedCheckpointCost(memMB float64) float64
	PlannedRestartCost(memMB float64) float64
}

// PlannedCheckpointCost returns the planning constant C for a backend:
// its own cost model when it has one, the kind-keyed BLCR curve
// otherwise.
func PlannedCheckpointCost(b Backend, memMB float64) float64 {
	if cm, ok := b.(CostModel); ok {
		return cm.PlannedCheckpointCost(memMB)
	}
	return CheckpointCost(b.Kind(), memMB)
}

// PlannedRestartCost returns the planning constant R for a backend (see
// PlannedCheckpointCost).
func PlannedRestartCost(b Backend, memMB float64) float64 {
	if cm, ok := b.(CostModel); ok {
		return cm.PlannedRestartCost(memMB)
	}
	return RestartCostFor(b.Kind(), memMB)
}
