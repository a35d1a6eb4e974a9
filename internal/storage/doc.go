// Package storage models the three checkpoint storage configurations the
// paper characterizes: VM-local ramdisks, a plain shared NFS server, and
// the paper's distributively-managed NFS (DM-NFS) in which every
// physical host doubles as an NFS server and each checkpoint picks one
// at random.
//
// The key behavioral difference (Tables 2 and 3) is how per-checkpoint
// cost responds to simultaneous checkpoints:
//
//   - local ramdisk:  flat (each host writes its own memory);
//   - plain NFS:      grows steeply with parallel degree (server
//     congestion / NFS synchronization);
//   - DM-NFS:         flat (load spreads across many servers), staying
//     within ~2 s even with simultaneous checkpoints.
//
// Backend is the one place a device states its costs: Begin prices a
// write under contention, CheckpointCost and RestartCost give the
// planning constants C and R. Each built-in device returns its BLCR
// curve (Figure 7, Table 5): the local ramdisk Figure 7(a) with
// migration type A, NFS and DM-NFS Figure 7(b) with migration type B.
//
// Backends sit on the engine's per-checkpoint hot path. A write needs
// no state of its own once it is priced, so each built-in device binds
// its releases once, at construction: the local ramdisk shares one
// no-op, NFS has one closure and DM-NFS one per server.
//
// Other backends plug in through engine.Config.LocalBackend /
// SharedBackend, a seam for tests (a constant-cost device, say, as a
// reference model of the paper's single-task process needs); the
// planner reads their constants through the same Backend methods.
package storage
