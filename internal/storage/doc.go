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
// Backends sit on the engine's per-checkpoint hot path, so the built-in
// implementations recycle their in-flight operation records (and the
// release closures bound to them) through per-backend pools — see the
// Backend contract for what that implies for release calls.
//
// Other backends plug in through engine.Config.LocalBackend /
// SharedBackend, a seam for tests (a constant-cost device, say, as a
// reference model of the paper's single-task process needs);
// implementing the optional CostModel interface lets the planner see
// their own checkpoint/restart constants instead of the BLCR-derived
// curves.
package storage
