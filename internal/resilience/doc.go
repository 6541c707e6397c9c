// Package resilience provides fault-tolerant building blocks on top of the
// virtual-time simulator, so the energy cost of resilience can be measured
// with the paper's model (Eq. 2) exactly like any other communication or
// computation: every retransmission, checksum, checkpoint and replayed flop
// flows through the normal sim.Stats counters and is priced by
// core.PriceSim.
//
// Three layers:
//
//   - Reliable: a checksummed, acknowledged point-to-point channel that
//     masks message corruption and duplication injected by a sim.FaultPlan.
//     It has no timers (virtual time has no timeouts), so unbounded message
//     loss is not retransmitted — a dropped packet leaves both ends blocked
//     and the runtime converts the hang into a DeadlockError.
//
//   - ABFT25D: the 2.5D SUMMA matrix multiply of internal/matmul hardened
//     against rank crashes. The 2.5D algorithm's replication factor c is
//     exactly the redundancy resilience needs: each fiber of c ranks holds
//     identical resident A and B blocks, so a crashed rank restores its
//     state from any live fiber sibling and replays the outer-product
//     panels it missed from their in-layer owners. The recovery traffic and
//     recomputation are ordinary sends and flops — the experiment in
//     cmd/faulttol prices them and asks whether the paper's perfect strong
//     scaling survives failures.
//
//   - RunCheckpointed: in-memory buddy checkpointing with coordinated
//     rollback for iterative SPMD kernels. Each rank ships its state to a
//     buddy every k iterations over Reliable; when the per-step failure
//     detection (a world all-reduce of a crash bitmap) reports a casualty,
//     every rank rolls back to the last checkpoint and re-executes.
//
// Crash semantics follow sim.FaultPlan with Respawn: a crashed rank loses
// its application data (the implementations scrub it to NaN so an
// incomplete recovery cannot silently pass) but continues executing the
// SPMD protocol as a cold spare, as under message-logging runtimes. All
// recovery decisions are driven by the deterministic crash bitmap, so a
// given FaultPlan seed reproduces byte-identical results and Stats.
package resilience
