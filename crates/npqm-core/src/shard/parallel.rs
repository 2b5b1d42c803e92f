//! The batch entry points: a batch of commands or arrivals grouped per
//! shard, each group run through
//! [`ShardedQueueManager::for_each_shard`], results reassembled in batch
//! order.
//!
//! * [`ShardedQueueManager::execute_batch`] — each group's pending
//!   positions and results are the state it hands to
//!   [`for_each_shard`](ShardedQueueManager::for_each_shard); a
//!   cross-shard command ends a phase and runs alone between phases.
//! * [`ShardedAdmission::offer_batch`] — the same over one
//!   [`DropPolicy`] per shard.
//!
//! Every group runs on the calling thread, in shard order. A run-scoped
//! worker set and a claim-counter fan-out spawning per phase were both
//! built and measured: on `batch_zipf`'s shape at 2 threads on a shared
//! 2-vCPU host they took 33.8–46.6 ms and 35.8–38.6 ms (lower decile of
//! 40 runs) against 25.7–29.3 ms serial, because two busy workers each ran
//! the engine at about 60 % of its serial speed. So nothing here spawns.
//! [`execute_batch_parallel`](ShardedQueueManager::execute_batch_parallel)
//! and [`offer_batch_parallel`](ShardedAdmission::offer_batch_parallel)
//! are the same calls under their old names, with a `threads` argument
//! that is ignored.
//!
//! # Determinism contract
//!
//! For any fixed batch, [`execute_batch`](ShardedQueueManager::execute_batch)
//! returns the same results vector, leaves every shard in the same state
//! (see [`ShardedQueueManager::state_digest`]) and accumulates the same
//! [`QmStats`](crate::QmStats) as replaying the commands one by one
//! through [`execute`](ShardedQueueManager::execute): commands of one
//! shard run in program order, shards share no state, and a cross-shard
//! command is a barrier run alone between phases. Only the busy times
//! differ. The property tests in `tests/batch_equivalence.rs` pin this
//! against the one-by-one replay.
//!
//! # Example
//!
//! ```
//! use npqm_core::manager::SegmentPosition;
//! use npqm_core::shard::ShardedQueueManager;
//! use npqm_core::{Command, FlowId, QmConfig};
//!
//! let batch: Vec<Command> = (0..32)
//!     .map(|i| Command::Enqueue {
//!         flow: FlowId::new(i),
//!         data: vec![i as u8; 64],
//!         pos: SegmentPosition::Only,
//!     })
//!     .collect();
//! let mut batched = ShardedQueueManager::new(QmConfig::small(), 4);
//! let mut replay = ShardedQueueManager::new(QmConfig::small(), 4);
//! let one_by_one: Vec<_> = batch.iter().map(|c| replay.execute(c.clone())).collect();
//! assert_eq!(batched.execute_batch(&batch), one_by_one);
//! assert_eq!(batched.state_digest(), replay.state_digest());
//! ```

use super::{Route, ShardedAdmission, ShardedQueueManager};
use crate::command::{Command, Outcome};
use crate::error::QueueError;
use crate::id::FlowId;
use crate::manager::QueueManager;
use crate::policy::{Admission, DropPolicy, Refusal};
use std::time::Instant;

impl ShardedQueueManager {
    /// Executes a batch of commands grouped per shard, each phase's
    /// groups run in shard order through
    /// [`for_each_shard`](ShardedQueueManager::for_each_shard).
    ///
    /// Results come back in input order and are identical to executing
    /// the commands one-by-one through
    /// [`execute`](ShardedQueueManager::execute) (see the
    /// [module docs](self)): within a shard the original order is
    /// preserved, commands on different shards touch disjoint state, and
    /// a cross-shard command is a barrier — every pending group runs
    /// before it, then it runs alone.
    ///
    /// Each group's wall-clock cost is added to its shard's
    /// [busy time](ShardedQueueManager::busy_times); a cross-shard
    /// command's cost is charged to both engines, which it serializes.
    pub fn execute_batch(&mut self, cmds: &[Command]) -> Vec<Result<Outcome, QueueError>> {
        let mut groups: Vec<Group<(), _>> = self.shards.iter().map(|_| Group::new(())).collect();
        let mut crossed = Vec::new();
        let exec = |qm: &mut QueueManager, _: &mut (), i: usize| qm.execute_ref(&cmds[i]);
        for (i, cmd) in cmds.iter().enumerate() {
            match self.route(cmd) {
                Route::One(s) => groups[s].pending.push(i),
                Route::Two(a, b) => {
                    self.run_pending(&mut groups, exec);
                    let t = Instant::now();
                    crossed.push(self.execute_cross_traced(cmd));
                    let d = t.elapsed();
                    self.busy[a] += d;
                    self.busy[b] += d;
                }
            }
        }
        self.run_pending(&mut groups, exec);
        let mut done: Vec<_> = groups.into_iter().map(|g| g.done.into_iter()).collect();
        let mut crossed = crossed.into_iter();
        cmds.iter()
            .map(|cmd| match self.route(cmd) {
                Route::One(s) => done[s].next(),
                Route::Two(..) => crossed.next(),
            })
            .map(|r| r.expect("every command was executed"))
            .collect()
    }

    /// [`execute_batch`](ShardedQueueManager::execute_batch) under its
    /// old name. `threads` is ignored: every group runs on the calling
    /// thread.
    pub fn execute_batch_parallel(
        &mut self,
        cmds: &[Command],
        _threads: usize,
    ) -> Vec<Result<Outcome, QueueError>> {
        self.execute_batch(cmds)
    }

    /// One phase of a batch: runs every group's pending positions, in
    /// order, on its own shard through
    /// [`for_each_shard`](ShardedQueueManager::for_each_shard).
    fn run_pending<P, R>(
        &mut self,
        groups: &mut [Group<P, R>],
        mut exec: impl FnMut(&mut QueueManager, &mut P, usize) -> R,
    ) {
        let work = |qm: &mut QueueManager, g: &mut Group<P, R>| {
            for &i in &g.pending {
                g.done.push(exec(qm, &mut g.policy, i));
            }
            g.pending.clear();
        };
        self.for_each_shard(groups, |g| !g.pending.is_empty(), work);
    }
}

/// One shard's share of a batch: its policy (`()` for commands), the
/// batch positions it has yet to run, and the results it has produced,
/// in batch order.
struct Group<P, R> {
    policy: P,
    pending: Vec<usize>,
    done: Vec<R>,
}

impl<P, R> Group<P, R> {
    fn new(policy: P) -> Self {
        Group {
            policy,
            pending: Vec::new(),
            done: Vec::new(),
        }
    }
}

impl<P: DropPolicy> ShardedAdmission<P> {
    /// Offers a batch of arriving packets grouped per shard, the groups
    /// run in shard order through
    /// [`for_each_shard`](ShardedQueueManager::for_each_shard).
    ///
    /// Results come back in input order and are identical to calling
    /// [`offer`](ShardedAdmission::offer) one arrival at a time: within a
    /// shard the arrival order is preserved and policy `s` only ever
    /// touches engine `s`. Each shard group's wall-clock cost is added to
    /// the engine's [busy time](ShardedQueueManager::busy_times), so the
    /// admission path is part of the measured per-engine load.
    ///
    /// # Panics
    ///
    /// Panics if the engine's shard count differs from this admission's.
    pub fn offer_batch(
        &mut self,
        engine: &mut ShardedQueueManager,
        arrivals: &[(FlowId, &[u8])],
    ) -> Vec<Result<Admission, Refusal>> {
        assert_eq!(
            self.policies.len(),
            engine.num_shards(),
            "admission and engine shard counts differ"
        );
        let mut groups: Vec<_> = self.policies.iter_mut().map(Group::new).collect();
        for (i, &(flow, _)) in arrivals.iter().enumerate() {
            groups[engine.shard_of(flow)].pending.push(i);
        }
        engine.run_pending(&mut groups, |qm, policy, i| {
            policy.offer(qm, arrivals[i].0, arrivals[i].1)
        });
        let mut done: Vec<_> = groups.into_iter().map(|g| g.done.into_iter()).collect();
        arrivals
            .iter()
            .map(|&(flow, _)| done[engine.shard_of(flow)].next())
            .map(|r| r.expect("every arrival was offered"))
            .collect()
    }

    /// [`offer_batch`](ShardedAdmission::offer_batch) under its old
    /// name. `threads` is ignored: every group runs on the calling
    /// thread.
    ///
    /// # Panics
    ///
    /// As [`offer_batch`](ShardedAdmission::offer_batch).
    pub fn offer_batch_parallel(
        &mut self,
        engine: &mut ShardedQueueManager,
        arrivals: &[(FlowId, &[u8])],
        _threads: usize,
    ) -> Vec<Result<Admission, Refusal>> {
        self.offer_batch(engine, arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::limits::DropReason;
    use crate::manager::SegmentPosition;
    use crate::policy::{DynamicThreshold, GlobalLqd};

    fn cfg(segments: u32) -> QmConfig {
        QmConfig::builder()
            .num_flows(16)
            .num_segments(segments)
            .segment_bytes(64)
            .build()
            .unwrap()
    }

    fn enqueue_cmd(flow: u32, byte: u8, len: usize) -> Command {
        Command::Enqueue {
            flow: FlowId::new(flow),
            data: vec![byte; len],
            pos: SegmentPosition::Only,
        }
    }

    fn mixed_batch() -> Vec<Command> {
        let mut cmds = Vec::new();
        for f in 0..16u32 {
            cmds.push(enqueue_cmd(f, f as u8, 40 + 11 * f as usize));
        }
        for f in 0..16u32 {
            cmds.push(Command::Move {
                src: FlowId::new(f),
                dst: FlowId::new((f + 3) % 16),
            });
        }
        for f in 0..16u32 {
            cmds.push(Command::Dequeue {
                flow: FlowId::new((f + 3) % 16),
            });
        }
        cmds
    }

    #[test]
    fn parallel_matches_serial_including_cross_shard_barriers() {
        // The reference is the one-by-one replay; the old entry point
        // ignores its thread count and runs the same body.
        let cmds = mixed_batch();
        let mut replay = ShardedQueueManager::new(cfg(64), 4);
        let expected: Vec<_> = cmds.iter().map(|c| replay.execute(c.clone())).collect();
        let mut par = ShardedQueueManager::new(cfg(64), 4);
        assert_eq!(par.execute_batch_parallel(&cmds, 4), expected);
        assert_eq!(par.stats(), replay.stats());
        assert_eq!(par.state_digest(), replay.state_digest());
        par.verify().unwrap();
    }

    #[test]
    fn one_thread_is_the_serial_path() {
        let cmds = mixed_batch();
        let mut a = ShardedQueueManager::new(cfg(64), 4);
        let mut b = ShardedQueueManager::new(cfg(64), 4);
        assert_eq!(a.execute_batch_parallel(&cmds, 1), b.execute_batch(&cmds));
        assert_eq!(a.parallel_stats(), crate::stats::ParallelStats::default());
    }

    #[test]
    fn offer_batch_parallel_matches_serial() {
        let payloads: Vec<(FlowId, Vec<u8>)> = (0..60u32)
            .map(|i| (FlowId::new(i % 16), vec![i as u8; 40 + (i as usize % 90)]))
            .collect();
        let arrivals: Vec<(FlowId, &[u8])> =
            payloads.iter().map(|(f, p)| (*f, p.as_slice())).collect();
        let mut e1 = ShardedQueueManager::new(cfg(16), 4);
        let mut adm1 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
        let replay: Vec<_> = arrivals
            .iter()
            .map(|&(f, p)| adm1.offer(&mut e1, f, p))
            .collect();
        let mut e2 = ShardedQueueManager::new(cfg(16), 4);
        let mut adm2 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
        assert_eq!(adm2.offer_batch_parallel(&mut e2, &arrivals, 1), replay);
        assert_eq!(e1.stats(), e2.stats());
        assert_eq!(e1.state_digest(), e2.state_digest());
        e2.verify().unwrap();
    }

    #[test]
    fn global_lqd_respects_reserve_and_refuses_oversize() {
        let mut e = ShardedQueueManager::new(cfg(8), 2);
        let mut lqd = GlobalLqd::new(8, 2);
        assert!(matches!(
            lqd.offer(&mut e, FlowId::new(0), &[0u8; 64 * 7]),
            Err(Refusal {
                reason: DropReason::GlobalReserve,
                ..
            })
        ));
        for _ in 0..6 {
            let adm = lqd.offer(&mut e, FlowId::new(0), &[0u8; 64]);
            assert_eq!(adm, Ok(Admission::default()));
        }
        // The 7th would dip into the reserve: push-out keeps it intact.
        let adm = lqd.offer(&mut e, FlowId::new(1), &[1u8; 64]).unwrap();
        assert_eq!(e.used_segments(), 6);
        assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
        e.verify().unwrap();
    }

    #[test]
    fn global_lqd_skips_unevictable_queues() {
        // Shard A holds an open (mid-SAR) 2-segment packet — the longest
        // queue — while shard B holds a complete 1-segment packet. The
        // next arrival must evict from B, not give up on A's hog.
        let mut e = ShardedQueueManager::new(cfg(4), 2);
        let hog = FlowId::new(0);
        let hog_shard = e.shard_of(hog);
        let small = (1..16)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != hog_shard)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        let mut lqd = GlobalLqd::new(4, 0);
        lqd.offer(&mut e, small, &[1u8; 64]).unwrap();
        assert_eq!(e.used_segments(), 3);
        let adm = lqd.offer(&mut e, FlowId::new(2), &[2u8; 128]).unwrap();
        assert_eq!(adm.evicted, vec![(small, 64)]);
        e.verify().unwrap();
    }

    #[test]
    fn global_lqd_refusal_reports_collateral_evictions() {
        let mut e = ShardedQueueManager::new(cfg(4), 2);
        let hog = FlowId::new(0);
        let hog_shard = e.shard_of(hog);
        let other = (1..16)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != hog_shard)
            .unwrap();
        let mut lqd = GlobalLqd::new(4, 0);
        lqd.offer(&mut e, other, &[1u8; 64]).unwrap();
        // Fill the rest of the budget with an unevictable open packet.
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        e.shard_for_mut(hog)
            .enqueue(hog, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        // A 2-segment arrival can evict `other`'s packet but then runs
        // out of victims: the refusal must carry the collateral.
        let refusal = lqd.offer(&mut e, FlowId::new(2), &[2u8; 128]).unwrap_err();
        assert_eq!(refusal.reason, DropReason::GlobalReserve);
        assert_eq!(refusal.evicted, vec![(other, 64)]);
        e.verify().unwrap();
    }
}
