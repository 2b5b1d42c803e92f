//! The claim-counter fan-out every threaded path in the workspace runs
//! on, and the batch entry points built on it.
//!
//! The sharded engine's shards share no state, so per-shard work can
//! genuinely run on different OS threads. *How* it is spread over threads
//! is decided in exactly one function:
//!
//! * [`for_each_claimed`] — runs a closure once on each of a slice of
//!   independent items: inline at one worker, otherwise on the calling
//!   thread and scoped worker threads beside it, which pull item indices
//!   off a **lock-free claim counter**, so a worker that finishes early
//!   takes the next unclaimed item and a pathologically loaded shard
//!   never leaves the others idle. It is the only place `npqm-core` and
//!   `npqm-traffic` spawn a thread (`ci.sh structure` greps for it).
//! * [`ShardedQueueManager::for_each_shard`] — the one timed per-shard
//!   executor: runs a closure on each busy shard with that shard's entry
//!   of a caller-owned state slice, adds the call's wall time to the
//!   shard's busy time, and on more than one worker hands the shards,
//!   heaviest first, to [`for_each_claimed`]; claims beyond a worker's
//!   first are counted as steals in
//!   [`ParallelStats`](crate::stats::ParallelStats). A caller that keeps
//!   its per-shard state for a run (the `table7` / `table8` rounds do)
//!   runs each round as one call per phase and allocates nothing per
//!   round on one worker.
//! * [`ShardedQueueManager::execute_batch_parallel`] /
//!   [`ShardedAdmission::offer_batch_parallel`] — a batch grouped per
//!   shard, each group's pending positions and results being the state
//!   it passes to [`for_each_shard`](ShardedQueueManager::for_each_shard);
//!   the results are reassembled in batch order.
//!   [`execute_batch`](ShardedQueueManager::execute_batch) and
//!   [`offer_batch`](ShardedAdmission::offer_batch) are the same body on
//!   one worker.
//!
//! What the fan-out still costs, unpaid: `workers − 1` threads are spawned
//! and joined per call (per batch phase, per round phase, per service
//! phase) — the calling thread is the remaining worker and claims items
//! beside them instead of sleeping until they finish — and every busy
//! shard reads the wall clock twice per call. A worker set that outlives
//! the call is possible under `forbid(unsafe_code)` — per-worker `Mutex`
//! slots built before one scope around the whole run, woken by a
//! generation counter with a bounded spin and then a `Condvar` — and was
//! measured: on `batch_zipf`'s shape at 2 threads on a shared 2-vCPU host
//! it kept every fingerprint but took 33.8–46.6 ms (lower decile of 40
//! runs) against 35.8–38.6 ms spawning per call and 25.7–29.3 ms serial,
//! because two busy workers each ran the engine at about 60 % of its
//! serial speed. So the calls keep spawning.
//!
//! # Determinism contract
//!
//! For any fixed batch,
//! [`execute_batch_parallel`](ShardedQueueManager::execute_batch_parallel)
//! returns the same results vector, leaves every shard in the same state
//! (see [`ShardedQueueManager::state_digest`]) and accumulates the same
//! [`QmStats`](crate::QmStats) as replaying the commands one by one
//! through [`execute`](ShardedQueueManager::execute), at **any** thread
//! count: commands of one shard always run in program order on exactly
//! one worker at a time, shards share no state, and a cross-shard command
//! is a barrier run alone between phases. Only the wall-clock
//! measurements (per-shard busy times) and the steal counter vary with
//! scheduling. Since the serial entry points are the one-worker instance
//! of the same body, the property tests in `tests/parallel_equivalence.rs`
//! pin this contract against the one-by-one replay, and the CI
//! `parallel-determinism` stage diffs `table7 --check` reports across
//! thread counts.
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
//! let mut parallel = ShardedQueueManager::new(QmConfig::small(), 4);
//! let mut replay = ShardedQueueManager::new(QmConfig::small(), 4);
//! let one_by_one: Vec<_> = batch.iter().map(|c| replay.execute(c.clone())).collect();
//! assert_eq!(parallel.execute_batch_parallel(&batch, 4), one_by_one);
//! assert_eq!(parallel.state_digest(), replay.state_digest());
//! ```

use super::{Route, ShardedAdmission, ShardedQueueManager};
use crate::command::{Command, Outcome};
use crate::error::QueueError;
use crate::id::FlowId;
use crate::manager::QueueManager;
use crate::policy::{Admission, DropPolicy, Refusal};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Runs `work` on every item exactly once, spread over at most `workers`
/// OS threads, the caller's among them — the one place this workspace
/// decides how independent per-shard items meet threads (the batch
/// executors, the sharded pipeline and both phases of the streaming
/// service all fan out through it).
///
/// With one worker (or at most one item) the items run inline on the
/// calling thread, in slice order, and nothing is spawned. Otherwise the
/// calling thread and `min(workers, items) − 1` scoped threads beside it
/// pull indices off a shared claim counter, which hands the items out in
/// slice order: sort them heaviest first and a worker that finishes early
/// always claims the heaviest *remaining* item — whole-item work stealing
/// without a deque. Each item's mutex is locked exactly once (the counter
/// assigns unique indices), so it only satisfies the borrow checker; the
/// hand-off itself is lock-free and no worker ever waits on another.
/// Returns the number of steals: claims beyond each worker's first.
///
/// # Panics
///
/// A panic in `work`, on the calling thread or a spawned one, unwinds out
/// of this call once the remaining items have run (the scope joins every
/// worker first); it never hangs.
pub fn for_each_claimed<T: Send>(
    items: &mut [T],
    workers: usize,
    work: impl Fn(&mut T) + Sync,
) -> u64 {
    if workers <= 1 || items.len() <= 1 {
        items.iter_mut().for_each(work);
        return items.len().saturating_sub(1) as u64;
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let claim = AtomicUsize::new(0);
    let steals = AtomicU64::new(0);
    let claim_items = || {
        let mut first = true;
        loop {
            let k = claim.fetch_add(1, Ordering::Relaxed);
            if k >= slots.len() {
                break;
            }
            if !first {
                steals.fetch_add(1, Ordering::Relaxed);
            }
            first = false;
            let mut item = slots[k].lock().expect("each slot is claimed once");
            work(&mut item);
        }
    };
    // The caller is one of the workers: it would otherwise sleep in the
    // scope while a thread spawned in its place did its share.
    thread::scope(|sc| {
        for _ in 1..workers.min(slots.len()) {
            sc.spawn(claim_items);
        }
        claim_items();
    });
    steals.into_inner()
}

impl ShardedQueueManager {
    /// Executes a batch of commands grouped per shard, each phase's
    /// groups spread over up to `threads` workers by
    /// [`for_each_claimed`] (heaviest group first, so idle workers steal
    /// whole groups off a loaded backlog).
    ///
    /// Results come back in input order and are identical to executing
    /// the commands one-by-one through
    /// [`execute`](ShardedQueueManager::execute), and the outcome is
    /// **deterministic across thread counts** (see the
    /// [module docs](self)): within a shard the original order is
    /// preserved on exactly one worker at a time, commands on different
    /// shards touch disjoint state, and a cross-shard command is a
    /// barrier — every pending group runs before it, then it runs alone
    /// on the calling thread.
    ///
    /// Each group's wall-clock cost is added to its shard's
    /// [busy time](ShardedQueueManager::busy_times); a cross-shard
    /// command's cost is charged to both engines, which it serializes.
    /// [`parallel_stats`](ShardedQueueManager::parallel_stats) counts
    /// only batches that could fan out (`threads > 1` on more than one
    /// shard).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn execute_batch_parallel(
        &mut self,
        cmds: &[Command],
        threads: usize,
    ) -> Vec<Result<Outcome, QueueError>> {
        self.begin_batch(threads);
        let mut groups: Vec<Group<(), _>> = self.shards.iter().map(|_| Group::new(())).collect();
        let mut crossed = Vec::new();
        let exec = |qm: &mut QueueManager, _: &mut (), i: usize| qm.execute_ref(&cmds[i]);
        for (i, cmd) in cmds.iter().enumerate() {
            match self.route(cmd) {
                Route::One(s) => groups[s].push(i, 1),
                Route::Two(a, b) => {
                    self.run_pending(&mut groups, threads, exec);
                    let t = Instant::now();
                    crossed.push(self.execute_cross_traced(cmd));
                    let d = t.elapsed();
                    self.busy[a] += d;
                    self.busy[b] += d;
                }
            }
        }
        self.run_pending(&mut groups, threads, exec);
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

    /// One phase of a batch: runs every group's pending positions, in
    /// order, on its own shard through
    /// [`for_each_shard`](ShardedQueueManager::for_each_shard).
    fn run_pending<P: Send, R: Send>(
        &mut self,
        groups: &mut [Group<P, R>],
        threads: usize,
        exec: impl Fn(&mut QueueManager, &mut P, usize) -> R + Sync,
    ) {
        let work = |qm: &mut QueueManager, g: &mut Group<P, R>| {
            for &i in &g.pending {
                g.done.push(exec(qm, &mut g.policy, i));
            }
            g.pending.clear();
            g.weight = 0;
        };
        self.for_each_shard(groups, threads, |g| g.weight, work);
    }
}

/// One shard's share of a batch: its policy (`()` for commands), the
/// batch positions it has yet to run with their summed weight, and the
/// results it has produced, in batch order.
struct Group<P, R> {
    policy: P,
    pending: Vec<usize>,
    weight: u64,
    done: Vec<R>,
}

impl<P, R> Group<P, R> {
    fn new(policy: P) -> Self {
        Group {
            policy,
            pending: Vec::new(),
            weight: 0,
            done: Vec::new(),
        }
    }

    fn push(&mut self, i: usize, weight: u64) {
        self.pending.push(i);
        self.weight += weight;
    }
}

impl<P: DropPolicy + Send> ShardedAdmission<P> {
    /// Offers a batch of arriving packets grouped per shard, the groups
    /// spread over up to `threads` workers by [`for_each_claimed`]
    /// (sorted by *payload bytes*, the better cost proxy for admission
    /// work).
    ///
    /// Results come back in input order and are identical to calling
    /// [`offer`](ShardedAdmission::offer) one arrival at a time, at any
    /// thread count: within a shard the arrival order is preserved and
    /// policy `s` only ever touches engine `s`. Each shard group's
    /// wall-clock cost is added to the engine's
    /// [busy time](ShardedQueueManager::busy_times), so the admission
    /// path is part of the measured per-engine load; steals land in the
    /// engine's [`parallel_stats`](ShardedQueueManager::parallel_stats).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or the engine's shard count differs
    /// from this admission's.
    pub fn offer_batch_parallel(
        &mut self,
        engine: &mut ShardedQueueManager,
        arrivals: &[(FlowId, &[u8])],
        threads: usize,
    ) -> Vec<Result<Admission, Refusal>> {
        assert_eq!(
            self.policies.len(),
            engine.num_shards(),
            "admission and engine shard counts differ"
        );
        engine.begin_batch(threads);
        let mut groups: Vec<_> = self.policies.iter_mut().map(Group::new).collect();
        for (i, &(flow, data)) in arrivals.iter().enumerate() {
            // An empty packet still costs its offer.
            groups[engine.shard_of(flow)].push(i, (data.len() as u64).max(1));
        }
        engine.run_pending(&mut groups, threads, |qm, policy, i| {
            policy.offer(qm, arrivals[i].0, arrivals[i].1)
        });
        let mut done: Vec<_> = groups.into_iter().map(|g| g.done.into_iter()).collect();
        arrivals
            .iter()
            .map(|&(flow, _)| done[engine.shard_of(flow)].next())
            .map(|r| r.expect("every arrival was offered"))
            .collect()
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
        // The reference is the one-by-one replay: the serial batch path
        // is the one-worker instance of the body under test.
        let cmds = mixed_batch();
        let mut replay = ShardedQueueManager::new(cfg(64), 4);
        let expected: Vec<_> = cmds.iter().map(|c| replay.execute(c.clone())).collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let mut par = ShardedQueueManager::new(cfg(64), 4);
            let got = par.execute_batch_parallel(&cmds, threads);
            assert_eq!(got, expected, "threads={threads}");
            assert_eq!(par.stats(), replay.stats(), "threads={threads}");
            assert_eq!(
                par.state_digest(),
                replay.state_digest(),
                "threads={threads}"
            );
            par.verify().unwrap();
        }
    }

    #[test]
    fn for_each_claimed_runs_every_item_exactly_once() {
        for items in [0usize, 1, 5] {
            for workers in [1usize, 2, 8] {
                let mut runs = vec![0u32; items];
                let steals = for_each_claimed(&mut runs, workers, |n| *n += 1);
                assert!(
                    runs.iter().all(|&n| n == 1),
                    "{items} items, {workers} workers"
                );
                assert!(
                    steals >= items.saturating_sub(workers) as u64 && steals < items.max(1) as u64,
                    "{items} items, {workers} workers: {steals} steals"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn for_each_claimed_unwinds_a_panicking_item() {
        let mut items = [0u32, 1, 2, 3, 4];
        for_each_claimed(&mut items, 2, |n| assert_ne!(*n, 2, "item 2 fails"));
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
    fn steals_occur_when_groups_outnumber_workers() {
        // Flows 0..16 hash onto 3 of the 4 shards, so the batch forms 3
        // non-empty groups. With 2 workers at least one group is claimed
        // by a worker that already drained one — a guaranteed steal, on
        // any scheduler: steals = successful claims − workers that
        // claimed at least once ≥ groups − workers.
        let mut e = ShardedQueueManager::new(cfg(256), 4);
        let cmds: Vec<Command> = (0..64u32).map(|f| enqueue_cmd(f % 16, 1, 64)).collect();
        e.execute_batch_parallel(&cmds, 2);
        let ps = e.parallel_stats();
        assert_eq!(ps.parallel_batches, 1);
        assert!(ps.groups >= 3, "flows 0..16 span at least 3 shards");
        assert!(
            ps.steals >= ps.groups - 2,
            "with 2 workers, every group beyond the first two is a steal: {ps:?}"
        );
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
        for threads in [1usize, 2, 3, 4, 8] {
            let mut e2 = ShardedQueueManager::new(cfg(16), 4);
            let mut adm2 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
            let par = adm2.offer_batch_parallel(&mut e2, &arrivals, threads);
            assert_eq!(par, replay, "threads={threads}");
            assert_eq!(e1.stats(), e2.stats(), "threads={threads}");
            assert_eq!(e1.state_digest(), e2.state_digest(), "threads={threads}");
            e2.verify().unwrap();
        }
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
