//! The claim-counter fan-out every threaded path in the workspace runs
//! on, the batch entry points built on it, and the global
//! Longest-Queue-Drop policy over all shards.
//!
//! The sharded engine's shards share no state, so per-shard work can
//! genuinely run on different OS threads. *How* it is spread over threads
//! is decided in exactly one function:
//!
//! * [`for_each_claimed`] — runs a closure once on each of a slice of
//!   independent items: inline at one worker, otherwise on scoped
//!   worker threads that pull item indices off a
//!   **lock-free claim counter**, so a worker that finishes early takes
//!   the next unclaimed item and a pathologically loaded shard never
//!   leaves the others idle. It is the only place `npqm-core` and
//!   `npqm-traffic` spawn a thread (`ci.sh structure` greps for it).
//! * [`ShardedQueueManager::execute_batch_parallel`] /
//!   [`ShardedAdmission::offer_batch_parallel`] — one crate-private
//!   grouped executor groups a batch per shard and hands the groups,
//!   heaviest first, to [`for_each_claimed`]; claims beyond a worker's
//!   first are counted as steals in
//!   [`ParallelStats`](crate::stats::ParallelStats).
//!   [`execute_batch`](ShardedQueueManager::execute_batch) and
//!   [`offer_batch`](ShardedAdmission::offer_batch) are the same body on
//!   one worker.
//! * [`ShardedQueueManager::dequeue_batch_into`] — the same executor
//!   draining a `&[FlowId]` batch into a caller-owned [`BatchDrain`]: one
//!   byte arena per shard, reused across calls, instead of a `Vec` per
//!   served segment.
//! * [`GlobalOccupancy`] — one atomic word per shard holding that shard's
//!   top-of-heap `(flow, bytes)` snapshot. The executor publishes a
//!   shard's top as its group finishes; readers merge the N words into
//!   the globally longest queue without touching any engine.
//! * [`GlobalLqd`] — the shared-buffer Longest Queue Drop of Matsakis
//!   applied across *all* partitions: one global segment budget, and when
//!   an arrival does not fit, complete packets are pushed out of the
//!   longest queue anywhere in the system (never a mid-SAR or mid-service
//!   head) until it does. Shard-local policies can only make the hog pay
//!   when the hog happens to share their shard; the global policy always
//!   can.
//!
//! What the fan-out still costs, unpaid: workers are spawned per call
//! (per batch phase), and every group reads the wall clock twice.
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
use crate::limits::DropReason;
use crate::manager::{QueueManager, SegmentInfo};
use crate::policy::{self, Admission, DropPolicy, PolicyStats, Refusal};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Per-shard longest-queue snapshots, merged on read.
///
/// One atomic word per shard packs that shard's top-of-heap as
/// `(bytes saturated to u32) << 32 | (flow index + 1)`, with `0` meaning
/// "shard is empty". Writers ([`publish`](GlobalOccupancy::publish))
/// never block readers; [`longest`](GlobalOccupancy::longest) merges the
/// N words into the globally longest queue. Byte counts above `u32::MAX`
/// are saturated in the snapshot (they only rank victims; exact counts
/// stay in the engines).
///
/// The index is a *snapshot*, not a live view: it is only as fresh as the
/// last publish. The batch entry points publish each shard's top as its
/// group finishes;
/// [`ShardedQueueManager::refresh_occupancy`] recomputes all of them, and
/// any policy that makes decisions from the index must refresh first.
#[derive(Debug)]
pub struct GlobalOccupancy {
    tops: Vec<AtomicU64>,
}

impl GlobalOccupancy {
    pub(crate) fn new(num_shards: usize) -> Self {
        GlobalOccupancy {
            tops: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn pack(top: Option<(FlowId, u64)>) -> u64 {
        match top {
            None => 0,
            Some((flow, bytes)) => (bytes.min(u32::MAX as u64) << 32) | (flow.index() as u64 + 1),
        }
    }

    fn unpack(word: u64) -> Option<(FlowId, u64)> {
        if word == 0 {
            return None;
        }
        Some((FlowId::new((word as u32) - 1), word >> 32))
    }

    /// Number of per-shard slots.
    pub fn num_shards(&self) -> usize {
        self.tops.len()
    }

    /// Publishes `shard`'s current longest queue (or `None` when empty).
    pub fn publish(&self, shard: usize, top: Option<(FlowId, u64)>) {
        self.tops[shard].store(Self::pack(top), Ordering::Release);
    }

    /// The last published snapshot for `shard`.
    pub fn top(&self, shard: usize) -> Option<(FlowId, u64)> {
        Self::unpack(self.tops[shard].load(Ordering::Acquire))
    }

    /// The longest queue across all shards, as `(shard, flow, bytes)`.
    ///
    /// Ties break toward the lowest shard index, so the merge is a pure
    /// function of the published snapshots.
    pub fn longest(&self) -> Option<(usize, FlowId, u64)> {
        let mut best: Option<(usize, FlowId, u64)> = None;
        for (s, word) in self.tops.iter().enumerate() {
            if let Some((flow, bytes)) = Self::unpack(word.load(Ordering::Acquire)) {
                if best.is_none_or(|(_, _, b)| bytes > b) {
                    best = Some((s, flow, bytes));
                }
            }
        }
        best
    }
}

impl Clone for GlobalOccupancy {
    fn clone(&self) -> Self {
        GlobalOccupancy {
            tops: self
                .tops
                .iter()
                .map(|t| AtomicU64::new(t.load(Ordering::Acquire)))
                .collect(),
        }
    }
}

/// Runs `work` on every item exactly once, spread over at most `workers`
/// scoped OS threads — the one place this workspace decides how
/// independent per-shard items meet threads (the batch executors, the
/// sharded pipeline and both phases of the streaming service all fan out
/// through it).
///
/// With one worker (or at most one item) the items run inline on the
/// calling thread, in slice order, and nothing is spawned. Otherwise
/// `min(workers, items)` scoped threads pull indices off a shared claim
/// counter, which hands the items out in slice order: sort them heaviest
/// first and a worker that finishes early always claims the heaviest
/// *remaining* item — whole-item work stealing without a deque. Each
/// item's mutex is locked exactly once (the counter assigns unique
/// indices), so it only satisfies the borrow checker; the hand-off itself
/// is lock-free and no worker ever waits on another. Returns the number of
/// steals: claims beyond each worker's first.
///
/// # Panics
///
/// A panic in `work` unwinds out of this call once the remaining items
/// have run (the scope joins every worker first); it never hangs.
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
    thread::scope(|sc| {
        for _ in 0..workers.min(slots.len()) {
            sc.spawn(|| {
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
            });
        }
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
    /// Every group also publishes its shard's longest queue into the
    /// [occupancy index](ShardedQueueManager::occupancy) as it finishes.
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
        let mut results: Vec<Option<Result<Outcome, QueueError>>> = vec![None; cmds.len()];
        let mut groups: Vec<Vec<_>> = self.shards.iter().map(|_| Vec::new()).collect();
        let mut unit = vec![(); self.shards.len()];
        // One phase: every pending group, weighed by its command count.
        let mut run = |engine: &mut Self, groups: &mut [Vec<_>]| {
            let exec = |qm: &mut QueueManager, _: &mut (), i: usize| qm.execute_ref(&cmds[i]);
            engine.run_groups(&mut unit, groups, threads, |_| 1, exec);
        };
        for ((i, cmd), slot) in cmds.iter().enumerate().zip(&mut results) {
            match self.route(cmd) {
                Route::One(s) => groups[s].push((i, slot)),
                Route::Two(a, b) => {
                    run(self, &mut groups);
                    let t = Instant::now();
                    let r = self.execute_cross_traced(cmd);
                    let d = t.elapsed();
                    self.busy[a] += d;
                    self.busy[b] += d;
                    *slot = Some(r);
                    for s in [a, b] {
                        let top = self.shards[s].longest_queue();
                        self.occ.publish(s, top);
                    }
                }
            }
        }
        run(self, &mut groups);
        results
            .into_iter()
            .map(|r| r.expect("every command was executed"))
            .collect()
    }

    /// Dequeues one segment per entry of `flows`, grouped per shard and
    /// run by the same executor as
    /// [`execute_batch_parallel`](ShardedQueueManager::execute_batch_parallel),
    /// **lending** the payloads: each served segment is appended to its
    /// home shard's byte arena in `out` instead of becoming a `Vec` of its
    /// own. `out` is caller-owned; its arenas and result slots are cleared
    /// and refilled by every call, so a caller that keeps one
    /// [`BatchDrain`] for a run pays for its high-water mark once.
    ///
    /// Everything else is what the same batch of
    /// [`Command::Dequeue`]s does through `execute_batch_parallel` — and so
    /// what replaying them one by one through
    /// [`execute`](ShardedQueueManager::execute) does: per-position
    /// payload, SOP/EOP flags or error, engine state, statistics, pointer
    /// traffic, trace spans, busy times and the occupancy publish, at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn dequeue_batch_into(&mut self, flows: &[FlowId], threads: usize, out: &mut BatchDrain) {
        self.begin_batch(threads);
        out.arenas.resize_with(self.shards.len(), Vec::new);
        out.arenas.iter_mut().for_each(Vec::clear);
        out.slots.clear();
        out.slots.resize(flows.len(), None);
        out.homes.clear();
        let mut groups: Vec<Vec<_>> = self.shards.iter().map(|_| Vec::new()).collect();
        for ((i, &flow), slot) in flows.iter().enumerate().zip(&mut out.slots) {
            let home = self.shard_of(flow);
            out.homes.push(home);
            groups[home].push((i, slot));
        }
        self.run_groups(
            &mut out.arenas,
            &mut groups,
            threads,
            |_| 1,
            |qm, arena, i| {
                let offset = arena.len();
                qm.dequeue_into(flows[i], arena).map(|info| (offset, info))
            },
        );
    }
}

/// A segment lent by a [`BatchDrain`]: the payload stays in the drain's
/// arena and is valid until the drain's next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LentSegment<'a> {
    /// The segment payload (up to the configured segment size).
    pub data: &'a [u8],
    /// True if this was the first segment of its packet.
    pub sop: bool,
    /// True if this was the last segment of its packet.
    pub eop: bool,
}

/// Caller-owned output of
/// [`ShardedQueueManager::dequeue_batch_into`]: one byte arena per shard
/// and, per batch position, where in its flow's home-shard arena the
/// served segment landed (or the error its dequeue met). Keep one for a
/// run and hand it to every batch: the buffers are reused, so a steady
/// run stops allocating on its read side.
#[derive(Debug, Clone, Default)]
pub struct BatchDrain {
    arenas: Vec<Vec<u8>>,
    /// Per batch position: the home shard of its flow.
    homes: Vec<usize>,
    /// Per batch position: `(offset into the home arena, what landed)`.
    slots: Vec<Option<Result<(usize, SegmentInfo), QueueError>>>,
}

impl BatchDrain {
    /// An empty drain; the first batch sizes it.
    pub fn new() -> Self {
        BatchDrain::default()
    }

    /// Number of positions in the last batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the last batch was empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The outcome of position `i` of the last batch.
    ///
    /// # Errors
    ///
    /// The [`QueueError`] that position's dequeue returned.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a position of the last batch.
    pub fn get(&self, i: usize) -> Result<LentSegment<'_>, QueueError> {
        let (offset, info) = self.slots[i].expect("every position was dequeued")?;
        Ok(LentSegment {
            data: &self.arenas[self.homes[i]][offset..offset + info.len],
            sop: info.sop,
            eop: info.eop,
        })
    }

    /// The outcomes of the last batch, in batch order.
    pub fn iter(&self) -> impl Iterator<Item = Result<LentSegment<'_>, QueueError>> + '_ {
        (0..self.len()).map(|i| self.get(i))
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
        let mut results: Vec<Option<Result<Admission, Refusal>>> = vec![None; arrivals.len()];
        let mut groups: Vec<Vec<_>> = self.policies.iter().map(|_| Vec::new()).collect();
        for ((i, &(flow, _)), slot) in arrivals.iter().enumerate().zip(&mut results) {
            groups[engine.shard_of(flow)].push((i, slot));
        }
        engine.run_groups(
            &mut self.policies,
            &mut groups,
            threads,
            |i| arrivals[i].1.len() as u64,
            |qm, policy, i| policy.offer(qm, arrivals[i].0, arrivals[i].1),
        );
        results
            .into_iter()
            .map(|r| r.expect("every arrival was offered"))
            .collect()
    }
}

/// A buffer-management policy that sees the **whole sharded engine** —
/// every partition at once — instead of a single shard.
///
/// This is the cross-partition analogue of
/// [`DropPolicy`]: [`ShardedAdmission`] adapts any per-shard policy to
/// the interface (each arrival still only consults its home shard), while
/// [`GlobalLqd`] makes genuinely global decisions.
pub trait GlobalDropPolicy {
    /// A short stable name for reports ("global-lqd", ...).
    fn name(&self) -> &str;

    /// Offers one whole packet for admission on `flow`'s home shard,
    /// with eviction decisions drawn from the entire engine.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that applied; victims in
    /// [`Refusal::evicted`] / [`Admission::evicted`] may belong to *any*
    /// shard.
    fn offer_global(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal>;
}

impl<P: DropPolicy> GlobalDropPolicy for ShardedAdmission<P> {
    fn name(&self) -> &str {
        self.policies[0].name()
    }

    fn offer_global(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        self.offer(engine, flow, packet)
    }
}

/// Longest Queue Drop over **all** shards: one shared segment budget,
/// with push-out from the globally longest queue.
///
/// Shard-local policies ([`ShardedAdmission`]) express the
/// partitioned-buffer regime: each engine guards its own memory, and a
/// burst on one partition can drop traffic there while another partition
/// sits empty. `GlobalLqd` expresses the *shared-buffer* regime of the
/// paper's MMS (one data memory behind all engines) on top of the same
/// sharded engine: admission is bounded by a single global budget, and
/// when an arrival does not fit, complete packets are evicted from the
/// longest queue **anywhere in the system** — found through the
/// [`GlobalOccupancy`] snapshot, refreshed before every decision — until
/// it does. Queues whose head is mid-SAR or mid-service are never
/// victims (the shard-local safety rules still hold).
///
/// # Pairing with the engine
///
/// The policy is meant for an engine built with
/// [`ShardedQueueManager::new`] where each shard is configured with the
/// *full* shared buffer and `budget_segments` equals that size: physical
/// space then never binds before the global budget, so this behaves
/// exactly like Matsakis' single shared-memory switch with flows
/// partitioned across engines. On a
/// [`partitioned`](ShardedQueueManager::partitioned) engine it still
/// works, but a full home partition can refuse an arrival that the
/// global budget would admit (reported as an engine refusal).
///
/// # Example
///
/// ```
/// use npqm_core::shard::parallel::{GlobalDropPolicy, GlobalLqd};
/// use npqm_core::shard::ShardedQueueManager;
/// use npqm_core::{FlowId, QmConfig};
///
/// let cfg = QmConfig::builder()
///     .num_flows(16)
///     .num_segments(4)
///     .segment_bytes(64)
///     .build()
///     .unwrap();
/// // Shared-buffer pairing: every shard can hold the whole budget.
/// let mut engine = ShardedQueueManager::new(cfg, 2);
/// let mut lqd = GlobalLqd::new(4, 0);
/// // One flow fills the entire shared budget from its home shard...
/// for _ in 0..4 {
///     lqd.offer_global(&mut engine, FlowId::new(0), &[0u8; 64]).unwrap();
/// }
/// // ...and an arrival homed on the *other* shard still gets in: the
/// // globally longest queue pays, across the partition boundary.
/// let hog_shard = engine.shard_of(FlowId::new(0));
/// let other = (1..16)
///     .map(FlowId::new)
///     .find(|&f| engine.shard_of(f) != hog_shard)
///     .unwrap();
/// let adm = lqd.offer_global(&mut engine, other, &[1u8; 64]).unwrap();
/// assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalLqd {
    budget_segments: u32,
    reserve_segments: u32,
    stats: PolicyStats,
}

impl GlobalLqd {
    /// Creates the policy with a global budget of `budget_segments`
    /// across all shards, keeping `reserve_segments` of it free for
    /// flows with packets mid-assembly.
    pub fn new(budget_segments: u32, reserve_segments: u32) -> Self {
        GlobalLqd {
            budget_segments,
            reserve_segments,
            stats: PolicyStats::default(),
        }
    }

    /// The shared-buffer pairing for `engine`: a budget of one shard's
    /// full segment space (every shard of a
    /// [`ShardedQueueManager::new`]-built engine is configured with the
    /// whole shared buffer).
    pub fn shared(engine: &ShardedQueueManager, reserve_segments: u32) -> Self {
        GlobalLqd::new(engine.shard(0).config().num_segments(), reserve_segments)
    }

    /// Admission/eviction statistics.
    pub const fn stats(&self) -> &PolicyStats {
        &self.stats
    }

    /// The global segment budget.
    pub const fn budget_segments(&self) -> u32 {
        self.budget_segments
    }

    /// The globally longest queue with an evictable head packet.
    ///
    /// Fast path: refresh the occupancy snapshot and take its merged
    /// maximum if evictable. Fallback (the maximum is a mid-SAR or
    /// mid-service hog): a deterministic full scan — shards in index
    /// order, keeping the first queue of maximal byte count.
    fn longest_evictable_global(engine: &mut ShardedQueueManager) -> Option<(usize, FlowId)> {
        engine.refresh_occupancy();
        if let Some((s, flow, _)) = engine.occ.longest() {
            if policy::evictable(&engine.shards[s], flow) {
                return Some((s, flow));
            }
        }
        let mut best: Option<(u64, usize, FlowId)> = None;
        for (s, qm) in engine.shards.iter().enumerate() {
            for f in 0..qm.config().num_flows() {
                let flow = FlowId::new(f);
                if !policy::evictable(qm, flow) {
                    continue;
                }
                let bytes = qm.queue_len_bytes(flow);
                if best.is_none_or(|(b, _, _)| bytes > b) {
                    best = Some((bytes, s, flow));
                }
            }
        }
        best.map(|(_, s, flow)| (s, flow))
    }
}

impl GlobalDropPolicy for GlobalLqd {
    fn name(&self) -> &str {
        "global-lqd"
    }

    fn offer_global(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        let home = engine.shard_of(flow);
        let seg_bytes = engine.shards[home].config().segment_bytes() as usize;
        let needed = packet.len().div_ceil(seg_bytes) as u32;
        if needed + self.reserve_segments > self.budget_segments {
            self.stats.dropped += 1;
            return Err(Refusal::from(DropReason::GlobalReserve));
        }
        let mut admission = Admission::default();
        while engine.used_segments() + needed + self.reserve_segments > self.budget_segments {
            let Some((vs, vf)) = Self::longest_evictable_global(engine) else {
                self.stats.dropped += 1;
                return Err(Refusal {
                    reason: DropReason::GlobalReserve,
                    evicted: admission.evicted,
                });
            };
            let (_segs, bytes) = engine.shards[vs]
                .delete_packet(vf)
                .expect("victim has an evictable head packet");
            self.stats.evicted_packets += 1;
            self.stats.evicted_bytes += bytes as u64;
            admission.evicted.push((vf, bytes));
        }
        match engine.shards[home].enqueue_packet(flow, packet) {
            Ok(()) => {
                self.stats.admitted += 1;
                Ok(admission)
            }
            Err(e) => {
                self.stats.dropped += 1;
                Err(Refusal {
                    reason: DropReason::Engine(e),
                    evicted: admission.evicted,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::manager::SegmentPosition;
    use crate::policy::DynamicThreshold;

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
    fn occupancy_snapshot_publishes_and_merges() {
        let occ = GlobalOccupancy::new(3);
        assert_eq!(occ.longest(), None);
        occ.publish(0, Some((FlowId::new(4), 100)));
        occ.publish(2, Some((FlowId::new(7), 300)));
        assert_eq!(occ.top(1), None);
        assert_eq!(occ.longest(), Some((2, FlowId::new(7), 300)));
        // Ties break toward the lowest shard.
        occ.publish(1, Some((FlowId::new(9), 300)));
        assert_eq!(occ.longest(), Some((1, FlowId::new(9), 300)));
        occ.publish(2, None);
        occ.publish(1, None);
        assert_eq!(occ.longest(), Some((0, FlowId::new(4), 100)));
        // Saturation: byte counts above u32::MAX still rank highest.
        occ.publish(1, Some((FlowId::new(0), u64::MAX)));
        assert_eq!(occ.longest(), Some((1, FlowId::new(0), u32::MAX as u64)));
    }

    #[test]
    fn workers_publish_occupancy_tops() {
        let mut e = ShardedQueueManager::new(cfg(256), 4);
        let cmds: Vec<Command> = (0..32u32).map(|f| enqueue_cmd(f % 16, 2, 100)).collect();
        e.execute_batch_parallel(&cmds, 4);
        // Every shard that holds data published a top.
        for s in 0..4 {
            let holds: u64 = (0..16)
                .map(|f| e.shard(s).queue_len_bytes(FlowId::new(f)))
                .sum();
            if holds > 0 {
                let (_, bytes) = e.occupancy().top(s).expect("loaded shard published");
                assert!(bytes > 0);
            }
        }
    }

    #[test]
    fn global_lqd_respects_reserve_and_refuses_oversize() {
        let mut e = ShardedQueueManager::new(cfg(8), 2);
        let mut lqd = GlobalLqd::new(8, 2);
        assert!(matches!(
            lqd.offer_global(&mut e, FlowId::new(0), &[0u8; 64 * 7]),
            Err(Refusal {
                reason: DropReason::GlobalReserve,
                ..
            })
        ));
        for _ in 0..6 {
            lqd.offer_global(&mut e, FlowId::new(0), &[0u8; 64])
                .unwrap();
        }
        // The 7th would dip into the reserve: push-out keeps it intact.
        lqd.offer_global(&mut e, FlowId::new(1), &[1u8; 64])
            .unwrap();
        assert_eq!(e.used_segments(), 6);
        assert_eq!(lqd.stats().evicted_packets, 1);
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
        lqd.offer_global(&mut e, small, &[1u8; 64]).unwrap();
        assert_eq!(e.used_segments(), 3);
        let adm = lqd
            .offer_global(&mut e, FlowId::new(2), &[2u8; 128])
            .unwrap();
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
        lqd.offer_global(&mut e, other, &[1u8; 64]).unwrap();
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
        let refusal = lqd
            .offer_global(&mut e, FlowId::new(2), &[2u8; 128])
            .unwrap_err();
        assert_eq!(refusal.reason, DropReason::GlobalReserve);
        assert_eq!(refusal.evicted, vec![(other, 64)]);
        e.verify().unwrap();
    }

    #[test]
    fn sharded_admission_is_a_global_drop_policy() {
        let mut e = ShardedQueueManager::new(cfg(64), 2);
        let mut adm = ShardedAdmission::from_fn(2, |_| DynamicThreshold::new(2.0));
        let p: &mut dyn GlobalDropPolicy = &mut adm;
        assert_eq!(p.name(), "dyn-threshold");
        p.offer_global(&mut e, FlowId::new(3), &[3u8; 64]).unwrap();
        assert_eq!(e.stats().enqueues, 1);
    }
}
