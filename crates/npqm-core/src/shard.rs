//! Sharded, batch-executing queue engine.
//!
//! The paper's MMS sustains its 2.5 Gbit/s only because queue management
//! runs as a pipelined hardware unit (§6); one software [`QueueManager`]
//! serializes every command on a single flow table and free list.
//! Multi-engine data-path designs instead *partition flows across
//! independent engines* — each with its own pointer memory, free list
//! and occupancy index — and feed each engine batches of commands so the
//! per-engine working set stays hot.
//!
//! [`ShardedQueueManager`] is that organisation in software:
//!
//! * **N independent shards**, each a full [`QueueManager`] over its own
//!   pointer memory, data memory and free lists;
//! * **stable `FlowId → shard` routing** ([`ShardedQueueManager::shard_of`]),
//!   a multiply-shift hash that is a pure function of the flow id, so a
//!   flow's packets always land in the same engine;
//! * **batched execution** ([`ShardedQueueManager::execute_batch`]): a
//!   `&[Command]` batch is grouped per shard and each group runs
//!   back-to-back on its engine, so pointer-cache locality and the lazy
//!   [`QueueManager::longest_queue`] heap maintenance are amortized
//!   across the batch instead of paid per interleaved command. One
//!   crate-private grouped executor serves commands and admission at any
//!   worker count (see [`parallel`]);
//! * **cross-shard moves/copies**: two-queue commands whose source and
//!   destination hash to different shards act as batch-phase barriers
//!   and transfer the payload between the two data
//!   memories (see [Cross-shard semantics](#cross-shard-semantics));
//! * **per-shard admission** ([`ShardedAdmission`]): one
//!   [`DropPolicy`] instance per shard, so Choudhury–Hahne dynamic
//!   thresholds (or any other policy) apply *shard-locally* against each
//!   engine's own buffer — exactly the partitioned-buffer regime of
//!   multi-engine hardware;
//! * **independent verification** ([`ShardedQueueManager::verify`]): every
//!   shard's structural invariants are checked in isolation, then
//!   cross-shard conservation is asserted on top (flow locality, exact
//!   partition of the aggregate segment/packet spaces, aggregate byte
//!   occupancy).
//!
//! # Throughput model
//!
//! Batch execution accumulates per-shard **busy time**
//! ([`ShardedQueueManager::busy_times`]): the wall-clock spent executing
//! each shard's command groups. Since the shards share no state, N shards
//! model N engines running in parallel; the sustained rate of the
//! composite is `work / critical_path` where
//! [`critical_path`](ShardedQueueManager::critical_path) is the *busiest*
//! shard's time. This is the same modeling convention the IXP1200 model
//! uses for its "six engines" column (Table 2): per-engine cost is
//! measured, aggregate throughput is derived from the slowest engine.
//! [`serial_time`](ShardedQueueManager::serial_time) (the sum) is what a
//! single serialized engine would pay for the same work.
//!
//! # Cross-shard semantics
//!
//! Within one shard, `Move`/`Copy` keep their O(1)/O(size) pointer
//! semantics. Across shards each engine owns a private data memory, so:
//!
//! * **copy** reads the source head packet
//!   ([`QueueManager::peek_packet_into`]) and enqueues the bytes in the
//!   destination shard (capacity failures roll back, never tearing);
//! * **move** reserves destination capacity first, then dequeues from the
//!   source and enqueues in the destination. An open destination tail is
//!   rejected with [`QueueError::SarProtocol`] exactly as in
//!   [`QueueManager::move_packet`]; a mid-service source head is rejected
//!   with [`QueueError::PacketInService`] *unconditionally* — **stricter
//!   than the in-shard rule**, which permits it when the destination is
//!   empty. In-shard, the packet record (and its `started` flag) moves
//!   intact; across shards the payload is re-enqueued as a fresh packet,
//!   which would re-frame the remainder of a partially-served packet as a
//!   whole frame. A trace containing such a move can therefore succeed
//!   or fail depending on how its flows hash across shards.
//!
//! Because the payload physically crosses data memories, cross-shard
//! transfers are accounted as the traffic each engine really performed:
//! the source engine counts a dequeue (with `bytes_out`), the destination
//! counts enqueues (with `bytes_in`), a cross-shard copy counts a read —
//! and `moves` is *not* incremented. Aggregated [`ShardedQueueManager::stats`]
//! for a trace with cross-shard transfers will differ from the same trace
//! on one engine, by design.
//!
//! # Example
//!
//! ```
//! use npqm_core::shard::ShardedQueueManager;
//! use npqm_core::manager::SegmentPosition;
//! use npqm_core::{Command, FlowId, QmConfig};
//!
//! let mut engine = ShardedQueueManager::new(QmConfig::small(), 4);
//! let batch: Vec<Command> = (0..8)
//!     .map(|i| Command::Enqueue {
//!         flow: FlowId::new(i),
//!         data: vec![i as u8; 64],
//!         pos: SegmentPosition::Only,
//!     })
//!     .collect();
//! let results = engine.execute_batch(&batch);
//! assert!(results.iter().all(Result::is_ok));
//! engine.verify().unwrap();
//! assert_eq!(engine.stats().enqueues, 8);
//! ```

use crate::check::{InvariantReport, InvariantViolation};
use crate::command::{Command, Outcome};
use crate::config::QmConfig;
use crate::error::QueueError;
use crate::id::FlowId;
use crate::manager::QueueManager;
use crate::policy::{Admission, DropPolicy, Refusal};
use crate::ptrmem::PtrMemCounters;
use crate::stats::{ParallelStats, QmStats};
use crate::timing::stream::{CrossBarrier, EngineTrace};
use std::time::{Duration, Instant};

pub mod parallel;

/// Where a command executes: one shard, or two distinct shards.
enum Route {
    One(usize),
    Two(usize, usize),
}

/// A sharded queue engine: N independent [`QueueManager`]s with stable
/// flow routing and batched command execution.
///
/// See the [module documentation](self) for the design and the
/// throughput model.
#[derive(Debug, Clone)]
pub struct ShardedQueueManager {
    shards: Vec<QueueManager>,
    busy: Vec<Duration>,
    /// Accounting for the parallel batch executor.
    pstats: ParallelStats,
    /// Cross-shard barriers recorded while tracing, until the next
    /// [`crate::timing::MemoryChannels::charge_engine`].
    trace_barriers: Vec<CrossBarrier>,
    /// The packet a cross-shard copy carries between two data memories.
    carry: Vec<u8>,
}

impl ShardedQueueManager {
    /// Creates `num_shards` engines, each configured with `per_shard`.
    ///
    /// The flow-id space is shared: every shard allocates the full queue
    /// table, but [routing](ShardedQueueManager::shard_of) guarantees a
    /// flow's traffic only ever touches its home shard.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(per_shard: QmConfig, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        ShardedQueueManager {
            shards: (0..num_shards)
                .map(|_| QueueManager::new(per_shard))
                .collect(),
            busy: vec![Duration::ZERO; num_shards],
            pstats: ParallelStats::default(),
            trace_barriers: Vec::new(),
            carry: Vec::new(),
        }
    }

    /// Enables or disables memory-access tracing on every shard (see
    /// [`QueueManager::set_tracing`]; consumed by
    /// [`crate::timing::MemoryChannels::charge_engine`]). Tracing
    /// records — it never changes results, state or counters. Toggling
    /// discards any recorded-but-uncharged trace.
    pub fn set_tracing(&mut self, on: bool) {
        for qm in &mut self.shards {
            qm.set_tracing(on);
        }
        self.trace_barriers.clear();
    }

    /// Whether memory-access tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.shards[0].tracing()
    }

    /// Drains the recorded engine trace: the cross-shard barriers, then
    /// one cut of every shard. The trace is a pure function of the
    /// executed commands and their per-shard order — identical at any
    /// worker count and under one-by-one
    /// [`execute`](ShardedQueueManager::execute).
    pub(crate) fn take_trace(&mut self) -> EngineTrace {
        EngineTrace {
            barriers: std::mem::take(&mut self.trace_barriers),
            rest: self
                .shards
                .iter_mut()
                .map(QueueManager::cut_trace)
                .collect(),
        }
    }

    /// Pointer-memory access counters aggregated over all shards (ZBT
    /// SRAM traffic). The sharded [`verify`](ShardedQueueManager::verify)
    /// proves this equals the sum of the per-shard counters carried in
    /// each shard's [`InvariantReport`].
    pub fn ptr_counters(&self) -> PtrMemCounters {
        let mut acc = PtrMemCounters::default();
        for qm in &self.shards {
            acc.absorb(&qm.ptr_counters());
        }
        acc
    }

    /// Creates `num_shards` engines that together hold `total`'s data
    /// memory: each shard gets `num_segments / num_shards` segments (and
    /// as many packet records), with flow count and segment size
    /// unchanged.
    ///
    /// This is the configuration to use when comparing shard counts at
    /// constant aggregate buffer, as `table7` does.
    ///
    /// # Errors
    ///
    /// [`QueueError::InvalidConfig`] if the per-shard segment count would
    /// be zero.
    pub fn partitioned(total: QmConfig, num_shards: usize) -> Result<Self, QueueError> {
        if num_shards == 0 {
            return Err(QueueError::InvalidConfig {
                what: "need at least one shard",
            });
        }
        let per = total.num_segments() / num_shards as u32;
        let cfg = QmConfig::builder()
            .num_flows(total.num_flows())
            .num_segments(per)
            .segment_bytes(total.segment_bytes())
            .freelist_discipline(total.freelist_discipline())
            .build()?;
        Ok(ShardedQueueManager::new(cfg, num_shards))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// A fixed offset added to the flow id before mixing. SplitMix64
    /// pins 0 to 0 and still leaves the first few ids — which under a
    /// Zipf mix carry most of the load — unevenly reduced; this constant
    /// was chosen (offline, once) so the head of a skewed mix spreads
    /// across 2, 4 and 8 shards. Changing it re-partitions every flow.
    const ROUTE_SEED: u64 = 0xB867_FB5C_DF08_314E;

    /// The shard that owns `flow`.
    ///
    /// A stable multiply-shift hash (seeded SplitMix64 finalizer, then a
    /// multiply-shift reduction of the high hash bits): a pure function
    /// of the flow id and the shard count, identical across runs and
    /// platforms, so traces replay onto the same partitioning.
    pub fn shard_of(&self, flow: FlowId) -> usize {
        let mut h = (flow.index() as u64).wrapping_add(Self::ROUTE_SEED);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        // Multiply-shift maps the high hash bits onto 0..num_shards
        // without modulo bias.
        (((h >> 32) * self.shards.len() as u64) >> 32) as usize
    }

    /// Immutable access to shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_shards`.
    pub fn shard(&self, idx: usize) -> &QueueManager {
        &self.shards[idx]
    }

    /// Mutable access to shard `idx` (e.g. for a scheduler draining it).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_shards`.
    pub fn shard_mut(&mut self, idx: usize) -> &mut QueueManager {
        &mut self.shards[idx]
    }

    /// Mutable access to the shard owning `flow`.
    pub fn shard_for_mut(&mut self, flow: FlowId) -> &mut QueueManager {
        let s = self.shard_of(flow);
        &mut self.shards[s]
    }

    /// Mutable access to all shards at once, for callers that drive the
    /// engines from their own threads (each element is an independent
    /// engine; the slice can be split and the pieces sent to different
    /// workers). The per-shard [busy times](ShardedQueueManager::busy_times)
    /// are *not* maintained through this access path.
    pub fn shards_mut(&mut self) -> &mut [QueueManager] {
        &mut self.shards
    }

    /// Accounting of batches that could fan out (`threads > 1` on more
    /// than one shard): phases, groups and work-steal events. Steal
    /// counts depend on OS scheduling and are not deterministic;
    /// everything the executor *computes* is.
    pub fn parallel_stats(&self) -> ParallelStats {
        self.pstats
    }

    /// Segments currently linked into queues, summed over all shards.
    pub fn used_segments(&self) -> u32 {
        self.shards
            .iter()
            .map(|qm| qm.config().num_segments() - qm.free_segments())
            .sum()
    }

    /// A deterministic fingerprint of the whole engine: every shard's
    /// [`crate::check::state_digest`] folded together in shard order.
    /// Equal digests mean byte-identical queue contents, free-space
    /// accounting and operation counters — the equality the
    /// parallel-equivalence property tests and the CI determinism gate
    /// assert between parallel and serial execution.
    pub fn state_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(crate::check::FNV_OFFSET_BASIS, |h, qm| {
                crate::check::fnv1a_fold(h, crate::check::state_digest(qm))
            })
    }

    /// Per-shard busy time accumulated by batch execution
    /// ([`execute_batch`](ShardedQueueManager::execute_batch) and
    /// [`ShardedAdmission::offer_batch`]).
    pub fn busy_times(&self) -> &[Duration] {
        &self.busy
    }

    /// The busiest shard's accumulated busy time — the critical path of N
    /// engines running in parallel (see the module docs).
    pub fn critical_path(&self) -> Duration {
        self.busy.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// Total busy time across all shards — what one serialized engine
    /// would pay for the same work.
    pub fn serial_time(&self) -> Duration {
        self.busy.iter().sum()
    }

    /// Aggregated operation statistics over all shards.
    pub fn stats(&self) -> QmStats {
        let mut acc = QmStats::default();
        for s in &self.shards {
            acc.absorb(s.stats());
        }
        acc
    }

    /// Free segments summed over all shards.
    pub fn free_segments(&self) -> u32 {
        self.shards.iter().map(QueueManager::free_segments).sum()
    }

    /// Payload bytes currently queued, summed over all shards and flows.
    pub fn queued_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|qm| {
                (0..qm.config().num_flows())
                    .map(|f| qm.queue_len_bytes(FlowId::new(f)))
                    .sum::<u64>()
            })
            .sum()
    }

    fn route(&self, cmd: &Command) -> Route {
        let a = self.shard_of(cmd.primary_flow());
        match cmd.secondary_flow() {
            Some(dst) => {
                let b = self.shard_of(dst);
                if a == b {
                    Route::One(a)
                } else {
                    Route::Two(a, b)
                }
            }
            None => Route::One(a),
        }
    }

    /// Executes one command, routed to the owning shard (two-queue
    /// commands whose queues live in different shards take the
    /// [cross-shard path](self#cross-shard-semantics)).
    ///
    /// Single-command execution is not timed; only the batch entry points
    /// accumulate [busy time](ShardedQueueManager::busy_times).
    ///
    /// # Errors
    ///
    /// Propagates the underlying operation's [`QueueError`].
    pub fn execute(&mut self, cmd: Command) -> Result<Outcome, QueueError> {
        match self.route(&cmd) {
            Route::One(s) => self.shards[s].execute_ref(&cmd),
            Route::Two(..) => self.execute_cross_traced(&cmd),
        }
    }

    /// [`execute_batch_parallel`](ShardedQueueManager::execute_batch_parallel)
    /// on one worker: every group runs inline on the calling thread, in
    /// shard order, and nothing is spawned, locked or sorted.
    pub fn execute_batch(&mut self, cmds: &[Command]) -> Vec<Result<Outcome, QueueError>> {
        self.execute_batch_parallel(cmds, 1)
    }

    /// Whether a batch on `threads` workers can leave the calling thread
    /// (the only batches [`ParallelStats`] counts).
    fn fans_out(&self, threads: usize) -> bool {
        threads > 1 && self.shards.len() > 1
    }

    /// What every batch entry point does first: reject zero workers and
    /// count the batch if it can fan out.
    pub(crate) fn begin_batch(&mut self, threads: usize) {
        assert!(threads > 0, "need at least one worker thread");
        if self.fans_out(threads) {
            self.pstats.parallel_batches += 1;
        }
    }

    /// The one grouped executor behind all four batch entry points: runs
    /// every non-empty group back-to-back on its own engine (with its
    /// shard's `states` entry — `()` for commands, the shard's
    /// [`DropPolicy`] for admission) and times it into the shard's busy
    /// time. A group is a list of `(batch
    /// position, result slot)` pairs, so results land in batch order as
    /// they are produced; groups are left empty. On more than one worker
    /// the groups are handed out heaviest first (by summed `weight`, ties
    /// toward the lower shard).
    pub(crate) fn run_groups<St: Send, R: Send>(
        &mut self,
        states: &mut [St],
        groups: &mut [Vec<(usize, &mut Option<R>)>],
        threads: usize,
        weight: impl Fn(usize) -> u64,
        work: impl Fn(&mut QueueManager, &mut St, usize) -> R + Sync,
    ) {
        struct Group<'a, 'r, St, R> {
            shard: usize,
            jobs: &'a mut Vec<(usize, &'r mut Option<R>)>,
            qm: &'a mut QueueManager,
            state: &'a mut St,
            busy: &'a mut Duration,
        }
        let counted = self.fans_out(threads);
        let mut items: Vec<Group<'_, '_, St, R>> = self
            .shards
            .iter_mut()
            .zip(&mut self.busy)
            .zip(states)
            .zip(groups)
            .enumerate()
            .filter(|(_, (_, jobs))| !jobs.is_empty())
            .map(|(shard, (((qm, busy), state), jobs))| Group {
                shard,
                jobs,
                qm,
                state,
                busy,
            })
            .collect();
        if items.is_empty() {
            return;
        }
        if threads > 1 {
            // The claim counter hands items out in slice order, so the
            // heaviest remaining group is always the next one claimed.
            items.sort_by_cached_key(|g| {
                let w: u64 = g.jobs.iter().map(|&(i, _)| weight(i)).sum();
                (std::cmp::Reverse(w), g.shard)
            });
        }
        let steals = parallel::for_each_claimed(&mut items, threads, |g| {
            let t = Instant::now();
            for (i, slot) in g.jobs.drain(..) {
                *slot = Some(work(g.qm, g.state, i));
            }
            *g.busy += t.elapsed();
        });
        if counted {
            self.pstats.phases += 1;
            self.pstats.groups += items.len() as u64;
            self.pstats.steals += steals;
        }
    }

    /// Executes a cross-shard command, recording its two-engine barrier
    /// when tracing is enabled: both engines' logs are cut before the
    /// command and again after it, and the [`CrossBarrier`] tells the
    /// memory channels to synchronize both clocks after charging them.
    pub(crate) fn execute_cross_traced(&mut self, cmd: &Command) -> Result<Outcome, QueueError> {
        let (a, b) = match self.route(cmd) {
            Route::Two(a, b) => (a, b),
            Route::One(_) => unreachable!("cross execution requires two shards"),
        };
        if !self.tracing() {
            return self.execute_cross(cmd);
        }
        let before = [a, b].map(|s| self.shards[s].cut_trace());
        let r = self.execute_cross(cmd);
        let during = [a, b].map(|s| self.shards[s].cut_trace());
        self.trace_barriers.push(CrossBarrier {
            a,
            b,
            before,
            during,
        });
        r
    }

    /// Executes a two-queue command whose queues live in different shards.
    fn execute_cross(&mut self, cmd: &Command) -> Result<Outcome, QueueError> {
        match *cmd {
            Command::Move { src, dst } => {
                self.move_across(src, dst)?;
                Ok(Outcome::Done)
            }
            Command::Copy { src, dst } => {
                self.copy_across(src, dst)?;
                Ok(Outcome::Done)
            }
            Command::OverwriteAndMove { src, dst, ref data } => {
                let s = self.shard_of(src);
                self.shards[s].overwrite_head(src, data)?;
                self.move_across(src, dst)?;
                Ok(Outcome::Done)
            }
            Command::OverwriteLenAndMove { src, dst, new_len } => {
                let s = self.shard_of(src);
                self.shards[s].overwrite_head_len(src, new_len)?;
                self.move_across(src, dst)?;
                Ok(Outcome::Done)
            }
            _ => unreachable!("route() yields Two only for two-queue commands"),
        }
    }

    /// Rejects out-of-range flows, charging the error to `shard`.
    fn check_flow_on(&mut self, shard: usize, flow: FlowId) -> Result<(), QueueError> {
        let num_flows = self.shards[shard].config().num_flows();
        if flow.index() >= num_flows {
            self.shards[shard].stats.errors += 1;
            return Err(QueueError::UnknownFlow { flow, num_flows });
        }
        Ok(())
    }

    /// Moves the head packet of `src` into `dst`'s shard.
    ///
    /// Destination capacity is reserved up front so the dequeue can never
    /// strand the packet; payload bytes are re-segmented into the
    /// destination engine's data memory. Mid-service source heads are
    /// rejected unconditionally (stricter than the in-shard rule — see
    /// the [module docs](self#cross-shard-semantics)).
    fn move_across(&mut self, src: FlowId, dst: FlowId) -> Result<(), QueueError> {
        let si = self.shard_of(src);
        let di = self.shard_of(dst);
        self.check_flow_on(si, src)?;
        self.check_flow_on(di, dst)?;
        let fail = |shards: &mut Vec<QueueManager>, at: usize, e| {
            shards[at].stats.errors += 1;
            Err(e)
        };
        if self.shards[si].complete_packets(src) == 0 {
            return fail(&mut self.shards, si, QueueError::QueueEmpty { flow: src });
        }
        if self.shards[si].head_in_service(src) {
            // The remainder of a partially-served packet re-enqueued in
            // another engine would be framed as a whole packet — exactly
            // the torn-frame class move_packet's in-shard rules prevent.
            return fail(
                &mut self.shards,
                si,
                QueueError::PacketInService { flow: src },
            );
        }
        let d = &self.shards[di];
        if d.queue_len_packets(dst) != d.complete_packets(dst) {
            // Destination tail is open (mid-SAR).
            return fail(
                &mut self.shards,
                di,
                QueueError::SarProtocol {
                    flow: dst,
                    expected_start: false,
                },
            );
        }
        let bytes = self.shards[si]
            .head_packet_bytes(src)
            .expect("complete head packet checked above") as usize;
        let seg_bytes = self.shards[di].config().segment_bytes() as usize;
        let needed = bytes.div_ceil(seg_bytes) as u32;
        if self.shards[di].free_segments() < needed {
            return fail(&mut self.shards, di, QueueError::OutOfSegments);
        }
        if self.shards[di].free_packet_records() == 0 {
            return fail(&mut self.shards, di, QueueError::OutOfPacketRecords);
        }
        let pkt = self.shards[si]
            .dequeue_packet(src)
            .expect("complete head packet checked above");
        self.shards[di]
            .enqueue_packet(dst, &pkt)
            .expect("destination capacity reserved above");
        Ok(())
    }

    /// Copies the head packet of `src` into `dst`'s shard.
    fn copy_across(&mut self, src: FlowId, dst: FlowId) -> Result<(), QueueError> {
        let si = self.shard_of(src);
        let di = self.shard_of(dst);
        self.check_flow_on(si, src)?;
        self.check_flow_on(di, dst)?;
        self.carry.clear();
        self.shards[si].peek_packet_into(src, &mut self.carry)?;
        // enqueue_packet rejects an open destination tail (SarProtocol on
        // the First chunk) and rolls back on mid-packet exhaustion, so a
        // failed copy never leaves a torn packet behind.
        self.shards[di].enqueue_packet(dst, &self.carry)
    }

    /// Verifies every shard independently, then the cross-shard
    /// conservation invariants:
    ///
    /// 1. each shard passes the full [`crate::check::verify`] pass;
    /// 2. **flow locality** — no flow holds data outside the shard
    ///    [`shard_of`](ShardedQueueManager::shard_of) assigns it to;
    /// 3. **aggregate partition** — used + free segments (and packet
    ///    records) summed over shards exactly cover the aggregate spaces;
    /// 4. **byte conservation** — the payload bytes proven by the
    ///    per-shard walks sum to the engine-wide queue-table occupancy;
    /// 5. **pointer-traffic conservation** — the per-shard
    ///    [`PtrMemCounters`] carried in each shard's report sum to the
    ///    engine-wide [`ptr_counters`](ShardedQueueManager::ptr_counters)
    ///    aggregate, so memory-derived cost attributions always account
    ///    for every pointer access exactly once.
    ///
    /// # Errors
    ///
    /// The first violated invariant, prefixed with the shard index.
    pub fn verify(&self) -> Result<ShardedInvariantReport, InvariantViolation> {
        let mut report = ShardedInvariantReport::default();
        for (s, qm) in self.shards.iter().enumerate() {
            let r = qm.verify().map_err(|v| InvariantViolation {
                what: format!("shard {s}: {}", v.what),
            })?;
            report.segments_used += r.segments_used;
            report.segments_free += r.segments_free;
            report.packets_used += r.packets_used;
            report.packets_free += r.packets_free;
            report.payload_bytes += r.payload_bytes;
            report.ptr.absorb(&r.ptr);
            report.shards.push(r);
            for f in 0..qm.config().num_flows() {
                let flow = FlowId::new(f);
                if qm.queue_len_segments(flow) > 0 && self.shard_of(flow) != s {
                    return Err(InvariantViolation {
                        what: format!(
                            "shard {s}: {flow} holds data but its home shard is {}",
                            self.shard_of(flow)
                        ),
                    });
                }
            }
        }
        let total: u64 = self
            .shards
            .iter()
            .map(|qm| qm.config().num_segments() as u64)
            .sum();
        if report.segments_used as u64 + report.segments_free as u64 != total {
            return Err(InvariantViolation {
                what: format!(
                    "aggregate segment space not conserved: {} used + {} free != {total}",
                    report.segments_used, report.segments_free
                ),
            });
        }
        if report.packets_used as u64 + report.packets_free as u64 != total {
            return Err(InvariantViolation {
                what: format!(
                    "aggregate packet space not conserved: {} used + {} free != {total}",
                    report.packets_used, report.packets_free
                ),
            });
        }
        if report.payload_bytes != self.queued_bytes() {
            return Err(InvariantViolation {
                what: format!(
                    "aggregate bytes not conserved: walks found {} but queue tables hold {}",
                    report.payload_bytes,
                    self.queued_bytes()
                ),
            });
        }
        if report.ptr != self.ptr_counters() {
            return Err(InvariantViolation {
                what: format!(
                    "pointer traffic not conserved: per-shard reports sum to {} accesses \
                     but the engine aggregate is {}",
                    report.ptr.total(),
                    self.ptr_counters().total()
                ),
            });
        }
        Ok(report)
    }
}

/// Summary of a successful [`ShardedQueueManager::verify`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardedInvariantReport {
    /// Per-shard reports, indexed by shard.
    pub shards: Vec<InvariantReport>,
    /// Segments linked into queues, summed over shards.
    pub segments_used: u32,
    /// Segments on free lists, summed over shards.
    pub segments_free: u32,
    /// Packet records linked into queues, summed over shards.
    pub packets_used: u32,
    /// Packet records on free lists, summed over shards.
    pub packets_free: u32,
    /// Queued payload bytes proven by the walks, summed over shards.
    pub payload_bytes: u64,
    /// Pointer-memory accesses summed over the per-shard reports, and
    /// proven equal to [`ShardedQueueManager::ptr_counters`].
    pub ptr: PtrMemCounters,
}

/// Per-shard buffer-management admission: one [`DropPolicy`] instance per
/// shard, applied against that shard's engine only.
///
/// This gives shard-local drop decisions — e.g. Choudhury–Hahne
/// [`DynamicThreshold`](crate::policy::DynamicThreshold) computed against
/// each shard's *own* free space, the partitioned-buffer regime of
/// multi-engine hardware.
///
/// # Example
///
/// ```
/// use npqm_core::policy::DynamicThreshold;
/// use npqm_core::shard::{ShardedAdmission, ShardedQueueManager};
/// use npqm_core::{FlowId, QmConfig};
///
/// let mut engine = ShardedQueueManager::new(QmConfig::small(), 2);
/// let mut adm = ShardedAdmission::from_fn(2, |_| DynamicThreshold::new(2.0));
/// adm.offer(&mut engine, FlowId::new(7), &[1u8; 64]).unwrap();
/// assert_eq!(engine.stats().enqueues, 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedAdmission<P> {
    policies: Vec<P>,
}

impl<P: DropPolicy> ShardedAdmission<P> {
    /// Builds one policy per shard with `make(shard_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn from_fn(num_shards: usize, make: impl FnMut(usize) -> P) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        ShardedAdmission {
            policies: (0..num_shards).map(make).collect(),
        }
    }

    /// Number of per-shard policies.
    pub fn num_shards(&self) -> usize {
        self.policies.len()
    }

    /// The policy guarding shard `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= num_shards`.
    pub fn policy(&self, idx: usize) -> &P {
        &self.policies[idx]
    }

    /// Offers one packet for admission on `flow`'s home shard (untimed;
    /// use [`offer_batch`](ShardedAdmission::offer_batch) to accumulate
    /// busy time).
    ///
    /// # Errors
    ///
    /// The shard policy's [`Refusal`]; evictions it reports concern flows
    /// of the same shard.
    ///
    /// # Panics
    ///
    /// Panics if `engine` has a different shard count than this admission.
    pub fn offer(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        assert_eq!(
            self.policies.len(),
            engine.num_shards(),
            "admission and engine shard counts differ"
        );
        let s = engine.shard_of(flow);
        self.policies[s].offer(&mut engine.shards[s], flow, packet)
    }

    /// [`offer_batch_parallel`](ShardedAdmission::offer_batch_parallel)
    /// on one worker: every shard group runs inline on the calling
    /// thread, in shard order.
    ///
    /// # Panics
    ///
    /// Panics if `engine` has a different shard count than this admission.
    pub fn offer_batch(
        &mut self,
        engine: &mut ShardedQueueManager,
        arrivals: &[(FlowId, &[u8])],
    ) -> Vec<Result<Admission, Refusal>>
    where
        P: Send,
    {
        self.offer_batch_parallel(engine, arrivals, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn per_shard_digests_compose_to_the_engine_digest() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        for f in 0..16u32 {
            let _ = e.execute(enqueue_cmd(f, f as u8, 40));
        }
        let folded = (0..e.num_shards()).fold(crate::check::FNV_OFFSET_BASIS, |h, s| {
            crate::check::fnv1a_fold(h, crate::check::state_digest(e.shard(s)))
        });
        assert_eq!(folded, e.state_digest());
        for s in 0..e.num_shards() {
            e.shard(s)
                .verify()
                .expect("each shard verifies in isolation");
        }
    }

    #[test]
    fn routing_is_stable_and_total() {
        let e = ShardedQueueManager::new(cfg(64), 4);
        for f in 0..1000u32 {
            let s = e.shard_of(FlowId::new(f));
            assert!(s < 4);
            assert_eq!(s, e.shard_of(FlowId::new(f)), "hash must be stable");
        }
        // The popular (low-id) flows of a Zipf mix must spread out.
        let low: Vec<usize> = (0..4u32).map(|f| e.shard_of(FlowId::new(f))).collect();
        let mut distinct = low.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() >= 3,
            "flows 0..4 cluster: {low:?} — pick a better mix constant"
        );
    }

    #[test]
    fn single_shard_matches_dense_engine() {
        let mut sharded = ShardedQueueManager::new(cfg(64), 1);
        let mut dense = QueueManager::new(cfg(64));
        let cmds = vec![
            enqueue_cmd(1, 7, 100),
            enqueue_cmd(2, 8, 64),
            Command::Move {
                src: FlowId::new(1),
                dst: FlowId::new(2),
            },
            Command::Dequeue {
                flow: FlowId::new(2),
            },
            Command::Dequeue {
                flow: FlowId::new(3),
            }, // error: empty
        ];
        let batch = sharded.execute_batch(&cmds);
        let serial: Vec<_> = cmds.into_iter().map(|c| dense.execute(c)).collect();
        assert_eq!(batch, serial);
        assert_eq!(&sharded.stats(), dense.stats());
        sharded.verify().unwrap();
    }

    #[test]
    fn batch_matches_one_by_one_across_shards() {
        let mut batched = ShardedQueueManager::new(cfg(64), 4);
        let mut serial = ShardedQueueManager::new(cfg(64), 4);
        let mut cmds = Vec::new();
        for f in 0..16u32 {
            cmds.push(enqueue_cmd(f, f as u8, 70 + f as usize));
        }
        for f in 0..16u32 {
            cmds.push(Command::Move {
                src: FlowId::new(f),
                dst: FlowId::new((f + 5) % 16),
            });
        }
        for f in 0..16u32 {
            cmds.push(Command::Dequeue {
                flow: FlowId::new((f + 5) % 16),
            });
        }
        let a = batched.execute_batch(&cmds);
        let b: Vec<_> = cmds.into_iter().map(|c| serial.execute(c)).collect();
        assert_eq!(a, b);
        assert_eq!(batched.stats(), serial.stats());
        batched.verify().unwrap();
        serial.verify().unwrap();
    }

    #[test]
    fn cross_shard_move_transfers_payload() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        // Find two flows on different shards.
        let src = FlowId::new(0);
        let dst = (1..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != e.shard_of(src))
            .expect("16 flows over 4 shards must straddle");
        let pkt: Vec<u8> = (0..150).map(|i| i as u8).collect();
        e.shard_for_mut(src).enqueue_packet(src, &pkt).unwrap();
        e.execute(Command::Move { src, dst }).unwrap();
        assert!(e.shard(e.shard_of(src)).is_empty(src));
        assert_eq!(e.shard_for_mut(dst).dequeue_packet(dst).unwrap(), pkt);
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_copy_keeps_source() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = (1..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != e.shard_of(src))
            .unwrap();
        e.shard_for_mut(src).enqueue_packet(src, b"mirror").unwrap();
        e.execute(Command::Copy { src, dst }).unwrap();
        assert_eq!(e.shard_for_mut(src).dequeue_packet(src).unwrap(), b"mirror");
        assert_eq!(e.shard_for_mut(dst).dequeue_packet(dst).unwrap(), b"mirror");
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_move_rejects_open_destination_and_reserves_capacity() {
        let mut e = ShardedQueueManager::new(cfg(4), 4);
        let src = FlowId::new(0);
        let dst = (1..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != e.shard_of(src))
            .unwrap();
        e.shard_for_mut(src)
            .enqueue_packet(src, &[1u8; 100])
            .unwrap();
        // Open the destination queue mid-SAR: the move must be refused.
        e.shard_for_mut(dst)
            .enqueue(dst, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        assert!(matches!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::SarProtocol { .. })
        ));
        // Close it but exhaust the destination shard: still refused, and
        // the source keeps its packet.
        e.shard_for_mut(dst)
            .enqueue(dst, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        e.shard_for_mut(dst)
            .enqueue(dst, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
        e.shard_for_mut(dst)
            .enqueue(dst, &[9u8; 64], SegmentPosition::Last)
            .unwrap();
        assert_eq!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::OutOfSegments)
        );
        assert_eq!(
            e.shard(e.shard_of(src)).queue_len_packets(src),
            1,
            "failed move must not strand the packet"
        );
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_move_rejects_mid_service_head() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = (1..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != e.shard_of(src))
            .unwrap();
        e.shard_for_mut(src)
            .enqueue_packet(src, &[1u8; 130])
            .unwrap();
        e.shard_for_mut(src).dequeue(src).unwrap(); // head mid-service
        assert!(matches!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::PacketInService { .. })
        ));
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_fused_overwrite_and_move() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = (1..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != e.shard_of(src))
            .unwrap();
        e.shard_for_mut(src).enqueue_packet(src, b"xxxx").unwrap();
        e.execute(Command::OverwriteAndMove {
            src,
            dst,
            data: b"yyyy".to_vec(),
        })
        .unwrap();
        assert_eq!(e.shard_for_mut(dst).dequeue_packet(dst).unwrap(), b"yyyy");
        e.verify().unwrap();
    }

    #[test]
    fn unknown_flows_error_cleanly() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let bad = FlowId::new(1_000_000);
        assert!(matches!(
            e.execute(Command::Dequeue { flow: bad }),
            Err(QueueError::UnknownFlow { .. })
        ));
        e.shard_for_mut(FlowId::new(0))
            .enqueue_packet(FlowId::new(0), b"x")
            .unwrap();
        if e.shard_of(bad) != e.shard_of(FlowId::new(0)) {
            assert!(matches!(
                e.execute(Command::Move {
                    src: FlowId::new(0),
                    dst: bad
                }),
                Err(QueueError::UnknownFlow { .. })
            ));
        }
        assert!(e.stats().errors >= 1);
        e.verify().unwrap();
    }

    #[test]
    fn partitioned_splits_the_buffer() {
        let e = ShardedQueueManager::partitioned(cfg(64), 4).unwrap();
        assert_eq!(e.num_shards(), 4);
        for s in 0..4 {
            assert_eq!(e.shard(s).config().num_segments(), 16);
        }
        assert_eq!(e.free_segments(), 64);
        assert!(ShardedQueueManager::partitioned(cfg(2), 4).is_err());
    }

    #[test]
    fn busy_time_accumulates_only_in_batches() {
        let mut e = ShardedQueueManager::new(cfg(64), 2);
        e.execute(enqueue_cmd(0, 1, 64)).unwrap();
        assert_eq!(e.critical_path(), Duration::ZERO);
        let cmds: Vec<Command> = (0..16).map(|f| enqueue_cmd(f, 2, 64)).collect();
        e.execute_batch(&cmds);
        assert!(e.critical_path() > Duration::ZERO);
        assert!(e.serial_time() >= e.critical_path());
    }

    #[test]
    fn sharded_admission_is_shard_local() {
        // 2 shards x 8 segments: a flow may fill its own shard's buffer
        // under alpha=2 without affecting the other shard's threshold.
        let mut e = ShardedQueueManager::new(
            QmConfig::builder()
                .num_flows(16)
                .num_segments(8)
                .segment_bytes(64)
                .build()
                .unwrap(),
            2,
        );
        let mut adm = ShardedAdmission::from_fn(2, |_| DynamicThreshold::new(2.0));
        let hog = FlowId::new(0);
        let hog_shard = e.shard_of(hog);
        let other = (1..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != hog_shard)
            .unwrap();
        let mut admitted = 0;
        for _ in 0..8 {
            if adm.offer(&mut e, hog, &[0u8; 64]).is_ok() {
                admitted += 1;
            }
        }
        assert!(admitted < 8, "shard-local threshold must bite");
        // The other shard is empty, so its policy sees a fresh buffer.
        assert!(adm.offer(&mut e, other, &[1u8; 64]).is_ok());
        assert_eq!(e.shard(hog_shard).queue_len_packets(hog), admitted);
        e.verify().unwrap();
    }

    #[test]
    fn offer_batch_matches_one_by_one_and_times_shards() {
        let mk = || ShardedQueueManager::new(cfg(16), 4);
        let payloads: Vec<(FlowId, Vec<u8>)> = (0..40u32)
            .map(|i| (FlowId::new(i % 16), vec![i as u8; 40 + (i as usize % 80)]))
            .collect();
        let arrivals: Vec<(FlowId, &[u8])> =
            payloads.iter().map(|(f, p)| (*f, p.as_slice())).collect();

        let mut e1 = mk();
        let mut adm1 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
        let batch = adm1.offer_batch(&mut e1, &arrivals);

        let mut e2 = mk();
        let mut adm2 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.0));
        let serial: Vec<_> = arrivals
            .iter()
            .map(|&(f, p)| adm2.offer(&mut e2, f, p))
            .collect();

        assert_eq!(batch, serial);
        assert_eq!(e1.stats(), e2.stats());
        assert!(e1.critical_path() > Duration::ZERO);
        assert_eq!(e2.critical_path(), Duration::ZERO, "offer() is untimed");
        e1.verify().unwrap();
    }

    #[test]
    fn verify_catches_flow_leaked_into_the_wrong_shard() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let flow = FlowId::new(0);
        let home = e.shard_of(flow);
        let wrong = (home + 1) % 4;
        // Bypass routing: enqueue directly on a foreign shard.
        e.shard_mut(wrong).enqueue_packet(flow, b"lost").unwrap();
        let err = e.verify().unwrap_err();
        assert!(err.what.contains("home shard"), "got: {err}");
    }
}
