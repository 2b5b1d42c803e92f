//! Sharded queue engine.
//!
//! The paper's MMS sustains its 2.5 Gbit/s only because queue management
//! runs as a pipelined hardware unit (§6); one software [`QueueManager`]
//! serializes every command on a single flow table and free list.
//! Multi-engine data-path designs instead *partition flows across
//! independent engines* — each with its own pointer memory, free list
//! and occupancy index.
//!
//! [`ShardedQueueManager`] is that organisation in software:
//!
//! * **N independent shards**, each a full [`QueueManager`] over its own
//!   pointer memory, data memory and free lists;
//! * **stable `FlowId → shard` routing** ([`ShardedQueueManager::shard_of`]),
//!   a multiply-shift hash that is a pure function of the flow id, so a
//!   flow's packets always land in the same engine;
//! * **one timed per-shard executor**
//!   ([`ShardedQueueManager::for_each_shard`]): it lends each active
//!   shard's engine to the caller's state for that shard, in shard order
//!   on the calling thread, and times the call. The scale rounds
//!   (`table7` / `table8`) and the streaming service's serve phase run
//!   through it;
//! * **one command at a time** ([`ShardedQueueManager::execute`]), routed
//!   to its flow's shard, as the paper's MMS takes one command per
//!   request/acknowledge handshake; a batch is its one-by-one replay;
//! * **no shared state**: a two-queue command (move, copy, fused
//!   overwrite-and-move) whose queues hash to different shards is refused
//!   with [`QueueError::CrossShard`]. In the paper a move is a pointer
//!   operation inside one data memory, and each shard's data memory is
//!   its own; within a shard `Move` / `Copy` keep their O(1) / O(size)
//!   pointer semantics;
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
//! `for_each_shard` accumulates per-shard **busy time**
//! ([`ShardedQueueManager::busy_times`]): the wall clock each shard's
//! calls took. Since the shards share no state, N shards
//! *model* N engines running in parallel — the shards themselves run one
//! after another on one thread; the sustained rate of the
//! composite is `work / critical_path` where
//! [`critical_path`](ShardedQueueManager::critical_path) is the *busiest*
//! shard's time. This is the same modeling convention the IXP1200 model
//! uses for its "six engines" column (Table 2): per-engine cost is
//! measured, aggregate throughput is derived from the slowest engine.
//! [`serial_time`](ShardedQueueManager::serial_time) (the sum) is what a
//! single serialized engine would pay for the same work. (Real worker
//! threads were measured against this model and lost on wall clock at
//! every attempt, so none are spawned.)
//!
//! # Example
//!
//! ```
//! use npqm_core::shard::ShardedQueueManager;
//! use npqm_core::manager::SegmentPosition;
//! use npqm_core::{Command, FlowId, QmConfig};
//!
//! let mut engine = ShardedQueueManager::new(QmConfig::small(), 4);
//! for i in 0..8 {
//!     let data = vec![i as u8; 64];
//!     let flow = FlowId::new(i);
//!     engine.execute(Command::Enqueue { flow, data, pos: SegmentPosition::Only })?;
//! }
//! engine.verify().unwrap();
//! assert_eq!(engine.stats().enqueues, 8);
//! # Ok::<(), npqm_core::QueueError>(())
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
use crate::timing::stream::OpStream;
use std::time::{Duration, Instant};

/// A sharded queue engine: N independent [`QueueManager`]s with stable
/// flow routing.
///
/// See the [module documentation](self) for the design and the
/// throughput model.
#[derive(Debug, Clone)]
pub struct ShardedQueueManager {
    pub(crate) shards: Vec<QueueManager>,
    busy: Vec<Duration>,
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
    }

    /// Whether memory-access tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.shards[0].tracing()
    }

    /// Drains the recorded engine trace: one cut of every shard, in shard
    /// order. The trace is a pure function of the executed commands and
    /// their per-shard order.
    pub(crate) fn take_trace(&mut self) -> Vec<OpStream> {
        self.shards
            .iter_mut()
            .map(QueueManager::cut_trace)
            .collect()
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

    /// Mutable access to every shard at once, untimed (a closed loop
    /// over all of them; [`for_each_shard`](Self::for_each_shard) times
    /// each shard apart).
    pub fn shards_mut(&mut self) -> &mut [QueueManager] {
        &mut self.shards
    }

    /// Mutable access to the shard owning `flow`.
    pub fn shard_for_mut(&mut self, flow: FlowId) -> &mut QueueManager {
        let s = self.shard_of(flow);
        &mut self.shards[s]
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
    /// accounting and operation counters.
    pub fn state_digest(&self) -> u64 {
        self.shards
            .iter()
            .fold(crate::check::FNV_OFFSET_BASIS, |h, qm| {
                crate::check::fnv1a_fold(h, crate::check::state_digest(qm))
            })
    }

    /// Per-shard busy time. Its one writer is
    /// [`for_each_shard`](ShardedQueueManager::for_each_shard), under the
    /// scale rounds and the service's serve phases.
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

    /// Executes one command on its flow's shard.
    ///
    /// Execution is not timed; only
    /// [`for_each_shard`](ShardedQueueManager::for_each_shard) accumulates
    /// [busy time](ShardedQueueManager::busy_times).
    ///
    /// # Errors
    ///
    /// The shard's own [`QueueError`]. A two-queue command whose queues
    /// live on different shards is refused: with
    /// [`QueueError::UnknownFlow`] if either flow is out of range (counted
    /// on that flow's shard), else with [`QueueError::CrossShard`], counted
    /// as one error on the source's shard. Neither engine is otherwise
    /// read or written, so a fused overwrite does not land.
    pub fn execute(&mut self, cmd: Command) -> Result<Outcome, QueueError> {
        self.execute_ref(&cmd)
    }

    /// [`execute`](Self::execute) on a borrowed command, so a slice of
    /// commands runs without cloning payloads.
    fn execute_ref(&mut self, cmd: &Command) -> Result<Outcome, QueueError> {
        let src = cmd.primary_flow();
        let s = self.shard_of(src);
        let Some(dst) = (cmd.secondary_flow()).filter(|&dst| self.shard_of(dst) != s) else {
            return self.shards[s].execute_ref(cmd);
        };
        self.check_flow_on(s, src)?;
        self.check_flow_on(self.shard_of(dst), dst)?;
        self.shards[s].stats.errors += 1;
        Err(QueueError::CrossShard { src, dst })
    }

    /// [`execute`](Self::execute) on each command in order. Kept only for
    /// the benchmark ladder's `core.shard` rung until ROADMAP item 3.
    pub fn execute_batch(&mut self, cmds: &[Command]) -> Vec<Result<Outcome, QueueError>> {
        cmds.iter().map(|cmd| self.execute_ref(cmd)).collect()
    }

    /// As [`execute_batch`](Self::execute_batch); `_threads` is ignored.
    /// Kept only for the benchmark ladder until ROADMAP item 3.
    pub fn execute_batch_parallel(
        &mut self,
        cmds: &[Command],
        _threads: usize,
    ) -> Vec<Result<Outcome, QueueError>> {
        self.execute_batch(cmds)
    }

    /// Always zero: nothing fans out or steals. Kept only for the
    /// benchmark ladder until ROADMAP item 3.
    pub fn parallel_stats(&self) -> ParallelStats {
        ParallelStats::default()
    }

    /// Runs `work(engine s, &mut states[s])` once on every shard `s` for
    /// which `active(&states[s])` holds, in shard order on the calling
    /// thread, and adds the call's wall time to that shard's
    /// [busy time](ShardedQueueManager::busy_times) — the one timed
    /// per-shard executor, behind the `table7` / `table8` rounds and the
    /// service's serve phase alike. Idle shards are neither run nor
    /// timed.
    ///
    /// # Panics
    ///
    /// Panics if `states` does not hold one entry per shard.
    pub fn for_each_shard<St>(
        &mut self,
        states: &mut [St],
        active: impl Fn(&St) -> bool,
        mut work: impl FnMut(&mut QueueManager, &mut St),
    ) {
        assert_eq!(states.len(), self.shards.len(), "one state per shard");
        let shards = self.shards.iter_mut().zip(&mut self.busy).zip(states);
        for ((qm, busy), state) in shards.filter(|(_, state)| active(state)) {
            let t = Instant::now();
            work(qm, state);
            *busy += t.elapsed();
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

    /// Offers one packet for admission on `flow`'s home shard (untimed).
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

    /// [`offer`](Self::offer) on each arrival in order. Kept only for the
    /// benchmark ladder's `core.shard` rung until ROADMAP item 3.
    ///
    /// # Panics
    ///
    /// As [`offer`](Self::offer).
    pub fn offer_batch(
        &mut self,
        engine: &mut ShardedQueueManager,
        arrivals: &[(FlowId, &[u8])],
    ) -> Vec<Result<Admission, Refusal>> {
        arrivals
            .iter()
            .map(|&(flow, packet)| self.offer(engine, flow, packet))
            .collect()
    }

    /// As [`offer_batch`](Self::offer_batch); `_threads` is ignored. Kept
    /// only for the benchmark ladder until ROADMAP item 3.
    ///
    /// # Panics
    ///
    /// As [`offer`](Self::offer).
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
        let sharded_results: Vec<_> = cmds.iter().map(|c| sharded.execute(c.clone())).collect();
        let dense_results: Vec<_> = cmds.into_iter().map(|c| dense.execute(c)).collect();
        assert_eq!(sharded_results, dense_results);
        assert_eq!(&sharded.stats(), dense.stats());
        sharded.verify().unwrap();
        // The command steps of every one-shard corpus script, error paths
        // included, on both.
        for script in crate::model::CORPUS.iter().filter(|s| s.shape.shards == 1) {
            let mut sharded = script.shape.engine();
            let mut dense = QueueManager::new(script.shape.config());
            for (tag, step) in script.steps.iter().enumerate() {
                let Some(cmd) = step.command(tag as u8) else {
                    continue;
                };
                let at = format!("{} step {tag} {step:?}", script.name);
                assert_eq!(sharded.execute(cmd.clone()), dense.execute(cmd), "{at}");
            }
            assert_eq!(&sharded.stats(), dense.stats(), "{}", script.name);
            let digest = crate::check::state_digest;
            assert_eq!(digest(sharded.shard(0)), digest(&dense), "{}", script.name);
        }
    }

    #[test]
    fn two_queue_commands_across_shards_are_refused() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(2);
        let s = e.shard_of(src);
        let flows = || (0..16u32).map(FlowId::new).filter(|&f| f != src);
        let dst = flows().find(|&f| e.shard_of(f) != s).unwrap();
        let peer = flows().find(|&f| e.shard_of(f) == s).unwrap();
        // Out of range, and on a third shard.
        let third = |f: &FlowId| ![s, e.shard_of(dst)].contains(&e.shard_of(*f));
        let bad = (16..64u32).map(FlowId::new).find(third).unwrap();
        let all = |src, dst| {
            [
                Command::Move { src, dst },
                Command::Copy { src, dst },
                Command::OverwriteAndMove {
                    src,
                    dst,
                    data: vec![9; 8],
                },
                Command::OverwriteLenAndMove {
                    src,
                    dst,
                    new_len: 4,
                },
            ]
        };
        for f in [src, src, src, src, dst] {
            e.shard_for_mut(f)
                .enqueue_packet(f, &[f.index() as u8; 64])
                .unwrap();
        }
        for cmd in all(src, dst) {
            // One error on the source's shard; nothing else read or written.
            let mut want = e.clone();
            want.shards[s].stats.errors += 1;
            let name = cmd.name();
            assert_eq!(
                e.execute(cmd),
                Err(QueueError::CrossShard { src, dst }),
                "{name}"
            );
            assert_eq!(e.state_digest(), want.state_digest(), "{name}");
            assert_eq!(e.ptr_counters(), want.ptr_counters(), "{name}");
        }
        for (from, to, at) in [(src, bad, e.shard_of(bad)), (bad, dst, e.shard_of(bad))] {
            for cmd in all(from, to) {
                let errors = e.shard(at).stats().errors;
                let r = e.execute(cmd);
                assert!(matches!(r, Err(QueueError::UnknownFlow { .. })), "{r:?}");
                assert_eq!(e.shard(at).stats().errors, errors + 1);
            }
        }
        // Within one shard all four still run.
        for cmd in all(src, peer) {
            assert_eq!(e.execute(cmd), Ok(Outcome::Done));
        }
        assert_eq!(e.shard(s).queue_len_packets(src), 1);
        assert_eq!(e.shard(s).queue_len_packets(peer), 4);
        e.verify().unwrap();
    }

    /// The first flow homed on a different shard from `src`.
    fn across(e: &ShardedQueueManager, src: FlowId) -> FlowId {
        (0..16u32)
            .map(FlowId::new)
            .find(|&f| e.shard_of(f) != e.shard_of(src))
            .expect("16 flows over 4 shards must straddle")
    }

    #[test]
    fn cross_shard_move_transfers_payload() {
        // A move across shards transfers nothing: the payload stays put.
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = across(&e, src);
        let pkt: Vec<u8> = (0..150).map(|i| i as u8).collect();
        e.shard_for_mut(src).enqueue_packet(src, &pkt).unwrap();
        assert_eq!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::CrossShard { src, dst })
        );
        assert_eq!(e.shard(e.shard_of(src)).stats().errors, 1);
        assert_eq!(e.shard(e.shard_of(dst)).stats().errors, 0);
        assert!(e.shard(e.shard_of(dst)).is_empty(dst));
        assert_eq!(e.shard_for_mut(src).dequeue_packet(src).unwrap(), pkt);
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_copy_keeps_source() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = across(&e, src);
        e.shard_for_mut(src).enqueue_packet(src, b"mirror").unwrap();
        let before = e.shard(e.shard_of(dst)).clone();
        assert_eq!(
            e.execute(Command::Copy { src, dst }),
            Err(QueueError::CrossShard { src, dst })
        );
        assert_eq!(
            crate::check::state_digest(e.shard(e.shard_of(dst))),
            crate::check::state_digest(&before),
            "the destination's data memory is not written"
        );
        assert_eq!(e.shard_for_mut(src).dequeue_packet(src).unwrap(), b"mirror");
        assert!(e.shard(e.shard_of(dst)).is_empty(dst));
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_move_rejects_open_destination_and_reserves_capacity() {
        // The shard check comes before either engine is read: an open or
        // exhausted destination answers CrossShard, and no segment is taken.
        let mut e = ShardedQueueManager::new(cfg(4), 4);
        let src = FlowId::new(0);
        let dst = across(&e, src);
        e.shard_for_mut(src)
            .enqueue_packet(src, &[1u8; 100])
            .unwrap();
        e.shard_for_mut(dst)
            .enqueue(dst, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        assert_eq!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::CrossShard { src, dst })
        );
        for pos in [SegmentPosition::Middle, SegmentPosition::Middle] {
            e.shard_for_mut(dst).enqueue(dst, &[9u8; 64], pos).unwrap();
        }
        e.shard_for_mut(dst)
            .enqueue(dst, &[9u8; 64], SegmentPosition::Last)
            .unwrap();
        let free = e.shard(e.shard_of(dst)).free_segments();
        assert_eq!(free, 0, "the destination shard is exhausted");
        assert_eq!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::CrossShard { src, dst })
        );
        assert_eq!(e.shard(e.shard_of(dst)).free_segments(), free);
        assert_eq!(e.shard(e.shard_of(src)).stats().errors, 2);
        assert_eq!(
            e.shard(e.shard_of(src)).queue_len_packets(src),
            1,
            "a refused move must not strand the packet"
        );
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_move_rejects_mid_service_head() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = across(&e, src);
        e.shard_for_mut(src)
            .enqueue_packet(src, &[1u8; 130])
            .unwrap();
        e.shard_for_mut(src).dequeue(src).unwrap(); // head mid-service
        assert_eq!(
            e.execute(Command::Move { src, dst }),
            Err(QueueError::CrossShard { src, dst })
        );
        // The head's service goes on where it stopped.
        assert_eq!(e.shard(e.shard_of(src)).queue_len_packets(src), 1);
        e.shard_for_mut(src).dequeue(src).unwrap();
        e.verify().unwrap();
    }

    #[test]
    fn cross_shard_fused_overwrite_and_move() {
        // The fused overwrite does not land when its move is refused.
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        let src = FlowId::new(0);
        let dst = across(&e, src);
        e.shard_for_mut(src).enqueue_packet(src, b"xxxx").unwrap();
        assert_eq!(
            e.execute(Command::OverwriteAndMove {
                src,
                dst,
                data: b"yyyy".to_vec(),
            }),
            Err(QueueError::CrossShard { src, dst })
        );
        assert!(e.shard(e.shard_of(dst)).is_empty(dst));
        assert_eq!(e.shard_for_mut(src).dequeue_packet(src).unwrap(), b"xxxx");
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
    fn busy_time_accumulates_only_in_for_each_shard() {
        let mut e = ShardedQueueManager::new(cfg(64), 2);
        e.execute(enqueue_cmd(0, 1, 64)).unwrap();
        assert_eq!(e.critical_path(), Duration::ZERO);
        e.for_each_shard(
            &mut [(), ()],
            |_| true,
            |qm, _| {
                qm.enqueue_packet(FlowId::new(1), &[2u8; 64]).unwrap();
            },
        );
        assert!(e.critical_path() > Duration::ZERO);
        assert!(e.serial_time() >= e.critical_path());
    }

    #[test]
    fn for_each_shard_runs_and_times_each_busy_shard_once() {
        let mut e = ShardedQueueManager::new(cfg(64), 4);
        // (active, call number): shards 1 and 3 are idle.
        let mut states = [(true, 0u32), (false, 0), (true, 0), (false, 0)];
        let mut calls = 0;
        e.for_each_shard(
            &mut states,
            |st| st.0,
            |qm, st| {
                calls += 1;
                st.1 = calls;
                qm.enqueue_packet(FlowId::new(0), &[1u8; 64]).unwrap();
            },
        );
        assert_eq!(
            states.map(|st| st.1),
            [1, 0, 2, 0],
            "busy shards once, in order"
        );
        for (s, st) in states.iter().enumerate() {
            assert_eq!(e.busy_times()[s] > Duration::ZERO, st.0);
            assert_eq!(
                e.shard(s).queue_len_packets(FlowId::new(0)),
                u32::from(st.0)
            );
        }
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
