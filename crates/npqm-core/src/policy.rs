//! Pluggable buffer-management (drop) policies over a [`QueueManager`].
//!
//! The paper lists "buffer and traffic management" among the wire-speed
//! functions per-flow queuing exists for (§1); the related work the
//! roadmap tracks studies *which* policy wins when a shared buffer comes
//! under pressure — Matsakis proves Longest Queue Drop is 1.5-competitive
//! for shared-memory switches, Kogan et al. study FIFO admission for
//! heterogeneous processing. This module defines the common [`DropPolicy`]
//! interface those policies plug into and ships six disciplines:
//!
//! * **tail drop** — the static per-flow caps of
//!   [`BufferManager`] (the PR-1 baseline),
//!   adapted to the trait;
//! * **[`LongestQueueDrop`]** — push-out from the longest queue when the
//!   shared buffer is exhausted, using the engine's amortised
//!   [`QueueManager::longest_queue`] query;
//! * **[`DynamicThreshold`]** — Choudhury–Hahne dynamic thresholds: a
//!   flow may occupy at most `alpha ×` the *unused* buffer space, so
//!   thresholds tighten automatically as the buffer fills;
//! * **[`PushOutLargestWork`]** / **[`WorkSizeBalance`]** — the
//!   work-aware push-out disciplines of Kogan et al., driven by the
//!   packets' required-processing-work dimension through
//!   [`DropPolicy::offer_work`] (the competitive-analysis arena in
//!   [`crate::arena`] measures all of these against an offline bound);
//! * **[`GlobalLqd`]** — Longest Queue Drop over *all* shards of a
//!   [`ShardedQueueManager`]: one segment budget, the victim the longest
//!   queue anywhere in the system.
//!
//! The four push-out disciplines (all but tail drop and dynamic
//! thresholds) differ only in which queued packet pays. Everything else
//! — refusing a hopeless arrival before anything is evicted, the budget
//! arithmetic, the eviction, the victim list and the enqueue — is one
//! private function, `push_out`, written over a *slice* of engines so
//! that one [`QueueManager`] and the shared-buffer composite are the same
//! case. A policy keeps no tally of its own: its answer to each offer is
//! the [`Admission`] or [`Refusal`] it returns, and the loops that drive
//! it count from those.
//!
//! Policies compose with (rather than modify) the engine, exactly like
//! the tail-drop policer in [`crate::limits`]: they read occupancy
//! through the public API, veto or perform enqueues, and may evict
//! already-queued packets (push-out). The closed-loop simulation pipeline
//! in `npqm-traffic` drives any `DropPolicy` against any
//! [`FlowScheduler`](crate::sched::FlowScheduler).

use crate::id::FlowId;
use crate::limits::{BufferManager, DropReason};
use crate::manager::QueueManager;
use crate::shard::ShardedQueueManager;

/// Outcome of a successful [`DropPolicy::offer`].
///
/// Admission may have required pushing already-queued packets out of
/// other (or the same) flow's queue; the caller needs the victims to keep
/// its own per-packet bookkeeping (e.g. latency ledgers) consistent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Admission {
    /// Head packets evicted to make room, as `(victim flow, payload
    /// bytes)` in eviction order. Empty for policies that only ever drop
    /// the arriving packet.
    pub evicted: Vec<(FlowId, u32)>,
}

/// Outcome of a refused [`DropPolicy::offer`].
///
/// Carries not only the [`DropReason`] but also any packets a push-out
/// policy already evicted before discovering the arrival still cannot be
/// admitted (e.g. the remaining occupancy is all mid-SAR open packets).
/// Those victims are gone from the buffer either way, so a caller with
/// per-packet bookkeeping must process them exactly as it would the
/// evictions of a successful [`Admission`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Refusal {
    /// Why the arriving packet was refused.
    pub reason: DropReason,
    /// Head packets evicted before the refusal, as `(victim flow,
    /// payload bytes)` in eviction order.
    pub evicted: Vec<(FlowId, u32)>,
}

impl From<DropReason> for Refusal {
    /// A plain refusal with no collateral evictions.
    fn from(reason: DropReason) -> Self {
        Refusal {
            reason,
            evicted: Vec::new(),
        }
    }
}

/// A buffer-management policy deciding the fate of each arriving packet.
///
/// Implementations either enqueue the packet on `flow` (possibly evicting
/// queued packets first) or refuse it with a [`Refusal`]. An
/// implementation must never leave a partially-enqueued packet behind:
/// [`QueueManager::enqueue_packet`] already rolls back on mid-packet
/// exhaustion.
pub trait DropPolicy {
    /// A short stable name for reports ("tail-drop", "lqd", ...).
    fn name(&self) -> &str;

    /// Offers one whole packet for admission on `flow`.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that applied; the arriving packet is NOT queued in
    /// that case. Push-out policies report any packets they evicted
    /// before hitting the refusal in [`Refusal::evicted`].
    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal>;

    /// Offers one whole packet carrying a required-processing-`work`
    /// dimension (see [`PktRecord::work`](crate::ptrmem::PktRecord::work)).
    ///
    /// The default implementation makes every policy *work-oblivious*:
    /// it decides via [`DropPolicy::offer`] and, on admission, stamps
    /// `work` onto the packet so downstream service models still charge
    /// it. Work-*aware* policies ([`PushOutLargestWork`],
    /// [`WorkSizeBalance`]) override this and let `work` drive the
    /// eviction choice itself.
    ///
    /// # Errors
    ///
    /// As [`DropPolicy::offer`].
    fn offer_work(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
        work: u32,
    ) -> Result<Admission, Refusal> {
        let admission = self.offer(qm, flow, packet)?;
        stamp_work(qm, flow, work);
        Ok(admission)
    }
}

/// Stamps `work` on the packet just admitted at `flow`'s tail; zero work
/// is the record's default and costs no access.
fn stamp_work(qm: &mut QueueManager, flow: FlowId, work: u32) {
    if work != 0 {
        qm.set_tail_work(flow, work).expect("packet just admitted");
    }
}

/// Boxed policies admit like their contents, so `Box<dyn DropPolicy +
/// Send>` slots into any generic pipeline bound.
impl<P: DropPolicy + ?Sized> DropPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        (**self).offer(qm, flow, packet)
    }

    fn offer_work(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
        work: u32,
    ) -> Result<Admission, Refusal> {
        (**self).offer_work(qm, flow, packet, work)
    }
}

/// The PR-1 tail-drop policer as a [`DropPolicy`]: static per-flow caps
/// plus a global reserve, never evicting queued data.
impl DropPolicy for BufferManager {
    fn name(&self) -> &str {
        "tail-drop"
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        self.try_enqueue(qm, flow, packet)
            .map(|()| Admission::default())
            .map_err(Refusal::from)
    }
}

/// Push-out admission, the one loop behind [`LongestQueueDrop`],
/// [`PushOutLargestWork`], [`WorkSizeBalance`] and [`GlobalLqd`]: make
/// room for `packet` within `budget` segments by evicting the head
/// packets `victim` names, then enqueue it on `flow`'s engine,
/// `shards[home]`.
///
/// `shards` are the engines that share the budget — one
/// [`QueueManager`] with `budget` its own segment count, or every shard
/// of a [`ShardedQueueManager`] — and `reserve` segments of the budget
/// stay free. `victim` returns the `(shard, flow)` whose head packet
/// pays next, or `None` when nobody may: the arrival is then refused and
/// the refusal carries what was already pushed out.
fn push_out(
    shards: &mut [QueueManager],
    home: usize,
    budget: u32,
    reserve: u32,
    flow: FlowId,
    packet: &[u8],
    mut victim: impl FnMut(&mut [QueueManager]) -> Option<(usize, FlowId)>,
) -> Result<Admission, Refusal> {
    let seg_bytes = shards[home].config().segment_bytes() as usize;
    // In u64: a reserve near `u32::MAX` must refuse, not wrap.
    let claim = packet.len().div_ceil(seg_bytes) as u64 + u64::from(reserve);
    // An arrival that could not fit even an empty buffer is refused
    // outright — evicting for it would be pure loss.
    if claim > u64::from(budget) {
        return Err(Refusal::from(DropReason::GlobalReserve));
    }
    // So would evicting for an arrival the engine refuses however much
    // space it finds (no payload, flow out of range, the flow's tail
    // open mid-SAR): it goes straight to the engine, which produces and
    // counts its own error. Asked only once the buffer is short: this
    // runs per packet, and asked up front it cost a loop of LQD offers
    // 3 ns in 135.
    let doomed = |qm: &QueueManager| {
        packet.is_empty()
            || flow.index() >= qm.config().num_flows()
            || qm.queue_len_packets(flow) != qm.complete_packets(flow)
    };
    let mut evicted = Vec::new();
    while used_segments(shards) + claim > u64::from(budget) && !doomed(&shards[home]) {
        let Some((shard, loser)) = victim(shards) else {
            return Err(Refusal {
                reason: DropReason::GlobalReserve,
                evicted,
            });
        };
        let (_segs, bytes) = shards[shard]
            .delete_packet(loser)
            .expect("victim has an evictable head packet");
        evicted.push((loser, bytes));
    }
    match shards[home].enqueue_packet(flow, packet) {
        Ok(()) => Ok(Admission { evicted }),
        Err(e) => Err(Refusal {
            reason: DropReason::Engine(e),
            evicted,
        }),
    }
}

/// Segments linked into queues, summed over the engines of one budget.
fn used_segments(shards: &[QueueManager]) -> u64 {
    shards
        .iter()
        .map(|qm| u64::from(qm.occupied_segments()))
        .sum()
}

/// Longest Queue Drop: when the shared buffer cannot hold the arrival,
/// push complete packets out of the *longest* queue until it fits.
///
/// This is the policy Matsakis analyses for shared-memory switches (LQD
/// is 1.5-competitive against an offline adversary): no static per-flow
/// partitioning, so a single bursty flow can use the whole buffer while
/// it is otherwise idle, yet cannot starve others — under pressure it is
/// precisely the hog that pays. Eviction is drop-from-front of the
/// longest queue, which for feedback-controlled traffic also signals
/// congestion earliest. If the arriving flow itself holds the longest
/// queue, its own head packet is pushed out — net occupancy stays flat
/// while the freshest data is kept.
///
/// # Example
///
/// ```
/// use npqm_core::policy::{DropPolicy, LongestQueueDrop};
/// use npqm_core::{FlowId, QmConfig, QueueManager};
///
/// let cfg = QmConfig::builder()
///     .num_flows(2)
///     .num_segments(4)
///     .segment_bytes(64)
///     .build()
///     .unwrap();
/// let mut qm = QueueManager::new(cfg);
/// let mut lqd = LongestQueueDrop::new(0);
/// // Flow 0 fills the entire 4-segment buffer...
/// for _ in 0..4 {
///     lqd.offer(&mut qm, FlowId::new(0), &[0u8; 64]).unwrap();
/// }
/// // ...and flow 1 still gets in: the longest queue (flow 0) is pushed out.
/// let adm = lqd.offer(&mut qm, FlowId::new(1), &[1u8; 64]).unwrap();
/// assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
/// assert_eq!(qm.queue_len_packets(FlowId::new(1)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LongestQueueDrop {
    reserve_segments: u32,
}

impl LongestQueueDrop {
    /// Creates the policy, keeping `reserve_segments` segments free for
    /// flows with packets already mid-assembly (same role as the
    /// [`BufferManager`] reserve).
    pub fn new(reserve_segments: u32) -> Self {
        LongestQueueDrop { reserve_segments }
    }
}

impl DropPolicy for LongestQueueDrop {
    fn name(&self) -> &str {
        "lqd"
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        // Push out of the longest evictable queue until the arrival
        // fits. If nothing evictable remains (the remaining occupancy is
        // all mid-SAR open packets), the arrival is dropped.
        let budget = qm.config().num_segments();
        push_out(
            std::slice::from_mut(qm),
            0,
            budget,
            self.reserve_segments,
            flow,
            packet,
            |qm| longest_evictable(&mut qm[0]).map(|v| (0, v)),
        )
    }
}

/// Whether `flow`'s head packet may be pushed out: at least one complete
/// packet is queued and the head is not mid-service. `delete_packet`
/// removes the *head* packet, so evicting while the head is partially
/// dequeued would erase the tail of a frame whose first segments were
/// already delivered — exactly the torn-frame class every other path
/// guards against.
fn evictable(qm: &QueueManager, flow: FlowId) -> bool {
    qm.complete_packets(flow) > 0 && !qm.head_in_service(flow)
}

/// The flow holding the most bytes among those with an evictable head
/// packet (see [`evictable`]).
///
/// Fast path: the engine's occupancy index. When the overall-longest
/// queue happens to be unevictable (its only content is a mid-SAR open
/// packet, or its head is mid-service), falls back to a linear scan —
/// rare, since such a queue can hog the maximum only while its flow
/// out-buffers every other flow.
fn longest_evictable(qm: &mut QueueManager) -> Option<FlowId> {
    if let Some((flow, _)) = qm.longest_queue() {
        if evictable(qm, flow) {
            return Some(flow);
        }
    }
    (0..qm.config().num_flows())
        .map(FlowId::new)
        .filter(|&f| evictable(qm, f))
        .max_by_key(|&f| qm.queue_len_bytes(f))
}

/// Longest Queue Drop over **all** shards: one shared segment budget,
/// with push-out from the globally longest queue.
///
/// Shard-local policies
/// ([`ShardedAdmission`](crate::shard::ShardedAdmission)) express the
/// partitioned-buffer regime: each engine guards its own memory, and a
/// burst on one partition can drop traffic there while another partition
/// sits empty. `GlobalLqd` expresses the *shared-buffer* regime of the
/// paper's MMS (one data memory behind all engines) on top of the same
/// sharded engine: admission is bounded by a single global budget, and
/// when an arrival does not fit, complete packets are evicted from the
/// longest queue **anywhere in the system** until it does. The victim is
/// the longest of each shard's own longest evictable queue — the
/// selector of [`LongestQueueDrop`], so queues whose head is mid-SAR or
/// mid-service are never victims — with ties going to the lowest shard.
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
/// runs, at a price: the budget is global but the space is not, so a
/// victim on another shard frees nothing for a full home partition — the
/// arrival is refused by its engine (`OutOfSegments`) and the push-out
/// was pure loss.
///
/// # Example
///
/// ```
/// use npqm_core::policy::GlobalLqd;
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
///     lqd.offer(&mut engine, FlowId::new(0), &[0u8; 64]).unwrap();
/// }
/// // ...and an arrival homed on the *other* shard still gets in: the
/// // globally longest queue pays, across the partition boundary.
/// let hog_shard = engine.shard_of(FlowId::new(0));
/// let other = (1..16)
///     .map(FlowId::new)
///     .find(|&f| engine.shard_of(f) != hog_shard)
///     .unwrap();
/// let adm = lqd.offer(&mut engine, other, &[1u8; 64]).unwrap();
/// assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalLqd {
    budget_segments: u32,
    reserve_segments: u32,
}

impl GlobalLqd {
    /// Creates the policy with a global budget of `budget_segments`
    /// across all shards, keeping `reserve_segments` of it free for
    /// flows with packets mid-assembly.
    pub fn new(budget_segments: u32, reserve_segments: u32) -> Self {
        GlobalLqd {
            budget_segments,
            reserve_segments,
        }
    }

    /// The shared-buffer pairing for `engine`: a budget of one shard's
    /// full segment space (every shard of a
    /// [`ShardedQueueManager::new`]-built engine is configured with the
    /// whole shared buffer).
    pub fn shared(engine: &ShardedQueueManager, reserve_segments: u32) -> Self {
        GlobalLqd::new(engine.shard(0).config().num_segments(), reserve_segments)
    }

    /// The global segment budget.
    pub const fn budget_segments(&self) -> u32 {
        self.budget_segments
    }

    /// Offers one whole packet for admission on `flow`'s home shard,
    /// with eviction decisions drawn from the entire engine.
    ///
    /// # Errors
    ///
    /// The [`Refusal`] that applied; victims in [`Refusal::evicted`] /
    /// [`Admission::evicted`] may belong to *any* shard.
    pub fn offer(
        &mut self,
        engine: &mut ShardedQueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        let home = engine.shard_of(flow);
        push_out(
            engine.shards_mut(),
            home,
            self.budget_segments,
            self.reserve_segments,
            flow,
            packet,
            |shards| {
                let mut best: Option<(u64, usize, FlowId)> = None;
                for (s, qm) in shards.iter_mut().enumerate() {
                    if let Some(flow) = longest_evictable(qm) {
                        let bytes = qm.queue_len_bytes(flow);
                        if best.is_none_or(|(b, _, _)| bytes > b) {
                            best = Some((bytes, s, flow));
                        }
                    }
                }
                best.map(|(_, s, flow)| (s, flow))
            },
        )
    }
}

/// The evictable head packet with the largest required-processing-work.
///
/// Deterministic tie-break: larger head bytes first, then the *lowest*
/// flow id. Returns `None` when nothing is evictable (empty engine, or
/// all occupancy is mid-SAR/mid-service) — callers must treat that as a
/// refusal, never a panic.
fn costliest_evictable(qm: &QueueManager) -> Option<FlowId> {
    let mut best: Option<(u32, u64, FlowId)> = None;
    for f in 0..qm.config().num_flows() {
        let flow = FlowId::new(f);
        if !evictable(qm, flow) {
            continue;
        }
        let work = qm.head_work(flow).unwrap_or(0);
        let bytes = qm.head_packet_bytes(flow).unwrap_or(0);
        if best.is_none_or(|(w, b, _)| (work, bytes) > (w, b)) {
            best = Some((work, bytes, flow));
        }
    }
    best.map(|(_, _, flow)| flow)
}

/// The evictable head packet with the largest work *density*
/// (work per payload byte), the victim choice of the size-aware
/// balancing policies.
///
/// Density is compared as the cross product `work_a × bytes_b` vs
/// `work_b × bytes_a` — exact integer arithmetic, no floats.
/// Deterministic tie-break: larger head bytes first, then the lowest
/// flow id. `None` when nothing is evictable.
fn densest_evictable(qm: &QueueManager) -> Option<FlowId> {
    let mut best: Option<(u64, u64, FlowId)> = None;
    for f in 0..qm.config().num_flows() {
        let flow = FlowId::new(f);
        if !evictable(qm, flow) {
            continue;
        }
        let work = u64::from(qm.head_work(flow).unwrap_or(0));
        let bytes = qm.head_packet_bytes(flow).unwrap_or(1).max(1);
        let denser = match best {
            None => true,
            Some((w, b, _)) => {
                let lhs = work * b;
                let rhs = w * bytes;
                lhs > rhs || (lhs == rhs && bytes > b)
            }
        };
        if denser {
            best = Some((work, bytes, flow));
        }
    }
    best.map(|(_, _, flow)| flow)
}

/// Push-Out Largest Work: when the shared buffer cannot hold the
/// arrival, push out the queued head packet with the *largest*
/// required-processing-work — but only while that victim costs strictly
/// more work than the arrival itself.
///
/// This is the push-out discipline of Kogan–López-Ortiz–Nikolenko's
/// heterogeneous-processing model: under overload the buffer should
/// hold the *cheapest* packets, because goodput is limited by
/// processing effort, not slots. If the arrival is itself the most
/// expensive packet in sight, it is the one dropped (ties keep the
/// incumbent, avoiding churn). On zero-work traffic nothing ever costs
/// more than anything else, so the policy deterministically degrades to
/// greedy admission with no push-out — tail-drop without static caps.
#[derive(Debug, Clone, Default)]
pub struct PushOutLargestWork {
    reserve_segments: u32,
}

impl PushOutLargestWork {
    /// Creates the policy, keeping `reserve_segments` segments free
    /// (same role as the [`LongestQueueDrop`] reserve).
    pub fn new(reserve_segments: u32) -> Self {
        PushOutLargestWork { reserve_segments }
    }
}

impl DropPolicy for PushOutLargestWork {
    fn name(&self) -> &str {
        "po-work"
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        self.offer_work(qm, flow, packet, 0)
    }

    fn offer_work(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
        work: u32,
    ) -> Result<Admission, Refusal> {
        let budget = qm.config().num_segments();
        // Only a strictly more expensive incumbent pays; otherwise the
        // arrival is the costliest packet and is refused itself.
        let admitted = push_out(
            std::slice::from_mut(qm),
            0,
            budget,
            self.reserve_segments,
            flow,
            packet,
            |qm| {
                costliest_evictable(&qm[0])
                    .filter(|&v| qm[0].head_work(v).unwrap_or(0) > work)
                    .map(|v| (0, v))
            },
        )?;
        stamp_work(qm, flow, work);
        Ok(admitted)
    }
}

/// Work/size balancing push-out: the victim is the evictable head with
/// the highest work *density* (work per byte), evicted only while it is
/// strictly denser than the arrival.
///
/// Where [`PushOutLargestWork`] optimises pure processing effort,
/// this policy balances the two resources Kogan et al.'s model couples:
/// buffer space (bytes) and processing capacity (work). A small
/// expensive packet is a worse citizen than a large cheap one; density
/// orders both out first. On zero-work traffic every density is zero
/// and the policy deterministically degrades to greedy admission, same
/// as [`PushOutLargestWork`].
#[derive(Debug, Clone, Default)]
pub struct WorkSizeBalance {
    reserve_segments: u32,
}

impl WorkSizeBalance {
    /// Creates the policy, keeping `reserve_segments` segments free.
    pub fn new(reserve_segments: u32) -> Self {
        WorkSizeBalance { reserve_segments }
    }
}

impl DropPolicy for WorkSizeBalance {
    fn name(&self) -> &str {
        "work-balance"
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        self.offer_work(qm, flow, packet, 0)
    }

    fn offer_work(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
        work: u32,
    ) -> Result<Admission, Refusal> {
        let budget = qm.config().num_segments();
        let arrival_work = u64::from(work);
        let arrival_bytes = (packet.len() as u64).max(1);
        // Evict only a strictly denser incumbent (cross-multiplied,
        // exact): ties keep the incumbent.
        let admitted = push_out(
            std::slice::from_mut(qm),
            0,
            budget,
            self.reserve_segments,
            flow,
            packet,
            |qm| {
                let v = densest_evictable(&qm[0])?;
                let v_work = u64::from(qm[0].head_work(v).unwrap_or(0));
                let v_bytes = qm[0].head_packet_bytes(v).unwrap_or(1).max(1);
                (v_work * arrival_bytes > arrival_work * v_bytes).then_some((0, v))
            },
        )?;
        stamp_work(qm, flow, work);
        Ok(admitted)
    }
}

/// Choudhury–Hahne dynamic thresholds: a flow may hold at most
/// `alpha × free_bytes` of the shared buffer.
///
/// The threshold is recomputed against the *current* unused space, so it
/// tightens as the buffer fills and relaxes as it drains — a lone flow
/// gets `alpha / (1 + alpha)` of the whole buffer, while `n` equally
/// loaded flows converge to equal shares with a deliberate slack of free
/// memory held back to absorb new arrivals. No per-flow configuration is
/// needed, which is why dynamic thresholds displaced static tail-drop
/// caps in shared-memory packet buffers.
#[derive(Debug, Clone)]
pub struct DynamicThreshold {
    alpha: f64,
}

impl DynamicThreshold {
    /// Creates the policy with the given `alpha` (typical values 0.5–2).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not strictly positive and finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha.is_finite(),
            "alpha must be positive and finite"
        );
        DynamicThreshold { alpha }
    }

    /// The byte threshold currently applying to every flow.
    pub fn threshold_bytes(&self, qm: &QueueManager) -> f64 {
        let free_bytes = qm.free_segments() as u64 * qm.config().segment_bytes() as u64;
        self.alpha * free_bytes as f64
    }
}

impl DropPolicy for DynamicThreshold {
    fn name(&self) -> &str {
        "dyn-threshold"
    }

    fn offer(
        &mut self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<Admission, Refusal> {
        if (qm.queue_len_bytes(flow) + packet.len() as u64) as f64 > self.threshold_bytes(qm) {
            return Err(Refusal::from(DropReason::FlowBytes));
        }
        match qm.enqueue_packet(flow, packet) {
            Ok(()) => Ok(Admission::default()),
            Err(e) => Err(Refusal::from(DropReason::Engine(e))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::limits::FlowLimits;

    fn engine(segments: u32) -> QueueManager {
        QueueManager::new(
            QmConfig::builder()
                .num_flows(4)
                .num_segments(segments)
                .segment_bytes(64)
                .build()
                .unwrap(),
        )
    }

    /// Parks an open (mid-SAR) 2-segment packet on `flow`: unevictable
    /// occupancy for the push-out tests.
    fn open_two_segments(qm: &mut QueueManager, flow: FlowId) {
        use crate::manager::SegmentPosition;
        qm.enqueue(flow, &[9u8; 64], SegmentPosition::First)
            .unwrap();
        qm.enqueue(flow, &[9u8; 64], SegmentPosition::Middle)
            .unwrap();
    }

    #[test]
    fn buffer_manager_is_a_drop_policy() {
        let mut qm = engine(16);
        let mut bm = BufferManager::new(
            FlowLimits {
                max_bytes: 64,
                max_packets: 8,
            },
            0,
        );
        let p: &mut dyn DropPolicy = &mut bm;
        assert_eq!(p.name(), "tail-drop");
        assert_eq!(
            p.offer(&mut qm, FlowId::new(0), &[0u8; 64]),
            Ok(Admission::default())
        );
        assert_eq!(
            p.offer(&mut qm, FlowId::new(0), &[0u8; 64]),
            Err(Refusal::from(DropReason::FlowBytes))
        );
    }

    #[test]
    fn lqd_pushes_out_the_longest_queue() {
        let mut qm = engine(8);
        let mut lqd = LongestQueueDrop::new(0);
        // Flow 0: 5 segments queued; flow 1: 3 segments. Buffer full,
        // and nobody has paid for it yet.
        for _ in 0..5 {
            let adm = lqd.offer(&mut qm, FlowId::new(0), &[0u8; 64]);
            assert_eq!(adm, Ok(Admission::default()));
        }
        for _ in 0..3 {
            let adm = lqd.offer(&mut qm, FlowId::new(1), &[1u8; 64]);
            assert_eq!(adm, Ok(Admission::default()));
        }
        assert_eq!(qm.free_segments(), 0);
        // Flow 2 arrives: the hog (flow 0) pays, not flow 1.
        let adm = lqd.offer(&mut qm, FlowId::new(2), &[2u8; 64]).unwrap();
        assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
        assert_eq!(qm.queue_len_packets(FlowId::new(0)), 4);
        assert_eq!(qm.queue_len_packets(FlowId::new(1)), 3);
        assert_eq!(qm.queue_len_packets(FlowId::new(2)), 1);
        qm.verify().unwrap();
    }

    #[test]
    fn lqd_evicts_own_head_when_it_is_the_hog() {
        let mut qm = engine(4);
        let mut lqd = LongestQueueDrop::new(0);
        for i in 0..4u8 {
            lqd.offer(&mut qm, FlowId::new(0), &[i; 64]).unwrap();
        }
        let adm = lqd.offer(&mut qm, FlowId::new(0), &[9u8; 64]).unwrap();
        assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
        // The oldest packet was dropped, the freshest kept.
        assert_eq!(qm.dequeue_packet(FlowId::new(0)).unwrap(), vec![1u8; 64]);
        qm.verify().unwrap();
    }

    #[test]
    fn lqd_multi_segment_arrival_evicts_until_it_fits() {
        let mut qm = engine(8);
        let mut lqd = LongestQueueDrop::new(0);
        for _ in 0..8 {
            lqd.offer(&mut qm, FlowId::new(0), &[0u8; 64]).unwrap();
        }
        // 3-segment arrival: three 1-segment packets must be pushed out.
        let adm = lqd.offer(&mut qm, FlowId::new(1), &[1u8; 160]).unwrap();
        assert_eq!(adm.evicted.len(), 3);
        assert_eq!(qm.queue_len_packets(FlowId::new(0)), 5);
        assert_eq!(qm.queue_len_bytes(FlowId::new(1)), 160);
        qm.verify().unwrap();
    }

    #[test]
    fn lqd_drops_arrival_larger_than_buffer_without_evicting() {
        let mut qm = engine(2);
        let mut lqd = LongestQueueDrop::new(0);
        // The buffer already holds a packet; a hopeless arrival must not
        // push anything out on its way to being refused.
        lqd.offer(&mut qm, FlowId::new(1), &[7u8; 64]).unwrap();
        // `Refusal::from` carries an empty victim list.
        assert_eq!(
            lqd.offer(&mut qm, FlowId::new(0), &[0u8; 200]),
            Err(Refusal::from(DropReason::GlobalReserve))
        );
        assert!(qm.is_empty(FlowId::new(0)));
        assert_eq!(qm.queue_len_packets(FlowId::new(1)), 1);
        qm.verify().unwrap();
    }

    #[test]
    fn lqd_refusal_reports_collateral_evictions() {
        let mut qm = engine(4);
        let mut lqd = LongestQueueDrop::new(0);
        // Flow 1 holds two complete 1-segment packets; flow 0 then fills
        // the remaining two segments with one open (mid-SAR) packet.
        lqd.offer(&mut qm, FlowId::new(1), &[1u8; 64]).unwrap();
        lqd.offer(&mut qm, FlowId::new(1), &[2u8; 64]).unwrap();
        open_two_segments(&mut qm, FlowId::new(0));
        assert_eq!(qm.free_segments(), 0);
        // A 3-segment arrival can evict flow 1's two packets, but the
        // open packet is untouchable: the refusal must carry the victims.
        let refusal = lqd.offer(&mut qm, FlowId::new(2), &[3u8; 160]).unwrap_err();
        assert_eq!(refusal.reason, DropReason::GlobalReserve);
        assert_eq!(
            refusal.evicted,
            vec![(FlowId::new(1), 64), (FlowId::new(1), 64)]
        );
        assert!(qm.is_empty(FlowId::new(1)));
        assert!(qm.is_empty(FlowId::new(2)));
        qm.verify().unwrap();
    }

    #[test]
    fn lqd_skips_unevictable_longest_queue() {
        let mut qm = engine(4);
        let mut lqd = LongestQueueDrop::new(0);
        // Flow 0's open packet is the longest queue (128 bytes); flow 1
        // holds one complete 64-byte packet. The next arrival must evict
        // from flow 1 rather than giving up on the mid-SAR hog.
        open_two_segments(&mut qm, FlowId::new(0));
        lqd.offer(&mut qm, FlowId::new(1), &[1u8; 64]).unwrap();
        assert_eq!(qm.free_segments(), 1);
        let adm = lqd.offer(&mut qm, FlowId::new(2), &[2u8; 128]).unwrap();
        assert_eq!(adm.evicted, vec![(FlowId::new(1), 64)]);
        assert_eq!(qm.queue_len_bytes(FlowId::new(2)), 128);
        qm.verify().unwrap();
    }

    #[test]
    fn lqd_respects_reserve() {
        let mut qm = engine(8);
        let mut lqd = LongestQueueDrop::new(4);
        for _ in 0..4 {
            let adm = lqd.offer(&mut qm, FlowId::new(0), &[0u8; 64]);
            assert_eq!(adm, Ok(Admission::default()));
        }
        // Admitting a 5th would dip into the reserve: push-out keeps the
        // reserve intact instead of shrinking it.
        let adm = lqd.offer(&mut qm, FlowId::new(1), &[1u8; 64]).unwrap();
        assert_eq!(qm.free_segments(), 4);
        assert_eq!(adm.evicted, vec![(FlowId::new(0), 64)]);
        qm.verify().unwrap();
    }

    #[test]
    fn dynamic_threshold_tightens_as_buffer_fills() {
        let mut qm = engine(16);
        let mut dt = DynamicThreshold::new(1.0);
        let f = FlowId::new(0);
        // alpha = 1: a lone flow converges to half the buffer (8 of 16
        // segments), instead of a fixed cap.
        let (mut admitted, mut dropped) = (0, 0);
        for _ in 0..16 {
            match dt.offer(&mut qm, f, &[0u8; 64]) {
                Ok(_) => admitted += 1,
                Err(refusal) => {
                    assert_eq!(refusal, Refusal::from(DropReason::FlowBytes));
                    dropped += 1;
                }
            }
        }
        assert_eq!(admitted, 8, "alpha/(1+alpha) of the buffer");
        assert_eq!(dropped, 8);
        // A second flow still finds space below the (tightened) threshold.
        assert!(dt.offer(&mut qm, FlowId::new(1), &[1u8; 64]).is_ok());
        qm.verify().unwrap();
    }

    #[test]
    fn dynamic_threshold_never_evicts() {
        let mut qm = engine(8);
        let mut dt = DynamicThreshold::new(2.0);
        for _ in 0..8 {
            let _ = dt.offer(&mut qm, FlowId::new(0), &[0u8; 64]);
        }
        let before = qm.queue_len_packets(FlowId::new(0));
        let _ = dt.offer(&mut qm, FlowId::new(1), &[1u8; 64]);
        assert_eq!(qm.queue_len_packets(FlowId::new(0)), before);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn zero_alpha_panics() {
        let _ = DynamicThreshold::new(0.0);
    }

    // --- work-aware policies and selector edge cases -------------------

    #[test]
    fn selectors_return_none_on_empty_and_all_mid_sar_buffers() {
        // No occupancy at all, then occupancy that is exclusively
        // mid-SAR open packets: every selector must decline — never
        // panic, never pick an unevictable victim.
        let mut qm = engine(4);
        assert_eq!(longest_evictable(&mut qm), None);
        assert_eq!(costliest_evictable(&qm), None);
        assert_eq!(densest_evictable(&qm), None);
        open_two_segments(&mut qm, FlowId::new(0));
        open_two_segments(&mut qm, FlowId::new(1));
        assert_eq!(qm.free_segments(), 0);
        assert_eq!(longest_evictable(&mut qm), None);
        assert_eq!(costliest_evictable(&qm), None);
        assert_eq!(densest_evictable(&qm), None);
        // And the policies turn that None into a clean refusal.
        let mut po = PushOutLargestWork::new(0);
        let refusal = po
            .offer_work(&mut qm, FlowId::new(2), &[2u8; 64], 0)
            .unwrap_err();
        assert_eq!(refusal.reason, DropReason::GlobalReserve);
        assert!(refusal.evicted.is_empty());
        let mut wb = WorkSizeBalance::new(0);
        let refusal = wb
            .offer_work(&mut qm, FlowId::new(2), &[2u8; 64], 7)
            .unwrap_err();
        assert_eq!(refusal.reason, DropReason::GlobalReserve);
        qm.verify().unwrap();
    }

    #[test]
    fn zero_work_traffic_degrades_to_deterministic_greedy() {
        // On all-zero-work traffic no incumbent is ever strictly more
        // expensive than an arrival, so both work-aware policies must
        // become no-evict greedy admission: buffer fills, then every
        // arrival is refused, nothing is pushed out.
        for aware in [true, false] {
            let mut qm = engine(4);
            let mut po = PushOutLargestWork::new(0);
            let mut wb = WorkSizeBalance::new(0);
            let policy: &mut dyn DropPolicy = if aware { &mut po } else { &mut wb };
            for k in 0..4u8 {
                policy
                    .offer_work(&mut qm, FlowId::new(0), &[k; 64], 0)
                    .unwrap();
            }
            let refusal = policy
                .offer_work(&mut qm, FlowId::new(1), &[9u8; 64], 0)
                .unwrap_err();
            assert_eq!(refusal.reason, DropReason::GlobalReserve);
            assert!(refusal.evicted.is_empty(), "zero-work never evicts");
            assert_eq!(qm.queue_len_packets(FlowId::new(0)), 4, "incumbents kept");
            qm.verify().unwrap();
        }
    }

    #[test]
    fn po_work_evicts_the_costliest_head_first() {
        let mut qm = engine(4);
        let mut po = PushOutLargestWork::new(0);
        for (flow, work) in [(0u8, 3), (1, 9), (2, 5), (3, 1)] {
            let adm = po.offer_work(&mut qm, FlowId::new(flow.into()), &[flow; 64], work);
            assert_eq!(adm, Ok(Admission::default()));
        }
        // Work-2 arrival: the work-9 head pays; the rest cost less than
        // 9 so exactly one eviction happens.
        let adm = po
            .offer_work(&mut qm, FlowId::new(0), &[4u8; 64], 2)
            .unwrap();
        assert_eq!(adm.evicted, vec![(FlowId::new(1), 64)]);
        // Work-8 arrival: costliest remaining is 5 < 8 — refused, and
        // nothing is evicted on the way out.
        let refusal = po
            .offer_work(&mut qm, FlowId::new(1), &[5u8; 64], 8)
            .unwrap_err();
        assert!(refusal.evicted.is_empty());
        qm.verify().unwrap();
    }

    #[test]
    fn work_balance_weighs_work_against_size() {
        // Same work, different sizes: the smaller packet is denser and
        // pays first (1 work / 64 bytes > 1 work / 128 bytes).
        let cfg = crate::config::QmConfig::builder()
            .num_flows(4)
            .num_segments(3)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        let mut wb = WorkSizeBalance::new(0);
        wb.offer_work(&mut qm, FlowId::new(0), &[0u8; 128], 1)
            .unwrap();
        wb.offer_work(&mut qm, FlowId::new(1), &[1u8; 64], 1)
            .unwrap();
        let adm = wb
            .offer_work(&mut qm, FlowId::new(2), &[2u8; 64], 0)
            .unwrap();
        assert_eq!(adm.evicted, vec![(FlowId::new(1), 64)]);
        assert_eq!(
            qm.queue_len_bytes(FlowId::new(0)),
            128,
            "cheaper density kept"
        );
        qm.verify().unwrap();
    }

    #[test]
    fn work_policies_refuse_hopeless_arrivals_outright() {
        let mut qm = engine(2);
        let mut po = PushOutLargestWork::new(0);
        let mut wb = WorkSizeBalance::new(0);
        assert_eq!(
            po.offer_work(&mut qm, FlowId::new(0), &[0u8; 200], 1),
            Err(Refusal::from(DropReason::GlobalReserve))
        );
        assert_eq!(
            wb.offer_work(&mut qm, FlowId::new(0), &[0u8; 200], 1),
            Err(Refusal::from(DropReason::GlobalReserve))
        );
    }

    #[test]
    fn default_offer_work_stamps_work_through_any_policy() {
        // A work-oblivious policy admits via its own rule but the work
        // must still land on the packet for the service model to charge.
        let mut qm = engine(8);
        let mut lqd = LongestQueueDrop::new(0);
        lqd.offer_work(&mut qm, FlowId::new(0), &[0u8; 64], 6)
            .unwrap();
        assert_eq!(qm.head_work(FlowId::new(0)), Some(6));
        let mut dt = DynamicThreshold::new(2.0);
        dt.offer_work(&mut qm, FlowId::new(1), &[1u8; 64], 4)
            .unwrap();
        assert_eq!(qm.head_work(FlowId::new(1)), Some(4));
    }

    // --- the one push-out loop, through all four of its policies -------

    type Offer =
        Box<dyn FnMut(&mut ShardedQueueManager, FlowId, &[u8]) -> Result<Admission, Refusal>>;

    /// The four push-out policies over a 1-shard, 4-segment engine (the
    /// per-engine ones on its only shard), each with `reserve`.
    fn push_out_policies(reserve: u32) -> Vec<(&'static str, Offer)> {
        let mut lqd = LongestQueueDrop::new(reserve);
        let mut po = PushOutLargestWork::new(reserve);
        let mut wb = WorkSizeBalance::new(reserve);
        let mut global = GlobalLqd::new(4, reserve);
        vec![
            (
                "lqd",
                Box::new(move |e, f, p| lqd.offer(e.shard_mut(0), f, p)),
            ),
            (
                "po-work",
                Box::new(move |e, f, p| po.offer(e.shard_mut(0), f, p)),
            ),
            (
                "work-balance",
                Box::new(move |e, f, p| wb.offer(e.shard_mut(0), f, p)),
            ),
            ("global-lqd", Box::new(move |e, f, p| global.offer(e, f, p))),
        ]
    }

    #[test]
    fn push_out_never_evicts_for_an_arrival_the_engine_refuses() {
        use crate::error::QueueError;
        use crate::manager::SegmentPosition;
        let (hog, open, unknown) = (FlowId::new(0), FlowId::new(1), FlowId::new(99));
        for (arrival, on_open_tail) in [(unknown, false), (open, true)] {
            for (name, mut offer) in push_out_policies(0) {
                // A full buffer whose every complete packet any of the
                // four would evict for a zero-work arrival: work 9 each.
                let mut e = ShardedQueueManager::new(*engine(4).config(), 1);
                let qm = e.shard_mut(0);
                qm.enqueue(open, &[7u8; 64], SegmentPosition::First)
                    .unwrap();
                for _ in 0..3 {
                    qm.enqueue_packet_with_work(hog, &[0u8; 64], 9).unwrap();
                }
                assert_eq!(qm.free_segments(), 0);
                let errors = qm.stats().errors;

                let refusal = offer(&mut e, arrival, &[1u8; 64]).unwrap_err();
                let case = format!("{name} on {arrival}");
                assert!(
                    matches!(
                        (refusal.reason, on_open_tail),
                        (DropReason::Engine(QueueError::UnknownFlow { .. }), false)
                            | (DropReason::Engine(QueueError::SarProtocol { .. }), true)
                    ),
                    "{case}: {refusal:?}"
                );
                assert!(refusal.evicted.is_empty(), "{case}: {refusal:?}");
                let qm = e.shard(0);
                assert_eq!(qm.free_segments(), 0, "{case}: occupancy moved");
                assert_eq!(qm.queue_len_packets(hog), 3, "{case}: victim evicted");
                assert_eq!(qm.stats().pkt_deletes, 0, "{case}");
                assert_eq!(
                    qm.stats().errors,
                    errors + 1,
                    "{case}: the engine counts it"
                );
                e.verify().unwrap();
            }
        }
    }

    #[test]
    fn a_reserve_near_u32_max_refuses_instead_of_wrapping() {
        // `needed + reserve` in u32 panics in debug and wraps in release,
        // where the arrival was then admitted with the reserve ignored.
        for (name, mut offer) in push_out_policies(u32::MAX) {
            let mut e = ShardedQueueManager::new(*engine(4).config(), 1);
            assert_eq!(
                offer(&mut e, FlowId::new(0), &[0u8; 64]),
                Err(Refusal::from(DropReason::GlobalReserve)),
                "{name}"
            );
            assert!(e.shard(0).is_empty(FlowId::new(0)), "{name}");
        }
        let mut qm = engine(4);
        let mut bm = BufferManager::new(FlowLimits::UNLIMITED, u32::MAX);
        assert_eq!(
            bm.offer(&mut qm, FlowId::new(0), &[0u8; 64]),
            Err(Refusal::from(DropReason::GlobalReserve))
        );
        assert!(qm.is_empty(FlowId::new(0)));
    }
}
