//! Competitive-analysis arena: online drop policies vs an offline bound.
//!
//! The drop policies of [`crate::policy`] are elsewhere only compared
//! against *each other*; competitive analysis compares them against the
//! **offline optimum** that knows the whole arrival sequence in advance.
//! Matsakis proves Longest Queue Drop is 1.5-competitive for
//! shared-memory switches; Kogan–López-Ortiz–Nikolenko study push-out
//! policies when packets carry heterogeneous *processing* requirements.
//! This module turns those theorems into executable measurements:
//!
//! * [`ArenaTrace`] — a slotted-time arrival sequence of
//!   [`ArenaPacket`]s, each with a byte size and a
//!   required-processing-work dimension;
//! * [`run_online`] — drives any [`DropPolicy`] over a real
//!   [`QueueManager`](crate::manager::QueueManager) under one of two
//!   [`ServiceModel`]s (the Matsakis shared-memory switch, or a single
//!   work-server in the Kogan model where service time depends on
//!   `work`);
//! * [`run_online_global`] — the same slot loop (there is one, over a
//!   [`ShardedQueueManager`]; a lone engine is its 1-shard instance)
//!   driven by [`GlobalLqd`] across several shards, so the global-LQD
//!   regime competes in the same arena;
//! * [`offline_bound`] — a certified upper bound on the offline optimum
//!   for the recorded trace: an **exact** branch-and-bound optimum on
//!   small traces, and an interval/scheduling relaxation on large ones.
//!   Every online run then reports an *empirical competitive ratio*
//!   `goodput(OPT-bound) / goodput(online)` that is provably an upper
//!   bound on the true ratio of that execution.
//!
//! The arena is deliberately slotted and synchronous: one slot admits
//! that slot's arrivals (in trace order), then serves. Determinism is
//! total — every report carries a digest over the delivery sequence,
//! and `table9 --check` runs every experiment twice and compares the rows.

use crate::check::{fnv1a_fold, FNV_OFFSET_BASIS};
use crate::config::QmConfig;
use crate::id::FlowId;
use crate::policy::{Admission, DropPolicy, GlobalLqd, Refusal};
use crate::shard::ShardedQueueManager;
use std::collections::{BinaryHeap, VecDeque};

/// One slotted-time packet arrival in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaPacket {
    /// Arrival slot.
    pub at: u64,
    /// Destination flow (output port).
    pub flow: FlowId,
    /// Payload bytes (≥ 1).
    pub bytes: u32,
    /// Required processing work in effort units (0 = byte-proportional
    /// service only, today's behaviour).
    pub work: u32,
}

/// A slotted-time arrival sequence, sorted by arrival slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArenaTrace {
    packets: Vec<ArenaPacket>,
}

impl ArenaTrace {
    /// Wraps an arrival sequence.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is not sorted by `at` or contains a
    /// zero-byte packet — both are generator bugs worth failing loudly
    /// on.
    pub fn new(packets: Vec<ArenaPacket>) -> Self {
        assert!(
            packets.windows(2).all(|w| w[0].at <= w[1].at),
            "arena trace must be sorted by arrival slot"
        );
        assert!(
            packets.iter().all(|p| p.bytes > 0),
            "arena packets must carry payload"
        );
        ArenaTrace { packets }
    }

    /// The arrivals, in slot order.
    pub fn packets(&self) -> &[ArenaPacket] {
        &self.packets
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total offered bytes.
    pub fn offered_bytes(&self) -> u64 {
        self.packets.iter().map(|p| u64::from(p.bytes)).sum()
    }

    /// The highest flow index referenced, plus one (0 for an empty
    /// trace).
    pub fn flows(&self) -> u32 {
        self.packets
            .iter()
            .map(|p| p.flow.index() + 1)
            .max()
            .unwrap_or(0)
    }
}

/// How admitted packets are served, slot by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceModel {
    /// The Matsakis shared-memory switch: every flow is an output port
    /// that transmits one complete head packet per slot, all ports in
    /// parallel, out of one shared buffer.
    SharedMemorySwitch,
    /// The Kogan et al. heterogeneous-processing model: a single server
    /// picks head packets round-robin; a packet occupies the server for
    /// `ceil(bytes / bytes_per_slot) + work` slots, so zero-work
    /// packets cost exactly their (byte-proportional) transmission
    /// time. The packet leaves the shared buffer when service starts
    /// (the server holds it), and counts as goodput when service
    /// completes.
    WorkServer {
        /// Bytes the server transmits per slot (≥ 1).
        bytes_per_slot: u32,
    },
}

/// The arena: an engine configuration plus a service model.
#[derive(Debug, Clone)]
pub struct ArenaConfig {
    /// The queue-manager configuration backing the run (shared buffer
    /// size, flow count, segment size).
    pub qm: QmConfig,
    /// The service model.
    pub model: ServiceModel,
}

impl ArenaConfig {
    /// The shared-memory switch setup of the Matsakis analysis:
    /// `ports` output ports sharing a buffer of `buffer_segments`
    /// 64-byte segments.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is rejected by the engine (zero
    /// ports or segments).
    pub fn shared_memory(ports: u32, buffer_segments: u32) -> Self {
        ArenaConfig {
            qm: QmConfig::builder()
                .num_flows(ports)
                .num_segments(buffer_segments)
                .segment_bytes(64)
                .build()
                .expect("valid arena configuration"),
            model: ServiceModel::SharedMemorySwitch,
        }
    }

    /// A single work-server over `ports` flows sharing
    /// `buffer_segments` 64-byte segments, transmitting
    /// `bytes_per_slot` bytes per slot.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is rejected by the engine, or if
    /// `bytes_per_slot` is zero.
    pub fn work_server(ports: u32, buffer_segments: u32, bytes_per_slot: u32) -> Self {
        assert!(bytes_per_slot > 0, "bytes_per_slot must be positive");
        ArenaConfig {
            qm: QmConfig::builder()
                .num_flows(ports)
                .num_segments(buffer_segments)
                .segment_bytes(64)
                .build()
                .expect("valid arena configuration"),
            model: ServiceModel::WorkServer { bytes_per_slot },
        }
    }

    /// The shared buffer capacity in bytes.
    pub fn buffer_bytes(&self) -> u64 {
        u64::from(self.qm.num_segments()) * u64::from(self.qm.segment_bytes())
    }

    /// Service effort (slots of server time) for one packet under this
    /// arena's model. 1 for the shared-memory switch (one packet per
    /// port-slot); `ceil(bytes / bytes_per_slot) + work` for the
    /// work-server.
    pub fn effort(&self, bytes: u32, work: u32) -> u64 {
        match self.model {
            ServiceModel::SharedMemorySwitch => 1,
            ServiceModel::WorkServer { bytes_per_slot } => {
                u64::from(bytes.div_ceil(bytes_per_slot).max(1)) + u64::from(work)
            }
        }
    }
}

/// Outcome of one online arena run. All fields are deterministic
/// functions of (config, trace, policy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaReport {
    /// Policy name, from [`DropPolicy::name`].
    pub policy: String,
    /// Arrivals offered.
    pub offered_packets: u64,
    /// Bytes offered.
    pub offered_bytes: u64,
    /// Arrivals admitted to the buffer.
    pub admitted_packets: u64,
    /// Arrivals refused outright.
    pub dropped_packets: u64,
    /// Queued packets pushed out after admission.
    pub evicted_packets: u64,
    /// Bytes pushed out after admission.
    pub evicted_bytes: u64,
    /// Packets fully served.
    pub delivered_packets: u64,
    /// Bytes fully served — the goodput competitive analysis scores.
    pub goodput_bytes: u64,
    /// First slot index at which the arena was fully drained.
    pub finish_slot: u64,
    /// FNV-1a digest of the delivery sequence `(slot, flow, bytes,
    /// work)` plus the final counters.
    pub digest: u64,
}

impl ArenaReport {
    /// The empirical competitive ratio against an offline bound:
    /// `bound / goodput` (≥ 1 whenever the bound is valid; 1.0 for an
    /// empty trace). Since the bound is an *upper* bound on OPT, this
    /// ratio is an upper bound on the true competitive ratio of this
    /// execution.
    pub fn ratio(&self, bound: &OfflineBound) -> f64 {
        if bound.bytes == 0 {
            return 1.0;
        }
        bound.bytes as f64 / self.goodput_bytes.max(1) as f64
    }

    /// Packet conservation: offered = delivered + dropped + evicted +
    /// still-buffered; the arena drains fully, so still-buffered must
    /// be zero.
    pub fn conserved(&self) -> bool {
        self.offered_packets == self.delivered_packets + self.dropped_packets + self.evicted_packets
            && self.admitted_packets == self.delivered_packets + self.evicted_packets
    }
}

/// Internal tally of one online run.
#[derive(Default)]
struct Tally {
    admitted: u64,
    dropped: u64,
    evicted_packets: u64,
    evicted_bytes: u64,
    delivered: u64,
    goodput: u64,
    digest: u64,
}

impl Tally {
    fn new() -> Self {
        Tally {
            digest: FNV_OFFSET_BASIS,
            ..Tally::default()
        }
    }

    fn deliver(&mut self, slot: u64, flow: FlowId, bytes: u64, work: u64) {
        self.delivered += 1;
        self.goodput += bytes;
        self.digest = fnv1a_fold(self.digest, slot);
        self.digest = fnv1a_fold(self.digest, u64::from(flow.index()));
        self.digest = fnv1a_fold(self.digest, bytes);
        self.digest = fnv1a_fold(self.digest, work);
    }

    fn into_report(mut self, policy: &str, trace: &ArenaTrace, finish_slot: u64) -> ArenaReport {
        self.digest = fnv1a_fold(self.digest, self.delivered);
        self.digest = fnv1a_fold(self.digest, self.goodput);
        self.digest = fnv1a_fold(self.digest, self.dropped);
        self.digest = fnv1a_fold(self.digest, self.evicted_packets);
        self.digest = fnv1a_fold(self.digest, finish_slot);
        ArenaReport {
            policy: policy.to_string(),
            offered_packets: trace.len() as u64,
            offered_bytes: trace.offered_bytes(),
            admitted_packets: self.admitted,
            dropped_packets: self.dropped,
            evicted_packets: self.evicted_packets,
            evicted_bytes: self.evicted_bytes,
            delivered_packets: self.delivered,
            goodput_bytes: self.goodput,
            finish_slot,
            digest: self.digest,
        }
    }
}

/// Deterministic payload for arrival `idx`: the index in the lead byte
/// so digests distinguish packets, constant filler after.
fn payload(idx: usize, bytes: u32) -> Vec<u8> {
    let mut p = vec![0xA5u8; bytes as usize];
    p[0] = idx as u8;
    p
}

/// The in-service job of the work-server.
struct ServerJob {
    flow: FlowId,
    bytes: u64,
    work: u64,
    remaining: u64,
}

/// The slot loop of every online run (its contract is [`run_online`]'s):
/// `offer` admits into an engine of `num_shards` shards, each configured
/// with `cfg.qm`. Returns the tally and the finish slot.
fn run_slots<F>(
    cfg: &ArenaConfig,
    trace: &ArenaTrace,
    num_shards: usize,
    mut offer: F,
) -> (Tally, u64)
where
    F: FnMut(&mut ShardedQueueManager, &ArenaPacket, &[u8]) -> Result<Admission, Refusal>,
{
    let flows = cfg.qm.num_flows();
    assert!(
        trace.flows() <= flows,
        "trace uses flow {} but the arena has {flows}",
        trace.flows().saturating_sub(1)
    );
    let mut engine = ShardedQueueManager::new(cfg.qm, num_shards);
    let mut tally = Tally::new();
    let mut server: Option<ServerJob> = None;
    let mut rr = 0u32; // round-robin pointer of the work-server
    let mut i = 0usize;
    let mut slot = 0u64;
    let n = trace.len();
    loop {
        // Admission phase: this slot's arrivals, in trace order.
        while i < n && trace.packets[i].at == slot {
            let p = &trace.packets[i];
            let evicted = match offer(&mut engine, p, &payload(i, p.bytes)) {
                Ok(adm) => {
                    tally.admitted += 1;
                    adm.evicted
                }
                Err(refusal) => {
                    tally.dropped += 1;
                    refusal.evicted
                }
            };
            tally.evicted_packets += evicted.len() as u64;
            tally.evicted_bytes += evicted.iter().map(|&(_, b)| u64::from(b)).sum::<u64>();
            i += 1;
        }
        // Service phase.
        match cfg.model {
            ServiceModel::SharedMemorySwitch => {
                for f in 0..flows {
                    let flow = FlowId::new(f);
                    let qm = engine.shard_for_mut(flow);
                    if qm.complete_packets(flow) > 0 {
                        let work = u64::from(qm.head_work(flow).unwrap_or(0));
                        // Only the length is read: the bytes stay where the
                        // engine keeps them.
                        let len = qm
                            .dequeue_packet_with(flow, |_| {})
                            .expect("complete head packet");
                        tally.deliver(slot, flow, len as u64, work);
                    }
                }
            }
            ServiceModel::WorkServer { .. } => {
                if server.is_none() {
                    // Round-robin pick among flows with a complete head.
                    for off in 0..flows {
                        let flow = FlowId::new((rr + off) % flows);
                        let qm = engine.shard_for_mut(flow);
                        if qm.complete_packets(flow) > 0 {
                            let work = u64::from(qm.head_work(flow).unwrap_or(0));
                            let bytes = qm
                                .dequeue_packet_with(flow, |_| {})
                                .expect("complete head packet")
                                as u64;
                            let remaining = cfg.effort(bytes as u32, work as u32);
                            server = Some(ServerJob {
                                flow,
                                bytes,
                                work,
                                remaining,
                            });
                            rr = (flow.index() + 1) % flows;
                            break;
                        }
                    }
                }
                if let Some(job) = server.as_mut() {
                    job.remaining -= 1;
                    if job.remaining == 0 {
                        let done = server.take().expect("job in service");
                        tally.deliver(slot, done.flow, done.bytes, done.work);
                    }
                }
            }
        }
        // Drained and no arrivals left: done.
        let buffered = engine.used_segments() > 0;
        if i >= n && !buffered && server.is_none() {
            break;
        }
        // Skip idle gaps between bursts in one step.
        slot += 1;
        if i < n && !buffered && server.is_none() && trace.packets[i].at > slot {
            slot = trace.packets[i].at;
        }
    }
    engine
        .verify()
        .expect("arena run must preserve engine invariants");
    (tally, slot)
}

/// Runs `policy` online over the trace and returns its report.
///
/// Each slot first offers that slot's arrivals to the policy (in trace
/// order, via [`DropPolicy::offer_work`]), then serves according to the
/// [`ServiceModel`]. The run continues past the last arrival until the
/// buffer (and server) fully drain, so goodput counts every admitted
/// packet that survived — exactly the quantity competitive analysis
/// compares to OPT.
///
/// # Panics
///
/// Panics if a trace flow is out of range for `cfg.qm`.
pub fn run_online(
    cfg: &ArenaConfig,
    trace: &ArenaTrace,
    policy: &mut dyn DropPolicy,
) -> ArenaReport {
    // One engine: the 1-shard instance of the loop.
    let (tally, finish_slot) = run_slots(cfg, trace, 1, |engine, p, data| {
        policy.offer_work(engine.shard_mut(0), p.flow, data, p.work)
    });
    tally.into_report(policy.name(), trace, finish_slot)
}

/// Runs [`GlobalLqd`] over a sharded engine in the same arena
/// (shared-memory switch model only — the policy guards a shared buffer,
/// which is that regime). The trace's work stamps are not offered: the
/// policy is work-oblivious and that model serves a packet in one slot
/// whatever its work, so deliveries are recorded with work 0.
///
/// The engine uses the shared-buffer pairing of [`GlobalLqd::shared`]:
/// every shard is configured with the full buffer, and the policy's
/// global budget is what binds.
///
/// # Panics
///
/// Panics if `cfg.model` is not [`ServiceModel::SharedMemorySwitch`]
/// or a trace flow is out of range.
pub fn run_online_global(
    cfg: &ArenaConfig,
    trace: &ArenaTrace,
    num_shards: usize,
    policy: &mut GlobalLqd,
) -> ArenaReport {
    assert!(
        matches!(cfg.model, ServiceModel::SharedMemorySwitch),
        "global arena runs model the shared-memory switch"
    );
    let (tally, finish_slot) = run_slots(cfg, trace, num_shards, |engine, p, data| {
        policy.offer(engine, p.flow, data)
    });
    tally.into_report("global-lqd", trace, finish_slot)
}

/// A certified upper bound on the offline-optimal goodput for a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfflineBound {
    /// The bound actually used: `min(interval_bytes, exact_bytes)`.
    pub bytes: u64,
    /// The interval/scheduling relaxation (always computed).
    pub interval_bytes: u64,
    /// The exact branch-and-bound optimum, when the trace is small
    /// enough (and the model admits it — shared-memory switch only).
    pub exact_bytes: Option<u64>,
}

/// Largest trace the exact branch-and-bound is attempted on.
pub const EXACT_MAX_PACKETS: usize = 18;

/// Computes the offline bound for `trace` under `cfg`.
///
/// Always computes the interval relaxation: for a set of cut slots `t`,
/// OPT's goodput is at most `serve_cap(t) + buffered(t) + future(t)` —
/// bytes serveable by slot `t` under the service model's scheduling
/// constraints, plus at most one full buffer still queued at `t` (plus
/// one in-service packet for the work-server), plus everything arriving
/// after `t`; the bound is the minimum over cuts. `serve_cap` is exact
/// per-port scheduling (greedy largest-available-job, optimal for unit
/// jobs with release times and a common deadline) for the switch, and a
/// fractional-knapsack effort relaxation for the work-server.
///
/// On shared-memory traces of at most [`EXACT_MAX_PACKETS`] arrivals it
/// additionally runs an exact branch-and-bound over admission subsets
/// (offline OPT never benefits from push-out — anything it would evict
/// it simply does not admit — so admission decisions are the whole
/// search space) and takes the minimum of the two.
pub fn offline_bound(cfg: &ArenaConfig, trace: &ArenaTrace) -> OfflineBound {
    if trace.is_empty() {
        return OfflineBound {
            bytes: 0,
            interval_bytes: 0,
            exact_bytes: Some(0),
        };
    }
    let interval = interval_bound(cfg, trace);
    let exact = if matches!(cfg.model, ServiceModel::SharedMemorySwitch)
        && trace.len() <= EXACT_MAX_PACKETS
    {
        Some(exact_shared_opt(cfg, trace))
    } else {
        None
    };
    OfflineBound {
        bytes: exact.map_or(interval, |e| e.min(interval)),
        interval_bytes: interval,
        exact_bytes: exact,
    }
}

/// The interval relaxation (see [`offline_bound`]): the [`cut_bound`] of
/// the whole trace, or of each port's arrivals alone summed over ports,
/// whichever is lower. The per-port sum grants each port the whole buffer
/// and (for the work-server) the whole server; it is sound because
/// per-port goodputs sum to the total goodput, and much tighter than one
/// global cut on traces with several well-separated bursts, where one cut
/// can charge the buffer bound only once.
fn interval_bound(cfg: &ArenaConfig, trace: &ArenaTrace) -> u64 {
    let pkts = trace.packets();
    let port = |f| -> Vec<ArenaPacket> {
        let mine = pkts.iter().filter(|p| p.flow == FlowId::new(f));
        mine.copied().collect()
    };
    let per_port: u64 = (0..trace.flows()).map(|f| cut_bound(cfg, &port(f))).sum();
    cut_bound(cfg, pkts).min(per_port)
}

/// The least, over cut slots `t`, of the bytes serveable by `t`, plus one
/// full buffer still queued at `t` (and one in-service packet for the
/// work-server), plus every byte arriving after `t` — and never more than
/// the bytes `pkts` offer. The cuts are every distinct arrival slot
/// (subsampled when plentiful: any subset still yields a valid bound) and
/// a horizon by which everything is serveable, whose cut never binds.
fn cut_bound(cfg: &ArenaConfig, pkts: &[ArenaPacket]) -> u64 {
    let mut cuts: Vec<u64> = pkts.iter().map(|p| p.at).collect();
    cuts.dedup();
    if cuts.len() > 48 {
        let stride = cuts.len().div_ceil(48);
        cuts = cuts.iter().copied().step_by(stride).collect();
    }
    let effort: u64 = pkts.iter().map(|p| cfg.effort(p.bytes, p.work)).sum();
    cuts.push(pkts.last().map_or(0, |p| p.at) + pkts.len() as u64 + effort);
    let server_slack = match cfg.model {
        ServiceModel::SharedMemorySwitch => 0,
        // The work-server holds the in-service packet outside the buffer.
        ServiceModel::WorkServer { .. } => {
            u64::from(pkts.iter().map(|p| p.bytes).max().unwrap_or(0))
        }
    };
    let offered: u64 = pkts.iter().map(|p| u64::from(p.bytes)).sum();
    let mut best = offered;
    for &t in &cuts {
        let future: u64 = pkts
            .iter()
            .filter(|p| p.at > t)
            .map(|p| u64::from(p.bytes))
            .sum();
        let cap = match cfg.model {
            ServiceModel::SharedMemorySwitch => serve_cap_shared(cfg, pkts, t),
            ServiceModel::WorkServer { .. } => serve_cap_work(cfg, pkts, t),
        };
        best = best.min(cap + cfg.buffer_bytes() + server_slack + future);
    }
    best
}

/// Max bytes the shared-memory switch can deliver by slot `t`: each
/// port serves one packet per slot, a packet is serveable in
/// `[arrival, t]`; greedy largest-available-per-slot is optimal for
/// unit jobs with release times and a common deadline.
fn serve_cap_shared(cfg: &ArenaConfig, pkts: &[ArenaPacket], t: u64) -> u64 {
    let mut total = 0u64;
    for f in 0..cfg.qm.num_flows() {
        let flow = FlowId::new(f);
        // Arrival order within a flow is already by slot.
        let jobs: Vec<&ArenaPacket> = pkts
            .iter()
            .filter(|p| p.flow == flow && p.at <= t)
            .collect();
        if jobs.is_empty() {
            continue;
        }
        let mut heap: BinaryHeap<u32> = BinaryHeap::new();
        let mut idx = 0usize;
        let mut slot = jobs[0].at;
        while slot <= t {
            while idx < jobs.len() && jobs[idx].at <= slot {
                heap.push(jobs[idx].bytes);
                idx += 1;
            }
            match heap.pop() {
                Some(bytes) => total += u64::from(bytes),
                None => {
                    if idx >= jobs.len() {
                        break;
                    }
                    slot = jobs[idx].at;
                    continue;
                }
            }
            slot += 1;
        }
    }
    total
}

/// Max bytes the work-server can deliver by slot `t`: at most
/// `t - first_arrival + 1` effort units of service exist; fill them
/// fractionally with the densest (bytes per effort) packets arrived by
/// `t`, rounding the partial packet's bytes up.
fn serve_cap_work(cfg: &ArenaConfig, pkts: &[ArenaPacket], t: u64) -> u64 {
    let Some(first_at) = pkts.iter().map(|p| p.at).min() else {
        return 0;
    };
    if t < first_at {
        return 0;
    }
    let mut jobs: Vec<(u64, u64)> = pkts
        .iter()
        .filter(|p| p.at <= t)
        .map(|p| (u64::from(p.bytes), cfg.effort(p.bytes, p.work)))
        .collect();
    // Densest first: bytes/effort descending, exact cross-multiplied.
    jobs.sort_by(|a, b| (b.0 * a.1).cmp(&(a.0 * b.1)));
    let mut capacity = t - first_at + 1;
    let mut total = 0u64;
    for (bytes, effort) in jobs {
        if capacity == 0 {
            break;
        }
        if effort <= capacity {
            capacity -= effort;
            total += bytes;
        } else {
            total += (bytes * capacity).div_ceil(effort);
            capacity = 0;
        }
    }
    total
}

/// Exact offline optimum for the shared-memory switch on a small
/// trace, by branch-and-bound over admission decisions.
///
/// Offline OPT never needs push-out (anything it would evict it simply
/// declines to admit), never idles a port with a complete packet, and
/// every admitted packet is eventually delivered (no deadlines) — so
/// the optimum is the maximum total bytes over admission subsets whose
/// greedy simulation never overflows the buffer. Exposed for the
/// differential oracle tests.
pub fn exact_shared_opt(cfg: &ArenaConfig, trace: &ArenaTrace) -> u64 {
    assert!(
        matches!(cfg.model, ServiceModel::SharedMemorySwitch),
        "exact optimum is implemented for the shared-memory switch"
    );
    let pkts = trace.packets();
    if pkts.is_empty() {
        return 0;
    }
    let seg_bytes = cfg.qm.segment_bytes();
    let cap_segs = cfg.qm.num_segments();
    let flows = cfg.qm.num_flows() as usize;
    // Suffix byte sums for the optimistic prune.
    let mut suffix = vec![0u64; pkts.len() + 1];
    for i in (0..pkts.len()).rev() {
        suffix[i] = suffix[i + 1] + u64::from(pkts[i].bytes);
    }
    let mut best = 0u64;
    let queues: Vec<VecDeque<u32>> = vec![VecDeque::new(); flows];
    dfs_shared(
        pkts, &suffix, 0, pkts[0].at, &queues, 0, 0, seg_bytes, cap_segs, &mut best,
    );
    best
}

/// One branch of the exact search: `i` is the next arrival to decide,
/// `slot` the current slot (all service up to `slot` exclusive already
/// applied), `occ` the buffer occupancy in segments, `acc` the bytes
/// admitted so far.
#[allow(clippy::too_many_arguments)]
fn dfs_shared(
    pkts: &[ArenaPacket],
    suffix: &[u64],
    i: usize,
    slot: u64,
    queues: &[VecDeque<u32>],
    occ: u32,
    acc: u64,
    seg_bytes: u32,
    cap_segs: u32,
    best: &mut u64,
) {
    if acc + suffix[i] <= *best {
        return; // cannot beat the incumbent
    }
    if i == pkts.len() {
        // Every admitted packet drains eventually: goodput = admitted.
        *best = (*best).max(acc);
        return;
    }
    let (mut slot, mut occ) = (slot, occ);
    let mut queues = queues.to_vec();
    if pkts[i].at > slot {
        // Serve the gap: each port transmits its head once per slot.
        let gap = pkts[i].at - slot;
        for _ in 0..gap {
            let mut any = false;
            for q in queues.iter_mut() {
                if let Some(bytes) = q.pop_front() {
                    occ -= bytes.div_ceil(seg_bytes);
                    any = true;
                }
            }
            if !any {
                break; // drained; further slots are no-ops
            }
        }
        slot = pkts[i].at;
    }
    let p = pkts[i];
    let segs = p.bytes.div_ceil(seg_bytes);
    // Branch 1: admit, when it fits.
    if occ + segs <= cap_segs {
        let mut admitted = queues.clone();
        admitted[p.flow.index() as usize].push_back(p.bytes);
        dfs_shared(
            pkts,
            suffix,
            i + 1,
            slot,
            &admitted,
            occ + segs,
            acc + u64::from(p.bytes),
            seg_bytes,
            cap_segs,
            best,
        );
    }
    // Branch 2: decline.
    dfs_shared(
        pkts,
        suffix,
        i + 1,
        slot,
        &queues,
        occ,
        acc,
        seg_bytes,
        cap_segs,
        best,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::{BufferManager, FlowLimits};
    use crate::policy::{LongestQueueDrop, PushOutLargestWork, WorkSizeBalance};

    fn unit(at: u64, flow: u32) -> ArenaPacket {
        ArenaPacket {
            at,
            flow: FlowId::new(flow),
            bytes: 64,
            work: 0,
        }
    }

    #[test]
    fn empty_trace_is_trivial() {
        let cfg = ArenaConfig::shared_memory(2, 4);
        let trace = ArenaTrace::default();
        let mut lqd = LongestQueueDrop::new(0);
        let rep = run_online(&cfg, &trace, &mut lqd);
        assert_eq!(rep.goodput_bytes, 0);
        assert!(rep.conserved());
        let bound = offline_bound(&cfg, &trace);
        assert_eq!(bound.bytes, 0);
        assert_eq!(rep.ratio(&bound), 1.0);
    }

    #[test]
    fn underload_is_lossless_and_optimal() {
        // 2 ports, one packet each per slot: everything is delivered and
        // the bound is exactly the offered bytes.
        let cfg = ArenaConfig::shared_memory(2, 8);
        let trace = ArenaTrace::new(vec![unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]);
        let mut lqd = LongestQueueDrop::new(0);
        let rep = run_online(&cfg, &trace, &mut lqd);
        assert_eq!(rep.goodput_bytes, 4 * 64);
        assert!(rep.conserved());
        let bound = offline_bound(&cfg, &trace);
        assert_eq!(bound.bytes, 4 * 64);
        assert_eq!(bound.exact_bytes, Some(4 * 64));
        assert_eq!(rep.ratio(&bound), 1.0);
    }

    #[test]
    fn overload_bound_dominates_every_policy() {
        // One port, tiny buffer, a burst far beyond capacity.
        let cfg = ArenaConfig::shared_memory(2, 4);
        let mut arrivals = Vec::new();
        for k in 0..12 {
            arrivals.push(unit(k / 4, (k % 2) as u32));
        }
        let trace = ArenaTrace::new(arrivals);
        let bound = offline_bound(&cfg, &trace);
        let mut lqd = LongestQueueDrop::new(0);
        let rep = run_online(&cfg, &trace, &mut lqd);
        assert!(rep.conserved());
        assert!(
            bound.bytes >= rep.goodput_bytes,
            "bound {} < online {}",
            bound.bytes,
            rep.goodput_bytes
        );
        // The exact optimum ran and is itself within the relaxation.
        let exact = bound.exact_bytes.expect("small trace");
        assert!(exact <= bound.interval_bytes);
    }

    #[test]
    fn run_online_is_deterministic() {
        let cfg = ArenaConfig::shared_memory(4, 8);
        let trace = ArenaTrace::new((0..16).map(|k| unit(k / 6, (k % 4) as u32)).collect());
        let mut a = LongestQueueDrop::new(0);
        let mut b = LongestQueueDrop::new(0);
        let ra = run_online(&cfg, &trace, &mut a);
        let rb = run_online(&cfg, &trace, &mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn work_server_charges_work_in_service_time() {
        // Two identical-size packets, one with work 3: the drain takes
        // effort 1 + 4 = 5 slots instead of 2.
        let cfg = ArenaConfig::work_server(2, 8, 64);
        let trace = ArenaTrace::new(vec![
            ArenaPacket {
                at: 0,
                flow: FlowId::new(0),
                bytes: 64,
                work: 0,
            },
            ArenaPacket {
                at: 0,
                flow: FlowId::new(1),
                bytes: 64,
                work: 3,
            },
        ]);
        let mut lqd = LongestQueueDrop::new(0);
        let rep = run_online(&cfg, &trace, &mut lqd);
        assert_eq!(rep.goodput_bytes, 128);
        assert_eq!(rep.finish_slot, 4, "slots 0..=4: effort 1 then effort 4");
        assert!(rep.conserved());
    }

    #[test]
    fn zero_work_server_is_byte_proportional() {
        // With bytes_per_slot = 64, a 128-byte zero-work packet costs 2
        // slots: service time is proportional to bytes, the legacy rule.
        let cfg = ArenaConfig::work_server(1, 8, 64);
        let trace = ArenaTrace::new(vec![ArenaPacket {
            at: 0,
            flow: FlowId::new(0),
            bytes: 128,
            work: 0,
        }]);
        let mut lqd = LongestQueueDrop::new(0);
        let rep = run_online(&cfg, &trace, &mut lqd);
        assert_eq!(rep.goodput_bytes, 128);
        assert_eq!(rep.finish_slot, 1, "two slots of service");
    }

    #[test]
    fn work_aware_policies_beat_oblivious_on_heavy_bursts() {
        // Buffer of 4: a burst of 4 expensive packets then 4 cheap ones.
        // Work-oblivious tail-drop strands the server on the heavies;
        // the push-out policies displace them for cheap goodput.
        let cfg = ArenaConfig::work_server(2, 4, 64);
        let mut arrivals: Vec<ArenaPacket> = (0..4)
            .map(|_| ArenaPacket {
                at: 0,
                flow: FlowId::new(0),
                bytes: 64,
                work: 9,
            })
            .collect();
        arrivals.extend((0..4).map(|_| ArenaPacket {
            at: 1,
            flow: FlowId::new(1),
            bytes: 64,
            work: 0,
        }));
        let trace = ArenaTrace::new(arrivals);
        let mut oblivious = BufferManager::new(
            FlowLimits {
                max_bytes: u64::MAX,
                max_packets: u32::MAX,
            },
            0,
        );
        let mut po = PushOutLargestWork::new(0);
        let mut wb = WorkSizeBalance::new(0);
        let r_tail = run_online(&cfg, &trace, &mut oblivious);
        let r_po = run_online(&cfg, &trace, &mut po);
        let r_wb = run_online(&cfg, &trace, &mut wb);
        assert!(
            r_po.finish_slot < r_tail.finish_slot,
            "push-out drains cheap packets faster: {} vs {}",
            r_po.finish_slot,
            r_tail.finish_slot
        );
        assert!(r_po.evicted_packets > 0);
        assert_eq!(r_wb.digest, r_po.digest, "same victims at equal sizes");
        for r in [&r_tail, &r_po, &r_wb] {
            assert!(r.conserved());
            let bound = offline_bound(&cfg, &trace);
            assert!(bound.bytes >= r.goodput_bytes);
        }
    }

    #[test]
    fn global_runner_matches_local_lqd_shape() {
        let cfg = ArenaConfig::shared_memory(8, 16);
        let trace = ArenaTrace::new((0..32).map(|k| unit(k / 10, (k % 8) as u32)).collect());
        let mut global = GlobalLqd::new(16, 0);
        let rep = run_online_global(&cfg, &trace, 2, &mut global);
        assert!(rep.conserved());
        assert_eq!(rep.policy, "global-lqd");
        let bound = offline_bound(&cfg, &trace);
        assert!(bound.bytes >= rep.goodput_bytes);
    }

    #[test]
    fn exact_beats_greedy_when_declining_pays() {
        // Port 0 floods a 2-segment buffer at slot 0; port 1's burst at
        // slot 1 needs the space. The exact optimum must consider
        // declining a hog packet greedy admission would take.
        let cfg = ArenaConfig::shared_memory(2, 2);
        let trace = ArenaTrace::new(vec![unit(0, 0), unit(0, 0), unit(1, 1), unit(1, 1)]);
        let exact = exact_shared_opt(&cfg, &trace);
        // Slot 0: admit both port-0 packets (serve one, one queued).
        // Slot 1: one slot free after service; admit one port-1 packet,
        // serve both ports. Slot 2: drain. Total 3 of 4 packets.
        assert_eq!(exact, 3 * 64);
        let bound = offline_bound(&cfg, &trace);
        assert_eq!(bound.bytes, 3 * 64);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival slot")]
    fn unsorted_trace_panics() {
        let _ = ArenaTrace::new(vec![unit(1, 0), unit(0, 0)]);
    }
}
