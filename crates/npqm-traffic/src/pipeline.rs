//! The closed-loop simulation pipeline: traffic → admission → queues →
//! scheduler → egress.
//!
//! Everything upstream of this module is a component: arrival processes,
//! size distributions and flow mixes ([`crate::arrival`], [`crate::size`],
//! [`crate::flows`]), the queue engine
//! ([`npqm_core::QueueManager`]), buffer-management policies
//! ([`npqm_core::policy::DropPolicy`]) and egress schedulers
//! ([`npqm_core::sched::FlowScheduler`]). This module wires them into one
//! discrete-event loop on the [`npqm_sim::EventQueue`]: a packet source
//! offers traffic to a pluggable drop policy, admitted packets queue per
//! flow, and a single egress server drains them through a scheduler at a
//! configurable line rate — so buffer-management policies can finally be
//! *exercised and measured* instead of only unit-tested.
//!
//! The loop keeps a per-flow ledger with one slot — enqueue time, length
//! and a marker byte stamped into the frame — for every packet in the
//! buffer, which yields per-flow latency and an end-to-end integrity
//! check: a delivered frame whose length *or marker* differs from what
//! was admitted for that slot means a torn or cross-linked packet (the
//! corruption class the open-tail fixes in `npqm-core` close) and is
//! counted, never ignored.
//!
//! Every pipeline shape — dense, shard-local sharded, globally admitted
//! — is built through [`PipelineBuilder`] and runs the one event loop in
//! this module; the shapes differ only in arrival source and admission
//! scope. (The streaming service's lane merge in [`crate::service`] is
//! the other loop, kept apart because it is the faster form; each pins
//! its own tie rule.) Egress is a fixed line rate; what the *memory*
//! organisation sustains is [`crate::scale::run_memory_scale`]'s
//! question, not a loop's.
//!
//! # Example
//!
//! ```
//! use npqm_core::policy::LongestQueueDrop;
//! use npqm_traffic::{PipelineBuilder, PipelineConfig};
//!
//! let cfg = PipelineConfig::small_demo(7);
//! let report = PipelineBuilder::new(&cfg)
//!     .admission(|_| LongestQueueDrop::new(0))
//!     .egress_spec("drr:1518")
//!     .run()
//!     .aggregate;
//! assert!(report.delivered_pkts > 0);
//! assert_eq!(report.integrity_violations, 0);
//! ```

use crate::arrival::ArrivalProcess;
use crate::builder::PipelineBuilder;
use crate::flows::FlowMix;
use crate::service::{arrival_stream, ArrivalEvent, LoopState};
use crate::size::SizeDistribution;
use npqm_core::limits::{BufferManager, FlowLimits};
use npqm_core::policy::{
    Admission, DropPolicy, DynamicThreshold, GlobalLqd, LongestQueueDrop, Refusal,
};
use npqm_core::sched::FlowScheduler;
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::{MetricsRegistry, Telemetry, TelemetryConfig, TelemetryReport};
use npqm_core::{FlowId, QmConfig, QmStats, QueueManager};
use npqm_sim::stats::MeanVar;
use npqm_sim::time::Picos;
use npqm_sim::EventQueue;

/// Configuration of one closed-loop run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Engine configuration (buffer size, segment size, flow count).
    pub qm: QmConfig,
    /// Packet inter-arrival process.
    pub arrivals: ArrivalProcess,
    /// Packet-size distribution.
    pub sizes: SizeDistribution,
    /// Which flow each packet belongs to.
    pub mix: FlowMix,
    /// Egress (server) line rate in Gbit/s.
    pub egress_gbps: f64,
    /// Arrivals are generated until this instant; the backlog then drains.
    pub duration: Picos,
    /// RNG seed (arrival jitter, sizes and flow choice are all derived
    /// from it, so a run is a pure function of this configuration).
    pub seed: u64,
    /// Deterministic observability (see [`npqm_core::telemetry`]):
    /// `Some` records virtual-time trace events, a metrics registry and
    /// a drop-attribution ledger into the report's `telemetry` field.
    /// `None` (the default) costs one branch on the hot paths and is
    /// proven behaviour-neutral by `state_digest` equality.
    pub telemetry: Option<TelemetryConfig>,
}

impl PipelineConfig {
    /// A small, fast scenario for doc-tests and smoke tests: 4 flows,
    /// light overload, ~1 µs of traffic.
    pub fn small_demo(seed: u64) -> Self {
        PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(4)
                .num_segments(64)
                .segment_bytes(64)
                .build()
                .expect("static configuration is valid"),
            arrivals: ArrivalProcess::Poisson {
                mean_interval: Picos::from_nanos(200),
            },
            sizes: SizeDistribution::Fixed(64),
            mix: FlowMix::uniform(4),
            egress_gbps: 2.0,
            duration: Picos::from_micros(1),
            seed,
            telemetry: None,
        }
    }

    /// The bursty-overload scenario `table6` reports: Zipf-skewed on-off
    /// bursts offering ~9.3 Gbit/s of IMIX traffic to a 6 Gbit/s egress
    /// through a 32 KiB shared buffer. This is the regime where
    /// buffer-management policy choice dominates goodput: static per-flow
    /// partitions waste buffer that the bursting (popular) flows need,
    /// while push-out and dynamic thresholds share it.
    pub fn bursty_overload(seed: u64) -> Self {
        PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(16)
                .num_segments(512)
                .segment_bytes(64)
                .build()
                .expect("static configuration is valid"),
            arrivals: ArrivalProcess::OnOff {
                on_interval: Picos::from_nanos(60),
                mean_burst: 24.0,
                mean_off: Picos::from_nanos(6_000),
            },
            sizes: SizeDistribution::Imix,
            mix: FlowMix::zipf(16, 1.2),
            egress_gbps: 6.0,
            duration: Picos::from_micros(2_000),
            seed,
            telemetry: None,
        }
    }

    /// Mean offered load in Gbit/s implied by the arrival process and
    /// size distribution.
    pub fn offered_gbps(&self) -> f64 {
        self.arrivals.mean_rate_pps() * self.sizes.mean() * 8.0 / 1e9
    }

    /// The offered workload, drawn lazily (see [`arrival_stream`]).
    pub(crate) fn arrival_stream(&self) -> impl Iterator<Item = ArrivalEvent> + '_ {
        arrival_stream(
            self.arrivals,
            &self.mix,
            &self.sizes,
            self.seed,
            self.duration,
        )
    }
}

/// Per-flow outcome of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct FlowReport {
    /// Packets the source offered to the policy.
    pub offered_pkts: u64,
    /// Payload bytes offered.
    pub offered_bytes: u64,
    /// Packets the policy admitted into the buffer.
    pub admitted_pkts: u64,
    /// Arriving packets the policy refused.
    pub dropped_pkts: u64,
    /// Queued packets pushed out again by the policy (LQD).
    pub evicted_pkts: u64,
    /// Packets delivered at egress.
    pub delivered_pkts: u64,
    /// Payload bytes delivered at egress.
    pub delivered_bytes: u64,
    /// Queueing + transmission delay of delivered packets, in ns.
    pub latency_ns: MeanVar,
}

/// Aggregate outcome of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-flow breakdown, indexed by flow id.
    pub flows: Vec<FlowReport>,
    /// Packets offered across all flows.
    pub offered_pkts: u64,
    /// Bytes offered across all flows.
    pub offered_bytes: u64,
    /// Arriving packets refused across all flows.
    pub dropped_pkts: u64,
    /// Queued packets pushed out across all flows.
    pub evicted_pkts: u64,
    /// Packets delivered at egress.
    pub delivered_pkts: u64,
    /// Bytes delivered at egress.
    pub delivered_bytes: u64,
    /// Delay of all delivered packets, in ns.
    pub latency_ns: MeanVar,
    /// Time of the last event (arrivals plus backlog drain).
    pub makespan: Picos,
    /// Frames that did not match their ledger slot: delivered frames are
    /// checked for length *and* marker byte; evicted frames for length
    /// only (their payload is gone by eviction time). Any mismatch means
    /// a torn or cross-linked packet. Always 0 on a healthy engine.
    pub integrity_violations: u64,
    /// This loop's telemetry recorder (events, counts, drop ledger),
    /// populated when the run was configured with
    /// [`PipelineConfig::telemetry`]. `None` on untraced runs and on
    /// merged aggregate reports (the merged view lives in
    /// [`ShardedPipelineReport::telemetry`]).
    pub telemetry: Option<Telemetry>,
}

impl PipelineReport {
    /// Delivered payload throughput in Gbit/s over the whole run
    /// (1 Gbit/s ≡ 1 bit/ns).
    pub fn goodput_gbps(&self) -> f64 {
        if self.makespan == Picos::ZERO {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / self.makespan.as_nanos_f64()
    }

    /// Fraction of offered packets that were refused or pushed out.
    pub fn loss_fraction(&self) -> f64 {
        if self.offered_pkts == 0 {
            return 0.0;
        }
        (self.dropped_pkts + self.evicted_pkts) as f64 / self.offered_pkts as f64
    }
}

/// An egress completion: the packet a server finished transmitting,
/// with its ledger enqueue instant (for the delivery latency).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxDone {
    pub(crate) flow: FlowId,
    pub(crate) bytes: u32,
    pub(crate) enqueued_at: Picos,
}

/// Events of the closed loop: a packet arrives, or one of the egress
/// servers (one per shard in scope) finishes transmitting a packet.
#[derive(Debug, Clone)]
enum Ev {
    Arrival(ArrivalEvent),
    TxDone(TxDone),
}

/// One buffered packet's ledger slot: when it was admitted, how long it
/// is, and the marker byte stamped into its first payload byte.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) enqueued_at: Picos,
    pub(crate) len: u32,
    pub(crate) marker: u8,
}

/// The transmit time of `len` bytes at `gbps` Gbit/s (1 Gbit/s ≡ 1
/// bit/ns), never zero.
fn tx_time(gbps: f64, len: usize) -> Picos {
    Picos::new(((len as f64 * 8.0 * 1000.0 / gbps).round() as u64).max(1))
}

/// The scope admission decisions are taken over — one of the two things
/// (arrival source, admission scope) the pipeline shapes differ in. It
/// owns one closed-loop instance's engine access: which shard a flow is
/// homed on, that shard's engine, and the policy deciding each offer. Monomorphised, never `dyn`: at one shard every
/// shard lookup is the constant 0 and folds away.
pub(crate) trait AdmissionScope {
    /// Home shard of `flow` among the shards in scope.
    fn shard_of(&self, flow: FlowId) -> usize;

    /// The engine of `shard`.
    fn qm(&mut self, shard: usize) -> &mut QueueManager;

    /// The deciding policy's report name.
    fn policy_name(&self) -> &str;

    /// Offers one packet; victims may live on any shard in scope.
    fn offer(&mut self, flow: FlowId, packet: &[u8]) -> Result<Admission, Refusal>;

    /// `flow`'s queue depth and the occupancy of the whole scope, in
    /// segments — what telemetry attributes a drop or push-out to.
    fn depth_and_occupancy(&self, flow: FlowId) -> (u32, u32);
}

/// Shard-local admission: one shard's own [`DropPolicy`] on its own
/// [`QueueManager`]. The dense pipeline is this scope over the whole
/// buffer; a shard-local sharded run is one instance per shard.
pub(crate) struct ShardLocal<'a, P: ?Sized> {
    pub(crate) qm: &'a mut QueueManager,
    pub(crate) policy: &'a mut P,
}

impl<P: DropPolicy + ?Sized> AdmissionScope for ShardLocal<'_, P> {
    fn shard_of(&self, _flow: FlowId) -> usize {
        0
    }

    fn qm(&mut self, _shard: usize) -> &mut QueueManager {
        self.qm
    }

    fn policy_name(&self) -> &str {
        self.policy.name()
    }

    fn offer(&mut self, flow: FlowId, packet: &[u8]) -> Result<Admission, Refusal> {
        self.policy.offer(self.qm, flow, packet)
    }

    fn depth_and_occupancy(&self, flow: FlowId) -> (u32, u32) {
        (
            self.qm.queue_len_segments(flow),
            self.qm.occupied_segments(),
        )
    }
}

/// Global admission: one [`GlobalLqd`] budget over every shard of a
/// shared-buffer engine, so an arrival on one shard can push out the
/// longest queue of another (Matsakis' LQD at switch scope).
pub(crate) struct SharedBuffer<'a> {
    pub(crate) engine: &'a mut ShardedQueueManager,
    pub(crate) policy: GlobalLqd,
    pub(crate) shard_of_flow: &'a [usize],
}

impl AdmissionScope for SharedBuffer<'_> {
    fn shard_of(&self, flow: FlowId) -> usize {
        self.shard_of_flow[flow.as_usize()]
    }

    fn qm(&mut self, shard: usize) -> &mut QueueManager {
        self.engine.shard_mut(shard)
    }

    fn policy_name(&self) -> &str {
        "global-lqd"
    }

    fn offer(&mut self, flow: FlowId, packet: &[u8]) -> Result<Admission, Refusal> {
        self.policy.offer(self.engine, flow, packet)
    }

    fn depth_and_occupancy(&self, flow: FlowId) -> (u32, u32) {
        (
            self.engine
                .shard(self.shard_of(flow))
                .queue_len_segments(flow),
            self.engine.used_segments(),
        )
    }
}

/// The finite-trace closed loop — the only one; every [`PipelineBuilder`]
/// shape is an instance. Time-ordered `arrivals` feed `scope`-guarded
/// admission, and each shard in scope drains through `scheds[shard]` and
/// its own egress server at `gbps` Gbit/s. The dense run is the
/// 1-shard instance, shard-local sharding is N independent 1-shard
/// instances and global admission is one N-shard instance.
///
/// Runs until the arrivals are exhausted and every backlog has drained,
/// so per shard `offered == delivered + dropped + evicted` at return.
/// Event order is part of the contract (`bench/expected.json`'s digests
/// and the tier-1 tie test pin it): time ties break in scheduling (FIFO)
/// order, and an arrival schedules its successor *before* it starts a
/// service.
///
/// Returns one report per shard (`makespan` is the instance's own last
/// event) and the instance's telemetry recorder, final `qm.*` /
/// `trace.*` metrics attached.
pub(crate) fn run_closed_loop<A, S>(
    cfg: &PipelineConfig,
    mut arrivals: impl Iterator<Item = ArrivalEvent>,
    scope: &mut A,
    scheds: &mut [S],
    gbps: f64,
) -> (Vec<PipelineReport>, Option<Telemetry>)
where
    A: AdmissionScope,
    S: FlowScheduler,
{
    let shards = scheds.len();
    let mut ev: EventQueue<Ev> = EventQueue::new();
    let mut st = LoopState::new(
        shards,
        cfg.mix.flows(),
        cfg.sizes.max_bytes(),
        cfg.telemetry,
    );
    let mut server_busy = vec![false; shards];

    if let Some(first) = arrivals.next() {
        ev.schedule(first.at, Ev::Arrival(first));
    }

    while let Some((now, event)) = ev.pop() {
        let shard = match event {
            Ev::Arrival(a) => {
                st.arrival(scope, a);
                if let Some(next) = arrivals.next() {
                    ev.schedule(next.at, Ev::Arrival(next));
                }
                let shard = scope.shard_of(a.flow);
                if server_busy[shard] {
                    continue;
                }
                shard
            }
            Ev::TxDone(tx) => {
                let shard = scope.shard_of(tx.flow);
                st.delivery(now, shard, tx);
                shard
            }
        };
        server_busy[shard] = start_service(
            scope.qm(shard),
            &mut scheds[shard],
            &mut st,
            shard,
            &mut ev,
            gbps,
            Ev::TxDone,
        );
    }

    if let Some(t) = &mut st.tel {
        // End-of-run snapshot: the reconciliation basis the bins and
        // property tests check trace counts against.
        let mut stats = QmStats::default();
        (0..shards).for_each(|s| stats.absorb(scope.qm(s).stats()));
        let mut reg = MetricsRegistry::new();
        reg.record_qm("qm.", &stats);
        reg.record_event_counts("trace.", t.counts());
        t.set_final_metrics(reg);
    }
    st.finish(ev.now());
    (st.reports, st.tel)
}

/// Asks the scheduler for the next flow and, if one is ready, dequeues
/// its head packet into the loop's frame buffer (lent to the engine, so a
/// delivery allocates nothing), verifies it against the ledger (length
/// and marker byte, a mismatch charged to `shard`'s report) and schedules
/// a transmit-done event (built by `mk_txdone`) after its transmit time
/// at `gbps` Gbit/s. Returns whether the server is now busy.
/// Generic over the event type so the finite-trace loop and the streaming
/// service loop share one service path.
pub(crate) fn start_service<S: FlowScheduler + ?Sized, E>(
    qm: &mut QueueManager,
    sched: &mut S,
    st: &mut LoopState,
    shard: usize,
    ev: &mut EventQueue<E>,
    gbps: f64,
    mk_txdone: impl FnOnce(TxDone) -> E,
) -> bool {
    let Some(flow) = sched.next_flow(qm) else {
        return false;
    };
    st.frame.clear();
    let len = qm
        .dequeue_packet_into(flow, &mut st.frame)
        .expect("scheduler picked a ready flow");
    sched.served(flow, len);
    let slot = st.ledger[flow.as_usize()]
        .pop_front()
        .expect("served packet must be in the ledger");
    if len as u32 != slot.len || st.frame[0] != slot.marker {
        st.reports[shard].integrity_violations += 1;
    }
    if let Some(t) = &mut st.tel {
        // The scheduler decision, stamped at the service start instant.
        t.record_sched_select(ev.now(), flow);
    }
    ev.schedule_in(
        tx_time(gbps, len),
        mk_txdone(TxDone {
            flow,
            bytes: len as u32,
            enqueued_at: slot.enqueued_at,
        }),
    );
    true
}

/// Outcome of a [`PipelineBuilder`] run: the per-shard closed-loop
/// reports plus their aggregate.
#[derive(Debug, Clone, Default)]
pub struct ShardedPipelineReport {
    /// Per-shard reports. Each report's `flows` vector is indexed by the
    /// *global* flow id; flows homed on other shards stay zero.
    pub shards: Vec<PipelineReport>,
    /// Sums over all shards (per-flow entries merged by flow id).
    pub aggregate: PipelineReport,
    /// Home shard of each flow, as routed by
    /// [`ShardedQueueManager::shard_of`].
    pub shard_of_flow: Vec<usize>,
    /// Per-shard telemetry merged into one deterministic view (events
    /// ordered by virtual time, taxonomy and counters summed). `None`
    /// when the run was untraced.
    pub telemetry: Option<TelemetryReport>,
}

/// Merges per-shard reports into the aggregate view, stamping every
/// report with the global makespan (the slowest shard's last event, i.e.
/// the wall clock a shared observer would see).
pub(crate) fn assemble_sharded_report(
    mut shards: Vec<PipelineReport>,
    shard_of_flow: Vec<usize>,
    flows: u32,
) -> ShardedPipelineReport {
    let makespan = shards
        .iter()
        .map(|sr| sr.makespan)
        .max()
        .unwrap_or(Picos::ZERO);
    let mut aggregate = PipelineReport {
        flows: (0..flows).map(|_| FlowReport::default()).collect(),
        ..PipelineReport::default()
    };
    for sr in &mut shards {
        sr.makespan = makespan;
        for (f, fr) in sr.flows.iter().enumerate() {
            let agg = &mut aggregate.flows[f];
            agg.offered_pkts += fr.offered_pkts;
            agg.offered_bytes += fr.offered_bytes;
            agg.admitted_pkts += fr.admitted_pkts;
            agg.dropped_pkts += fr.dropped_pkts;
            agg.evicted_pkts += fr.evicted_pkts;
            agg.delivered_pkts += fr.delivered_pkts;
            agg.delivered_bytes += fr.delivered_bytes;
            agg.latency_ns.merge(&fr.latency_ns);
        }
        aggregate.offered_pkts += sr.offered_pkts;
        aggregate.offered_bytes += sr.offered_bytes;
        aggregate.dropped_pkts += sr.dropped_pkts;
        aggregate.evicted_pkts += sr.evicted_pkts;
        aggregate.delivered_pkts += sr.delivered_pkts;
        aggregate.delivered_bytes += sr.delivered_bytes;
        aggregate.latency_ns.merge(&sr.latency_ns);
        aggregate.integrity_violations += sr.integrity_violations;
    }
    aggregate.makespan = makespan;
    let telemetry = if shards.iter().any(|sr| sr.telemetry.is_some()) {
        Some(TelemetryReport::merge(
            shards
                .iter()
                .enumerate()
                .filter_map(|(s, sr)| sr.telemetry.as_ref().map(|t| (s as u32, t))),
        ))
    } else {
        None
    };
    ShardedPipelineReport {
        shards,
        aggregate,
        shard_of_flow,
        telemetry,
    }
}

/// One named policy's outcome in a comparison run.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy's [`DropPolicy::name`].
    pub policy: String,
    /// The full pipeline report for this policy.
    pub report: PipelineReport,
}

/// Runs the same scenario under the three buffer-management policies —
/// static-partition tail drop, Longest Queue Drop and Choudhury–Hahne
/// dynamic thresholds — each draining through a fresh byte-fair DRR
/// scheduler, and returns the outcomes in that order.
///
/// Tail drop partitions the buffer statically (each flow may hold
/// `1/flows` of the data memory), which is exactly the configuration the
/// shared-buffer policies are meant to beat under bursty skewed load.
pub fn compare_policies(cfg: &PipelineConfig) -> Vec<PolicyOutcome> {
    let per_flow_cap = cfg.qm.data_bytes() / u64::from(cfg.mix.flows());
    let tail_drop = BufferManager::new(
        FlowLimits {
            max_bytes: per_flow_cap,
            max_packets: u32::MAX,
        },
        0,
    );
    vec![
        dense_outcome(cfg, tail_drop),
        dense_outcome(cfg, LongestQueueDrop::new(0)),
        dense_outcome(cfg, DynamicThreshold::new(2.0)),
    ]
}

/// The dense pipeline under `policy`: one shard, default egress (flat
/// DRR, 1518-byte quantum), so the single shard's report is the run's.
fn dense_outcome<P>(cfg: &PipelineConfig, policy: P) -> PolicyOutcome
where
    P: DropPolicy + Clone + Send + 'static,
{
    PolicyOutcome {
        policy: policy.name().to_string(),
        report: PipelineBuilder::new(cfg)
            .admission(move |_| policy.clone())
            .run()
            .shards
            .remove(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use crate::service::partition_indices;
    use npqm_core::check::{fnv1a_fold, FNV_OFFSET_BASIS};
    use npqm_core::sched::{DeficitRoundRobin, StrictPriority};

    /// A shard-local builder over `policy` (default egress: flat DRR).
    fn local<P>(cfg: &PipelineConfig, policy: P) -> PipelineBuilder
    where
        P: DropPolicy + Clone + Send + 'static,
    {
        PipelineBuilder::new(cfg).admission(move |_| policy.clone())
    }

    #[test]
    fn conservation_and_integrity_under_light_load() {
        let cfg = PipelineConfig::small_demo(11);
        let r = dense_outcome(&cfg, LongestQueueDrop::new(0)).report;
        assert!(r.offered_pkts > 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts,
            "every offered packet is accounted for"
        );
        assert_eq!(r.integrity_violations, 0);
        assert!(r.makespan >= cfg.duration || r.offered_pkts == r.delivered_pkts);
    }

    #[test]
    fn overload_drops_but_never_tears() {
        let mut cfg = PipelineConfig::small_demo(5);
        // 10x overload into a tiny buffer.
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_interval: Picos::from_nanos(20),
        };
        cfg.duration = Picos::from_micros(5);
        let r = dense_outcome(&cfg, LongestQueueDrop::new(0)).report;
        assert!(r.dropped_pkts + r.evicted_pkts > 0, "overload must drop");
        assert_eq!(r.integrity_violations, 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts
        );
        assert!(r.latency_ns.mean() > 0.0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let cfg = PipelineConfig::bursty_overload(3);
        let a = dense_outcome(&cfg, DynamicThreshold::new(2.0)).report;
        let b = dense_outcome(&cfg, DynamicThreshold::new(2.0)).report;
        assert_eq!(a.delivered_pkts, b.delivered_pkts);
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn works_with_any_scheduler() {
        let cfg = PipelineConfig::small_demo(9);
        let r = PipelineBuilder::new(&cfg)
            .admission(|_| DynamicThreshold::new(1.0))
            .egress(|_| StrictPriority::new(4))
            .run()
            .aggregate;
        assert_eq!(r.integrity_violations, 0);
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts
        );
    }

    #[test]
    fn lqd_beats_static_tail_drop_under_bursty_overload() {
        // The acceptance scenario: under Zipf-skewed on-off overload,
        // sharing the buffer (LQD push-out) must deliver at least the
        // goodput of statically partitioned tail drop.
        let outcomes = compare_policies(&PipelineConfig::bursty_overload(42));
        assert_eq!(outcomes.len(), 3);
        let tail = &outcomes[0];
        let lqd = &outcomes[1];
        assert_eq!(tail.policy, "tail-drop");
        assert_eq!(lqd.policy, "lqd");
        for o in &outcomes {
            assert_eq!(o.report.integrity_violations, 0, "{}", o.policy);
            assert_eq!(
                o.report.offered_pkts,
                o.report.delivered_pkts + o.report.dropped_pkts + o.report.evicted_pkts,
                "{}",
                o.policy
            );
        }
        assert!(
            lqd.report.delivered_bytes >= tail.report.delivered_bytes,
            "lqd {} < tail-drop {}",
            lqd.report.delivered_bytes,
            tail.report.delivered_bytes
        );
    }

    /// Four shards, each conserving packets and tearing no frame, and so
    /// the aggregate.
    fn assert_conserves_per_shard_and_aggregate(r: &ShardedPipelineReport) {
        assert_eq!(r.shards.len(), 4);
        assert!(r.aggregate.offered_pkts > 0);
        for (s, sr) in r.shards.iter().enumerate() {
            assert_eq!(sr.integrity_violations, 0, "shard {s} tore a frame");
            assert_eq!(
                sr.offered_pkts,
                sr.delivered_pkts + sr.dropped_pkts + sr.evicted_pkts,
                "shard {s} does not conserve packets"
            );
        }
        assert_eq!(r.aggregate.integrity_violations, 0);
        assert_eq!(
            r.aggregate.offered_pkts,
            r.aggregate.delivered_pkts + r.aggregate.dropped_pkts + r.aggregate.evicted_pkts
        );
    }

    #[test]
    fn sharded_pipeline_conserves_per_shard_and_aggregate() {
        let cfg = PipelineConfig::bursty_overload(21);
        let r = local(&cfg, DynamicThreshold::new(2.0)).shards(4).run();
        assert_conserves_per_shard_and_aggregate(&r);
        assert!(
            r.aggregate.dropped_pkts > 0,
            "bursty overload must drop somewhere"
        );
    }

    #[test]
    fn sharded_pipeline_routes_flows_to_their_home_shard_only() {
        let cfg = PipelineConfig::bursty_overload(8);
        let r = local(&cfg, LongestQueueDrop::new(0)).shards(4).run();
        for (f, &home) in r.shard_of_flow.iter().enumerate() {
            for (s, sr) in r.shards.iter().enumerate() {
                if s != home {
                    assert_eq!(
                        sr.flows[f].offered_pkts, 0,
                        "flow {f} leaked into shard {s} (home {home})"
                    );
                }
            }
        }
    }

    /// CBR 50 ns arrivals of fixed 64 B packets into a 5 Gbit/s egress:
    /// a service takes 102 400 ps, so under the sustained 2x overload an
    /// arrival and a `TxDone` collide on the same picosecond every 125th
    /// service — the event-order contract of the closed loop decides
    /// every one of them, and LQD push-out makes the outcome depend on it.
    fn tie_heavy() -> PipelineConfig {
        PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(256)
                .num_segments(512)
                .segment_bytes(64)
                .build()
                .unwrap(),
            arrivals: ArrivalProcess::Cbr {
                interval: Picos::from_nanos(50),
            },
            sizes: SizeDistribution::Fixed(64),
            mix: FlowMix::uniform(256),
            egress_gbps: 5.0,
            duration: Picos::from_micros(200),
            ..PipelineConfig::small_demo(42)
        }
    }

    fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(FNV_OFFSET_BASIS, |h, b| fnv1a_fold(h, u64::from(b)))
    }

    #[test]
    fn tie_order_is_pinned_on_every_shape() {
        // Hashes computed at the commit *before* the loops were unified
        // (dense loop, per-shard trace replay, coupled global-LQD loop):
        // next arrival scheduled before the service start, FIFO
        // tie-break. A change to either moves every one of them.
        let cfg = tie_heavy();
        let dense = local(&cfg, LongestQueueDrop::new(0)).run();
        assert_eq!(dense.aggregate.offered_pkts, 4000);
        assert_eq!(dense.aggregate.evicted_pkts, 1535);
        assert_eq!(debug_hash(&dense.aggregate), 0x71be_c448_379d_49e1);
        assert_eq!(debug_hash(&dense), 0xb21d_4893_ddf1_a54e);
        let local4 = local(&cfg, LongestQueueDrop::new(0)).shards(4).run();
        assert_eq!(debug_hash(&local4), 0xa023_4e07_69d1_b1e8);
        let global4 = local(&cfg, LongestQueueDrop::new(0))
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert_eq!(debug_hash(&global4), 0xdf9a_aca2_06af_805e);
    }

    #[test]
    fn one_shard_pipeline_matches_the_dense_pipeline() {
        // Three ways to run one shard — arrivals drawn lazily, the
        // `parallel` flag set, and the pregenerated trace replayed through
        // its (identity) index list — must agree on every field.
        let cfg = tie_heavy();
        let dense = local(&cfg, LongestQueueDrop::new(0)).run();
        let parallel = local(&cfg, LongestQueueDrop::new(0)).parallel(true).run();
        assert_eq!(format!("{dense:?}"), format!("{parallel:?}"));

        let trace: Vec<ArrivalEvent> = cfg.arrival_stream().collect();
        let idx = partition_indices(&trace, &[0; 256], 1);
        let mut qm = QueueManager::new(cfg.qm);
        let (replay, _) = run_closed_loop(
            &cfg,
            idx[0].iter().map(|&i| trace[i as usize]),
            &mut ShardLocal {
                qm: &mut qm,
                policy: &mut LongestQueueDrop::new(0),
            },
            &mut [DeficitRoundRobin::new(vec![1518; 256])],
            cfg.egress_gbps,
        );
        assert_eq!(format!("{:?}", dense.shards), format!("{replay:?}"));
    }

    #[test]
    fn parallel_sharded_pipeline_is_byte_identical_to_serial() {
        // The headline determinism contract: for a fixed seed, the
        // parallel run's delivery reports and ledger-backed integrity
        // counts are byte-identical to serial replay. `Debug` formatting
        // covers every field, including the per-flow latency moments.
        for seed in [3u64, 21, 42, 99] {
            let cfg = PipelineConfig::bursty_overload(seed);
            let run = |parallel| {
                local(&cfg, LongestQueueDrop::new(0))
                    .shards(4)
                    .parallel(parallel)
                    .run()
            };
            assert_eq!(
                format!("{:?}", run(false)),
                format!("{:?}", run(true)),
                "seed {seed}: parallel and serial sharded runs diverged"
            );
        }
    }

    #[test]
    fn global_lqd_pipeline_conserves_and_never_tears() {
        let cfg = PipelineConfig::bursty_overload(21);
        let r = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert_conserves_per_shard_and_aggregate(&r);
        assert!(
            r.aggregate.dropped_pkts + r.aggregate.evicted_pkts > 0,
            "bursty overload must drop or push out somewhere"
        );
    }

    #[test]
    fn global_lqd_beats_shard_local_admission_under_skew() {
        // The motivating comparison: under the Zipf bursty overload, a
        // shared buffer with global LQD push-out delivers at least as
        // many bytes as shard-local Choudhury–Hahne thresholds over the
        // same aggregate buffer — the bursting flows can use buffer that
        // idle partitions would otherwise strand. Both runs are pure
        // functions of the seed, so this is a deterministic comparison.
        let cfg = PipelineConfig::bursty_overload(42);
        let shard_local = local(&cfg, DynamicThreshold::new(2.0)).shards(4).run();
        let global = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert!(
            global.aggregate.delivered_bytes >= shard_local.aggregate.delivered_bytes,
            "global LQD {} < shard-local C-H {}",
            global.aggregate.delivered_bytes,
            shard_local.aggregate.delivered_bytes
        );
    }

    #[test]
    fn jumbo_frames_are_not_truncated() {
        let mut cfg = PipelineConfig::small_demo(13);
        cfg.sizes = SizeDistribution::Fixed(9000);
        cfg.qm = QmConfig::builder()
            .num_flows(4)
            .num_segments(1024)
            .segment_bytes(64)
            .build()
            .unwrap();
        cfg.arrivals = ArrivalProcess::Poisson {
            mean_interval: Picos::from_nanos(8_000),
        };
        let r = PipelineBuilder::new(&cfg)
            .admission(|_| LongestQueueDrop::new(0))
            .egress(|_| DeficitRoundRobin::new(vec![9000; 4]))
            .run()
            .aggregate;
        assert!(r.offered_pkts > 0);
        assert_eq!(r.offered_bytes, r.offered_pkts * 9000);
        assert_eq!(r.delivered_bytes, r.delivered_pkts * 9000);
        assert_eq!(r.integrity_violations, 0);
    }

    #[test]
    fn offered_load_estimate_matches_measurement() {
        let cfg = PipelineConfig::bursty_overload(1);
        let r = dense_outcome(&cfg, LongestQueueDrop::new(0)).report;
        let measured = r.offered_bytes as f64 * 8.0 / cfg.duration.as_nanos_f64();
        assert!(
            (measured / cfg.offered_gbps() - 1.0).abs() < 0.2,
            "measured {measured} vs predicted {}",
            cfg.offered_gbps()
        );
    }
}
