//! The closed-loop simulation pipeline: traffic → admission → queues →
//! scheduler → egress.
//!
//! Everything upstream of this module is a component: arrival processes,
//! size distributions and flow mixes ([`crate::arrival`], [`crate::size`],
//! [`crate::flows`]), the queue engine
//! ([`npqm_core::QueueManager`]), buffer-management policies
//! ([`npqm_core::policy::DropPolicy`]) and egress schedulers
//! ([`npqm_core::sched::FlowScheduler`]). This module wires them into one
//! discrete-event loop: a packet source offers traffic to a pluggable
//! drop policy, admitted packets queue per flow, and a single egress
//! server drains them through a scheduler at a configurable line rate —
//! so buffer-management policies can finally be *exercised and measured*
//! instead of only unit-tested. Each egress server sends one packet at a
//! time, so the loop holds one pending completion per server and the
//! next arrival beside them, with no event queue; push-out victims go
//! into one buffer the loop lends to every offer.
//!
//! The loop keeps a per-flow ledger with one slot — enqueue time, length
//! and a marker byte stamped into the frame — for every packet in the
//! buffer, which yields per-flow latency and an end-to-end integrity
//! check: a delivered frame whose length *or marker* differs from what
//! was admitted for that slot means a torn or cross-linked packet (the
//! corruption class the open-tail fixes in `npqm-core` close) and is
//! counted, never ignored.
//!
//! There is one closed loop, `ClosedLoop`, and two drivers push arrivals
//! into it. Every pipeline shape — dense, shard-local sharded, globally
//! admitted — is built through [`PipelineBuilder`] and runs as one
//! N-shard instance over one lazily drawn arrival stream; the shapes
//! differ only in admission scope. Each shard of the streaming service
//! ([`crate::service`]) is a one-shard instance whose watch keeps the
//! shard's epoch windows, snapshots and stop cut. Egress is a fixed line
//! rate; what the *memory* organisation sustains is
//! [`crate::scale::run_memory_scale`]'s question, not a loop's.
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

use crate::arrival::{round_to_u64, ArrivalProcess};
use crate::builder::PipelineBuilder;
use crate::flows::FlowMix;
use crate::service::{arrival_stream, ArrivalEvent};
use crate::size::SizeDistribution;
use npqm_core::limits::{BufferManager, DropReason, FlowLimits};
use npqm_core::policy::{DropPolicy, DynamicThreshold, GlobalLqd, LongestQueueDrop};
use npqm_core::sched::FlowScheduler;
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::{MetricsRegistry, Telemetry, TelemetryConfig, TelemetryReport};
use npqm_core::{FlowId, QmConfig, QmStats, QueueManager};
use npqm_sim::stats::MeanVar;
use npqm_sim::time::Picos;
use std::collections::VecDeque;

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

/// One buffered packet's ledger slot: when it was admitted, how long it
/// is, and the marker byte stamped into its first payload byte. The length
/// and marker share one word, so the slot is a pair of scalars, which a
/// push takes in two registers: with three fields it went through a stack
/// copy that the push, when not inlined, reloaded as one 16-byte load of
/// three narrower stores, and waited for them to reach the cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) enqueued_at: Picos,
    len_and_marker: u64,
}

impl Slot {
    pub(crate) fn new(enqueued_at: Picos, len: u32, marker: u8) -> Self {
        Slot {
            enqueued_at,
            len_and_marker: u64::from(len) | u64::from(marker) << 32,
        }
    }

    pub(crate) fn len(self) -> u32 {
        self.len_and_marker as u32
    }

    pub(crate) fn marker(self) -> u8 {
        (self.len_and_marker >> 32) as u8
    }
}

/// The transmit time of `len` bytes at `gbps` Gbit/s (1 Gbit/s ≡ 1
/// bit/ns), never zero: the picosecond count rounded half away from zero,
/// as [`round_to_u64`] rounds every arrival gap. It is called once per
/// length, when a run fills its transmit table ([`tx_table`]).
pub(crate) fn tx_time(gbps: f64, len: usize) -> Picos {
    Picos::new(round_to_u64(len as f64 * 8.0 * 1000.0 / gbps).max(1))
}

/// The transmit time of every length `0..=max_bytes` at a server's line
/// rate of `gbps` Gbit/s, so a delivery indexes a table instead of
/// dividing and rounding. A pipeline run fills one for its loop, a
/// service run one for all its shards.
pub(crate) fn tx_table(gbps: f64, max_bytes: u32) -> Vec<Picos> {
    (0..=max_bytes as usize)
        .map(|len| tx_time(gbps, len))
        .collect()
}

/// The scope admission decisions are taken over — the one thing the
/// pipeline shapes differ in. It owns one closed-loop instance's engine
/// access: which shard a flow is homed on, that shard's engine, and the
/// policy deciding each offer. Monomorphised, never `dyn`.
pub(crate) trait AdmissionScope {
    /// Home shard of `flow` among the shards in scope.
    fn shard_of(&self, flow: FlowId) -> usize;

    /// The engine of `shard`.
    fn qm(&mut self, shard: usize) -> &mut QueueManager;

    /// The report name of the policy deciding `flow`'s offers.
    fn policy_name(&self, flow: FlowId) -> &str;

    /// Offers one packet, appending its victims, which may live on any
    /// shard in scope, to the lent `victims`.
    fn offer(
        &mut self,
        flow: FlowId,
        packet: &[u8],
        victims: &mut Vec<(FlowId, u32)>,
    ) -> Result<(), DropReason>;

    /// `flow`'s queue depth and the occupancy of the whole scope, in
    /// segments — what telemetry attributes a drop or push-out to.
    fn depth_and_occupancy(&self, flow: FlowId) -> (u32, u32);
}

/// Shard-local admission over a partitioned buffer: each shard's own
/// [`DropPolicy`] on its own share of the engine. An offer, its victims,
/// the policy's name and the occupancy telemetry reads are all the
/// arriving flow's home shard's, so shards share nothing and each sees
/// the events it would see alone. The dense pipeline is this scope over
/// one shard, and so is each service shard, over its one lent engine with
/// every flow homed on it.
pub(crate) struct Partitioned<'a, P> {
    pub(crate) shards: &'a mut [QueueManager],
    pub(crate) policies: &'a mut [P],
    pub(crate) shard_of_flow: &'a [usize],
}

impl<P: DropPolicy> AdmissionScope for Partitioned<'_, P> {
    fn shard_of(&self, flow: FlowId) -> usize {
        self.shard_of_flow[flow.as_usize()]
    }

    fn qm(&mut self, shard: usize) -> &mut QueueManager {
        &mut self.shards[shard]
    }

    fn policy_name(&self, flow: FlowId) -> &str {
        self.policies[self.shard_of(flow)].name()
    }

    fn offer(
        &mut self,
        flow: FlowId,
        packet: &[u8],
        victims: &mut Vec<(FlowId, u32)>,
    ) -> Result<(), DropReason> {
        let home = self.shard_of(flow);
        self.policies[home].offer_into(&mut self.shards[home], flow, packet, 0, victims)
    }

    fn depth_and_occupancy(&self, flow: FlowId) -> (u32, u32) {
        let qm = &self.shards[self.shard_of(flow)];
        (qm.queue_len_segments(flow), qm.occupied_segments())
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

    fn policy_name(&self, _flow: FlowId) -> &str {
        "global-lqd"
    }

    fn offer(
        &mut self,
        flow: FlowId,
        packet: &[u8],
        victims: &mut Vec<(FlowId, u32)>,
    ) -> Result<(), DropReason> {
        self.policy.offer_into(self.engine, flow, packet, victims)
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

/// What an arrival did, for a [`Watch`]'s window accounting.
pub(crate) struct ArrivalOutcome {
    pub(crate) admitted: bool,
    pub(crate) evicted: u64,
}

/// What a driver keeps beside a [`ClosedLoop`]: it sees every event the
/// loop applies and may stop the loop before one. A pipeline run watches
/// nothing (`()`); a service shard keeps its epoch windows, boundary
/// snapshots and stop cut here.
pub(crate) trait Watch {
    /// Runs before the event at `t` is applied, on the state the events
    /// before it left. Returning `false` stops the loop there, with the
    /// event unapplied.
    fn at<A: AdmissionScope>(&mut self, scope: &mut A, lp: &mut ClosedLoop<'_>, t: Picos) -> bool;

    /// The arrival `pkt` was offered, with `outcome`.
    fn arrived(&mut self, pkt: &ArrivalEvent, outcome: ArrivalOutcome);

    /// `done` was delivered, `lat_ns` after its admission.
    fn delivered(&mut self, done: &TxDone, lat_ns: u64);
}

impl Watch for () {
    #[inline(always)]
    fn at<A: AdmissionScope>(&mut self, _: &mut A, _: &mut ClosedLoop<'_>, _: Picos) -> bool {
        true
    }

    #[inline(always)]
    fn arrived(&mut self, _: &ArrivalEvent, _: ArrivalOutcome) {}

    #[inline(always)]
    fn delivered(&mut self, _: &TxDone, _: u64) {}
}

/// The closed loop — the only one: every [`PipelineBuilder`] run is one
/// N-shard instance of it and every service shard a one-shard instance.
/// A driver pushes arrivals into it in time order with
/// [`offer`](Self::offer) and drains it with
/// [`complete_until`](Self::complete_until); `scope`-guarded admission
/// decides each offer, and each shard in scope drains through
/// `scheds[shard]` and its own egress server at the transmit times of
/// `tx_times`.
///
/// A server sends one packet at a time, so each shard keeps its one
/// pending completion in a slot, and the loop keeps the time of the last
/// event. Event order is part of the contract (`bench/expected.json`'s
/// digests and the tier-1 tie tests pin it): a completion due at or
/// before an arrival runs first, and completions due at one instant run
/// lowest shard first. Under a scope whose shards share nothing, each
/// shard's own events keep the order they would have in a loop of their
/// own.
///
/// It owns the bookkeeping: one report per shard in scope, each indexed
/// by *global* flow id (flows homed on other shards stay zero), the
/// per-flow packet ledger (enqueue time, length, marker), the scratch
/// payload, the victim buffer and the telemetry recorder.
pub(crate) struct ClosedLoop<'t> {
    pub(crate) reports: Vec<PipelineReport>,
    pub(crate) ledger: Vec<VecDeque<Slot>>,
    payload: Vec<u8>,
    /// The victim buffer every offer is lent, so a push-out allocates
    /// nothing once it holds the largest eviction run.
    victims: Vec<(FlowId, u32)>,
    /// The loop's telemetry recorder. `None` (untraced) costs one branch
    /// per event.
    pub(crate) tel: Option<Telemetry>,
    /// Each egress server's packet in flight and when it finishes.
    tx: Vec<Option<(Picos, TxDone)>>,
    /// The run's transmit table ([`tx_table`]), lent to every loop.
    tx_times: &'t [Picos],
    /// The time of the last event applied.
    now: Picos,
}

impl<'t> ClosedLoop<'t> {
    /// One report and one idle server for each of `shards` shards;
    /// `telemetry` enables recording when `Some`.
    pub(crate) fn new(
        shards: usize,
        flows: u32,
        max_bytes: u32,
        telemetry: Option<TelemetryConfig>,
        tx_times: &'t [Picos],
    ) -> Self {
        ClosedLoop {
            reports: (0..shards)
                .map(|_| PipelineReport {
                    flows: (0..flows).map(|_| FlowReport::default()).collect(),
                    ..PipelineReport::default()
                })
                .collect(),
            ledger: (0..flows).map(|_| VecDeque::new()).collect(),
            // Scratch payload sized to the largest packet the
            // distribution can draw, so no sampled size is truncated.
            payload: vec![0xA5u8; max_bytes as usize],
            victims: Vec::new(),
            tel: telemetry.map(Telemetry::new),
            tx: vec![None; shards],
            tx_times,
            now: Picos::ZERO,
        }
    }

    /// Applies one arrival, after the completions due at or before it,
    /// then starts service on its home server if that server is idle.
    /// Returns `false` if `watch` stopped the loop first.
    #[inline]
    pub(crate) fn offer<A, S, W>(
        &mut self,
        scope: &mut A,
        scheds: &mut [S],
        pkt: ArrivalEvent,
        watch: &mut W,
    ) -> bool
    where
        A: AdmissionScope,
        S: FlowScheduler,
        W: Watch,
    {
        if !self.complete_until(scope, scheds, pkt.at, watch) {
            return false;
        }
        let mut pending = self.tx[..scheds.len()].iter().flatten();
        assert!(
            pkt.at >= self.now && pending.all(|&(t, _)| t > pkt.at),
            "an arrival went back in time or ahead of a due completion"
        );
        if !watch.at(scope, self, pkt.at) {
            return false;
        }
        self.now = pkt.at;
        let outcome = self.arrival(scope, pkt);
        watch.arrived(&pkt, outcome);
        let shard = scope.shard_of(pkt.flow);
        if self.tx[shard].is_none() {
            self.serve(scope.qm(shard), &mut scheds[shard], shard);
        }
        true
    }

    /// Runs every completion due at or before `until`, earliest first,
    /// ties to the lowest shard, each starting its server's next service.
    /// Returns `false` if `watch` stopped the loop first. Always inlined:
    /// a call per arrival, due completion or not, cost the service 2 %.
    #[inline(always)]
    pub(crate) fn complete_until<A, S, W>(
        &mut self,
        scope: &mut A,
        scheds: &mut [S],
        until: Picos,
        watch: &mut W,
    ) -> bool
    where
        A: AdmissionScope,
        S: FlowScheduler,
        W: Watch,
    {
        // The next completion is found by its instant alone: copying whole
        // slots, right after `serve` wrote one field by field, waited on
        // those stores. The slots are cut to one per scheduler, a length
        // the caller's slice makes known, so a one-shard search is one
        // compare, not a loop.
        while let Some((t, shard)) = (self.tx[..scheds.len()].iter().enumerate())
            .filter_map(|(s, slot)| Some((slot.as_ref()?.0, s)))
            .min()
            .filter(|&(t, _)| t <= until)
        {
            if !watch.at(scope, self, t) {
                return false;
            }
            self.now = t;
            self.delivery(shard, watch);
            self.serve(scope.qm(shard), &mut scheds[shard], shard);
        }
        true
    }

    /// Offers one packet to `scope`'s policy, keeping the ledger in sync
    /// with any evictions (which happen on admission *and* on refusal: a
    /// push-out policy may clear room and still fail).
    fn arrival<A: AdmissionScope>(&mut self, scope: &mut A, pkt: ArrivalEvent) -> ArrivalOutcome {
        let (now, flow, size, marker) = (pkt.at, pkt.flow, pkt.size as usize, pkt.marker);
        // Stamp a per-packet marker into the frame: delivery re-checks
        // it, so a torn or cross-linked frame is caught even when its
        // length happens to survive.
        self.payload[0] = marker;
        let home = scope.shard_of(flow);
        let fr = &mut self.reports[home].flows[flow.as_usize()];
        fr.offered_pkts += 1;
        fr.offered_bytes += size as u64;
        self.victims.clear();
        // Kept as the `Result` it is: turned into an `Option` with `.err()`,
        // it was copied through two unaligned stack bytes.
        let offered = scope.offer(flow, &self.payload[..size], &mut self.victims);
        for &(victim, bytes) in &self.victims {
            // Under global push-out the victim may live on any shard in
            // scope; charge its own home shard's report.
            let vr = &mut self.reports[scope.shard_of(victim)];
            let slot = self.ledger[victim.as_usize()]
                .pop_front()
                .expect("a victim was admitted, and every admission pushed its slot");
            if slot.len() != bytes {
                vr.integrity_violations += 1;
            }
            vr.flows[victim.as_usize()].evicted_pkts += 1;
            if let Some(t) = &mut self.tel {
                // Victim depth and occupancy observed just after the
                // push-out — the state the policy's decision produced.
                let (depth, occupancy) = scope.depth_and_occupancy(victim);
                let policy = scope.policy_name(victim);
                t.record_evict(now, policy, victim, bytes, depth, occupancy);
            }
        }
        let fr = &mut self.reports[home].flows[flow.as_usize()];
        if let Err(reason) = offered {
            fr.dropped_pkts += 1;
            if let Some(t) = &mut self.tel {
                let (depth, occupancy) = scope.depth_and_occupancy(flow);
                t.record_drop(
                    now,
                    scope.policy_name(flow),
                    reason,
                    flow,
                    size as u32,
                    depth,
                    occupancy,
                );
            }
        } else {
            self.ledger[flow.as_usize()].push_back(Slot::new(now, size as u32, marker));
            fr.admitted_pkts += 1;
            if let Some(t) = &mut self.tel {
                t.record_admit(now, flow, size as u32);
            }
        }
        ArrivalOutcome {
            admitted: offered.is_ok(),
            evicted: self.victims.len() as u64,
        }
    }

    /// Records the packet `shard`'s egress server delivers now and shows
    /// it to `watch`. It reads the packet where its slot keeps it: a copy
    /// of the whole [`TxDone`], loaded right after `serve` stored its
    /// fields, waited on those stores.
    fn delivery<W: Watch>(&mut self, shard: usize, watch: &mut W) {
        let (_, tx) = self.tx[shard]
            .as_ref()
            .expect("the due completion's slot is full");
        let fr = &mut self.reports[shard].flows[tx.flow.as_usize()];
        fr.delivered_pkts += 1;
        fr.delivered_bytes += tx.bytes as u64;
        let delta = self.now - tx.enqueued_at;
        fr.latency_ns.push(delta.as_nanos_f64());
        let lat_ns = delta.as_u64() / 1000;
        if let Some(t) = &mut self.tel {
            t.record_deliver(self.now, tx.flow, tx.bytes, lat_ns);
        }
        watch.delivered(tx, lat_ns);
    }

    /// Asks `shard`'s scheduler for the next flow and, if one is ready,
    /// dequeues its head packet from the shard's engine `qm`, reading its
    /// first byte where the engine keeps it (so a delivery copies and
    /// allocates nothing), verifies it against the ledger (length and
    /// marker byte, a mismatch charged to `shard`'s report) and writes its
    /// completion into the server's slot: now plus its transmit time, and
    /// the [`TxDone`]. `None` leaves the server idle. The slot is written
    /// where it lives: a completion returned by value went through the
    /// stack and was reloaded as one wide load of the fields just stored.
    fn serve<S: FlowScheduler>(&mut self, qm: &mut QueueManager, sched: &mut S, shard: usize) {
        let Some(flow) = sched.next_flow(qm) else {
            self.tx[shard] = None;
            return;
        };
        let mut first = None;
        let len = qm
            .dequeue_packet_with(flow, |b| {
                first.get_or_insert(b[0]);
            })
            .expect("scheduler picked a ready flow");
        sched.served(flow, len);
        let slot = self.ledger[flow.as_usize()]
            .pop_front()
            .expect("served packet must be in the ledger");
        if len as u32 != slot.len() || first != Some(slot.marker()) {
            self.reports[shard].integrity_violations += 1;
        }
        if let Some(t) = &mut self.tel {
            // The scheduler decision, stamped at the service start instant.
            t.record_sched_select(self.now, flow);
        }
        let done = TxDone {
            flow,
            bytes: len as u32,
            enqueued_at: slot.enqueued_at,
        };
        self.tx[shard] = Some((self.now + self.tx_times[len], done));
    }

    /// Stamps the makespan (the last event) and folds each shard's
    /// per-flow reports into its aggregate counters.
    pub(crate) fn finish(&mut self) {
        for report in &mut self.reports {
            report.makespan = self.now;
            let flows = std::mem::take(&mut report.flows);
            for fr in &flows {
                report.offered_pkts += fr.offered_pkts;
                report.offered_bytes += fr.offered_bytes;
                report.dropped_pkts += fr.dropped_pkts;
                report.evicted_pkts += fr.evicted_pkts;
                report.delivered_pkts += fr.delivered_pkts;
                report.delivered_bytes += fr.delivered_bytes;
                report.latency_ns.merge(&fr.latency_ns);
            }
            report.flows = flows;
        }
    }

    /// Packets in the ledger: admitted, not yet delivered or pushed out.
    pub(crate) fn buffered_pkts(&self) -> u64 {
        self.ledger.iter().map(|l| l.len() as u64).sum()
    }
}

/// Runs `cfg` as one instance of the [`ClosedLoop`] over `scope`, with
/// `scheds[shard]` draining each shard at an equal share of
/// `cfg.egress_gbps`: it offers each arrival of `cfg`'s stream as it draws
/// it, so its memory stays O(buffer) however long the run, then drains
/// every backlog, so per shard `offered == delivered + dropped + evicted`
/// at return. Dense, shard-local sharded and globally admitted runs
/// differ only in `scope`.
///
/// Returns one report per shard (`makespan` is the instance's last
/// event) and the instance's one telemetry recorder, final `qm.*`
/// metrics attached.
pub(crate) fn run_closed_loop<A, S>(
    cfg: &PipelineConfig,
    scope: &mut A,
    scheds: &mut [S],
) -> (Vec<PipelineReport>, Option<Telemetry>)
where
    A: AdmissionScope,
    S: FlowScheduler,
{
    let shards = scheds.len();
    let max_bytes = cfg.sizes.max_bytes();
    let tx_times = tx_table(cfg.egress_gbps / shards as f64, max_bytes);
    let mut lp = ClosedLoop::new(shards, cfg.mix.flows(), max_bytes, cfg.telemetry, &tx_times);
    for pkt in arrival_stream(cfg.arrivals, &cfg.mix, &cfg.sizes, cfg.seed, cfg.duration) {
        lp.offer(scope, scheds, pkt, &mut ());
    }
    lp.complete_until(scope, scheds, Picos::new(u64::MAX), &mut ());

    if let Some(t) = &mut lp.tel {
        // End-of-run snapshot of the engine's own counters, which the
        // bins and property tests reconcile the report against.
        let mut stats = QmStats::default();
        (0..shards).for_each(|s| stats.absorb(scope.qm(s).stats()));
        let mut reg = MetricsRegistry::new();
        reg.record_qm("qm.", &stats);
        t.set_final_metrics(reg);
    }
    lp.finish();
    (lp.reports, lp.tel)
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
    /// The run's telemetry as one deterministic view: the loop's one
    /// recorder, merged under shard tag 0. `None` when the run was
    /// untraced.
    pub telemetry: Option<TelemetryReport>,
}

/// Merges per-shard reports into the aggregate view, stamping every
/// report with the global makespan (the slowest shard's last event, i.e.
/// the wall clock a shared observer would see). It leaves `telemetry`
/// empty: `PipelineBuilder::run` fills in its loop's one recorder, and the service
/// merges its shard recorders into its own report.
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
    ShardedPipelineReport {
        shards,
        aggregate,
        shard_of_flow,
        telemetry: None,
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
    P: DropPolicy + Clone + 'static,
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
pub(crate) mod tests {
    use super::*;
    use crate::arrival::ArrivalProcess;
    use npqm_core::check::{fnv1a_fold, FNV_OFFSET_BASIS};
    use npqm_core::sched::{DeficitRoundRobin, StrictPriority};
    use npqm_core::telemetry::{EventKind, ShardTraceEvent};
    use npqm_sim::rng::Xoshiro256pp;

    /// A shard-local builder over `policy` (default egress: flat DRR).
    fn local<P>(cfg: &PipelineConfig, policy: P) -> PipelineBuilder
    where
        P: DropPolicy + Clone + 'static,
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

    /// `tie_heavy`'s packets every 51.2 ns into `gbps`: at 10 Gbit/s a
    /// shard a service lasts one gap, so completions land on arrivals.
    /// Traced into a ring that holds the whole run.
    pub(crate) fn tie_every_gap(gbps: f64) -> PipelineConfig {
        PipelineConfig {
            arrivals: ArrivalProcess::cbr_gbps(10.0, 64),
            egress_gbps: gbps,
            duration: Picos::from_micros(20),
            telemetry: Some(TelemetryConfig::with_ring(1 << 14)),
            ..tie_heavy()
        }
    }

    /// The tie rule read off a trace: among one recorder's events at one
    /// instant, deliveries go lowest home shard first and before an
    /// arrival, which ranks last. Returns how many instants held both.
    /// A pipeline run has one recorder for all its shards (merged under
    /// shard tag 0), so on every pipeline shape this reads the order
    /// across shards too; the service records per shard.
    pub(crate) fn completions_lead_ties(events: &[ShardTraceEvent], homes: &[usize]) -> usize {
        let mut ties = 0;
        for group in events.chunk_by(|a, b| (a.at, a.shard) == (b.at, b.shard)) {
            let ranks: Vec<usize> = (group.iter())
                .filter_map(|e| match e.kind {
                    EventKind::Deliver { flow, .. } => Some(homes[flow.as_usize()]),
                    EventKind::Admit { .. } | EventKind::Drop { .. } => Some(usize::MAX),
                    _ => None,
                })
                .collect();
            assert!(ranks.is_sorted(), "{ranks:?} at {:?}", group[0].at);
            ties += usize::from(ranks.windows(2).any(|w| w[0] < w[1] && w[1] == usize::MAX));
        }
        ties
    }

    fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
        format!("{value:?}")
            .bytes()
            .fold(FNV_OFFSET_BASIS, |h, b| fnv1a_fold(h, u64::from(b)))
    }

    #[test]
    fn tie_order_is_pinned_on_every_shape() {
        // Hashes computed at the commit *before* the loops were unified
        // (dense loop, per-shard trace replay, coupled global-LQD loop).
        // A service here takes 102.4 ns, longer than two 50 ns gaps, so a
        // completion that ties an arrival started before the arrival's
        // predecessor, and it runs first whether ties go by scheduling
        // order or to completions: these hashes hold under either rule.
        // (Every hash in this module hashes a report's `Debug` text; each
        // was re-recorded when `PipelineReport` lost its `telemetry`
        // field, as the old text with each `PipelineReport`'s
        // `, telemetry: None` cut out.)
        let cfg = tie_heavy();
        let dense = local(&cfg, LongestQueueDrop::new(0)).run();
        assert_eq!(dense.aggregate.offered_pkts, 4000);
        assert_eq!(dense.aggregate.evicted_pkts, 1535);
        assert_eq!(debug_hash(&dense.aggregate), 0xdd27_ab1b_a72a_9552);
        assert_eq!(debug_hash(&dense), 0x87ad_5f53_07b2_cbee);
        let local4 = local(&cfg, LongestQueueDrop::new(0)).shards(4).run();
        assert_eq!(debug_hash(&local4), 0x9581_9f1b_3ee4_1efb);
        let global4 = local(&cfg, LongestQueueDrop::new(0))
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert_eq!(debug_hash(&global4), 0x4850_b16c_22ef_14cd);
        let cfg = PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(16)
                .num_segments(64)
                .segment_bytes(64)
                .build()
                .unwrap(),
            mix: FlowMix::uniform(16),
            ..tie_heavy()
        };
        let dense = local(&cfg, LongestQueueDrop::new(0)).run();
        assert_eq!(debug_hash(&dense), 0x1ab2_b2e3_ef63_198e);
        let global4 = local(&cfg, LongestQueueDrop::new(0))
            .shards(4)
            .admission_global_lqd(0)
            .run();
        assert_eq!(debug_hash(&global4), 0x63f3_7224_54b5_d174);

        // Where the two rules differ: a service of one gap, started on an
        // arrival, ends on the next arrival's picosecond, and its delivery
        // must run first. At a quarter of the rate, services back up and
        // shards complete together.
        for (shards, gbps) in [(1, 10.0), (4, 40.0), (4, 10.0)] {
            for global in [false, true] {
                let b = local(&tie_every_gap(gbps), LongestQueueDrop::new(0)).shards(shards);
                let r = if global { b.admission_global_lqd(0) } else { b }.run();
                let tel = r.telemetry.unwrap();
                assert_eq!(tel.overflow_events, 0);
                assert!(completions_lead_ties(&tel.events, &r.shard_of_flow) > 50);
            }
        }
    }

    /// A run fills its transmit table once, from `tx_time` at its
    /// per-server rate: at every length up to the largest packet it can
    /// draw, a delivery reads what the divide would answer, the one-
    /// picosecond floor of length 0 (and of the rates that clamp) included.
    #[test]
    fn loop_transmit_table_is_tx_time_at_every_length() {
        for gbps in line_rates(&mut Xoshiro256pp::seed_from_u64(42)) {
            for max_bytes in [1, 64, 1518, 9216] {
                let tx_times = tx_table(gbps, max_bytes);
                assert_eq!(tx_times.len(), max_bytes as usize + 1);
                assert_eq!(tx_times[0], Picos::new(1), "{gbps} Gbit/s");
                for (len, &t) in tx_times.iter().enumerate() {
                    assert_eq!(t, tx_time(gbps, len), "{gbps} Gbit/s, {len} B");
                }
            }
        }
    }

    /// The paper's 32K queues, sparsely backlogged: 1518-byte frames at
    /// 10 Gbit/s into an 8 Gbit/s flat-DRR egress, under dynamic thresholds
    /// (the occupancy tree never wakes) and under LQD over a buffer a
    /// tenth as deep (it wakes on the first push-out). Hashes recorded on
    /// the engine whose DRR scanned every slot on each pick and whose LQD
    /// index was a heap with stale entries.
    #[test]
    fn paper_scale_sparse_runs_are_pinned() {
        let sparse = |segments| PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(32768)
                .num_segments(segments)
                .segment_bytes(64)
                .build()
                .unwrap(),
            arrivals: ArrivalProcess::cbr_gbps(10.0, 1518),
            sizes: SizeDistribution::Fixed(1518),
            mix: FlowMix::uniform(32768),
            egress_gbps: 8.0,
            duration: Picos::from_micros(3_600),
            ..PipelineConfig::small_demo(42)
        };
        let dt = local(&sparse(1 << 16), DynamicThreshold::new(2.0))
            .egress_spec("drr:1518")
            .run();
        let lqd = local(&sparse(1 << 12), LongestQueueDrop::new(0))
            .egress_spec("drr:1518")
            .run();
        let got = [&dt, &lqd].map(|r| {
            let a = &r.aggregate;
            (
                a.offered_pkts,
                a.dropped_pkts,
                a.evicted_pkts,
                debug_hash(r),
            )
        });
        let hashes = got.map(|(.., hash)| format!("{hash:#x}"));
        let want = [
            (2964, 0, 0, 0x586f_e55c_abbf_a74e),
            (2964, 0, 423, 0xd3c1_17c4_e22b_770e),
        ];
        assert_eq!(got, want, "{hashes:?}");
    }

    /// Line rates the tables and workloads use, then seeded ones from 1
    /// Mbit/s to 1 Tbit/s, then 3.2 Tbit/s (2.5 ps a byte: every odd
    /// length is an exact half) and rates whose answers saturate or clamp:
    /// zero (infinite time), negative and NaN (time 1).
    fn line_rates(rng: &mut Xoshiro256pp) -> Vec<f64> {
        [0.5, 2.0 / 3.0, 1.0, 2.0, 5.0, 6.0, 10.0]
            .into_iter()
            .chain((0..32).map(|_| 10f64.powf(rng.next_f64() * 6.0 - 3.0)))
            .chain([3200.0, 0.0, -1.0, f64::NAN, 1e-300, 1e300])
            .collect()
    }

    #[test]
    fn tx_time_is_the_libm_rounding_bit_for_bit() {
        let libm = |gbps: f64, len: usize| {
            Picos::new(((len as f64 * 8.0 * 1000.0 / gbps).round() as u64).max(1))
        };
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for gbps in line_rates(&mut rng) {
            for len in 1..=9216 {
                assert_eq!(
                    tx_time(gbps, len),
                    libm(gbps, len),
                    "{gbps} Gbit/s, {len} B"
                );
            }
        }
        // The arrival gaps' rounding: seeded exponential draws at the
        // means the tables and workloads use and at seeded ones, then the
        // edges: zero, the halves, both sides of 2^52 (where the spacing
        // becomes 1), 2^53, and values past `u64::MAX`, which saturate.
        let mut means = vec![50e3, 1e6, 2e6, 1e4, 1.0, 0.3];
        means.extend((0..16).map(|_| 10f64.powf(rng.next_f64() * 12.0)));
        let draws: Vec<f64> = means
            .into_iter()
            .flat_map(|mean| (0..4096).map(|_| rng.next_exp(mean)).collect::<Vec<_>>())
            .collect();
        let p52 = 2f64.powi(52);
        let edges = [
            0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            p52 - 0.5,
            p52 + 0.5,
            p52 + 1.0,
        ]
        .into_iter()
        .chain([
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            u64::MAX as f64,
            2f64.powi(64) + 4096.0,
        ])
        .chain([1e20, f64::MAX, f64::INFINITY, -0.5, -1e20, f64::NAN]);
        for x in draws.into_iter().chain(edges) {
            assert_eq!(round_to_u64(x), x.round() as u64, "{x:e}");
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
