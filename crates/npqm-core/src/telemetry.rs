//! Deterministic, zero-cost-when-disabled observability: virtual-time
//! event tracing, a unified metrics registry, and a drop-attribution
//! ledger.
//!
//! The paper argues entirely through measurement — per-command
//! memory-access counts (Table 3), queue-ops/sec (Table 7), scheduler
//! utilization — yet the counters of this reproduction historically
//! lived scattered across [`crate::stats::QmStats`], the pointer-memory
//! counters and the per-experiment report types, with no per-event
//! tracing and no record of *why* a packet was dropped. This module
//! unifies them behind three cooperating pieces:
//!
//! * **[`Telemetry`]** — a per-engine (per-shard) bounded ring buffer of
//!   structured [`TraceEvent`]s, timestamped in **virtual time**
//!   ([`Picos`], never wall clock). Because every event is stamped with
//!   simulation time and recorded by the shard that owns the engine,
//!   traces are byte-identical from run to run — the same contract as
//!   every other deterministic output in the workspace.
//! * **[`MetricsRegistry`]** — a snapshotable counter/gauge registry
//!   under stable dotted names (`qm.enqueues`, `ptr.qt_reads`, …),
//!   exported as JSON by `npqm-bench`. Metrics that depend on the host
//!   (wall clock, say) are flagged *volatile* so deterministic exports
//!   can exclude them.
//! * **[`DropLedger`]** — every admission-policy drop and push-out
//!   eviction tagged with the policy name, the [`DropCause`], the victim
//!   queue's depth and the buffer occupancy at decision time, aggregated
//!   into a drop taxonomy that reconciles *exactly* with the report
//!   totals (`refused_pkts == dropped_pkts`, `evicted_pkts ==
//!   evicted_pkts`).
//!
//! Recording is strictly additive: a [`Telemetry`] instance observes the
//! engine through values its caller already computed, never mutates it,
//! and the hot paths take an `Option<Telemetry>` that costs one branch
//! when disabled. The "enabled telemetry changes nothing" guarantee is
//! proven the same way [`crate::manager::QueueManager::set_tracing`]'s
//! is: [`crate::check::state_digest`] equality between traced and
//! untraced runs (see the `npqm-traffic` service property tests). The two
//! share nothing else — no event, code path or caller: that access log is
//! the timing model's input ([`crate::timing`]), this module records what
//! happened to packets.
//!
//! Event streams from several shards merge deterministically by
//! `(virtual time, shard, per-shard sequence number)` into a
//! [`TelemetryReport`]; `npqm-bench` exports that report as Chrome
//! `trace_event` JSON loadable in `ui.perfetto.dev`.
//!
//! # Example
//!
//! ```
//! use npqm_core::telemetry::{Telemetry, TelemetryConfig};
//! use npqm_core::FlowId;
//! use npqm_sim::time::Picos;
//!
//! let mut tel = Telemetry::new(TelemetryConfig::default());
//! tel.record_admit(Picos::from_nanos(10), FlowId::new(3), 64);
//! tel.record_deliver(Picos::from_nanos(90), FlowId::new(3), 64, 80);
//! assert_eq!(tel.counts().admits, 1);
//! assert_eq!(tel.counts().delivered_bytes, 64);
//! assert_eq!(tel.events().count(), 2);
//! ```

use crate::id::FlowId;
use crate::limits::DropReason;
use crate::ptrmem::PtrMemCounters;
use crate::stats::QmStats;
use npqm_sim::time::Picos;
use std::collections::{BTreeMap, VecDeque};

/// Configuration of one [`Telemetry`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Capacity of the per-shard event ring, in events. When the ring is
    /// full the **oldest** event is evicted (and counted in
    /// [`Telemetry::overflow_events`]); counters and the drop ledger
    /// keep exact totals regardless.
    pub ring_capacity: usize,
}

impl TelemetryConfig {
    /// A ring of `ring_capacity` events.
    pub fn with_ring(ring_capacity: usize) -> Self {
        TelemetryConfig { ring_capacity }
    }
}

impl Default for TelemetryConfig {
    /// 4096 events per shard — enough to hold the tail of a table-sized
    /// run while keeping the export readable.
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 4096,
        }
    }
}

/// Why a packet left the buffer without being delivered — the
/// [`DropReason`] refusal taxonomy plus the push-out eviction case
/// (evictions happen on *admission* of another packet, so they carry no
/// refusal reason of their own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropCause {
    /// Refused: the flow reached its byte cap.
    FlowBytes,
    /// Refused: the flow reached its packet cap.
    FlowPackets,
    /// Refused: the shared buffer fell below the global reserve.
    GlobalReserve,
    /// Refused: the engine itself was out of memory.
    Engine,
    /// Evicted: pushed out of the buffer by the policy to make room.
    PushOut,
}

impl DropCause {
    /// Stable label used in exports and taxonomy keys.
    pub fn label(self) -> &'static str {
        match self {
            DropCause::FlowBytes => "flow-bytes",
            DropCause::FlowPackets => "flow-packets",
            DropCause::GlobalReserve => "global-reserve",
            DropCause::Engine => "engine",
            DropCause::PushOut => "push-out",
        }
    }

    /// Whether this cause describes a push-out eviction (as opposed to a
    /// refusal of the arriving packet).
    pub fn is_eviction(self) -> bool {
        matches!(self, DropCause::PushOut)
    }
}

impl From<DropReason> for DropCause {
    fn from(r: DropReason) -> Self {
        match r {
            DropReason::FlowBytes => DropCause::FlowBytes,
            DropReason::FlowPackets => DropCause::FlowPackets,
            DropReason::GlobalReserve => DropCause::GlobalReserve,
            DropReason::Engine(_) => DropCause::Engine,
        }
    }
}

/// One structured trace event. All payloads are plain values computed by
/// the recording loop; none borrow the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// The admission policy accepted a packet into the buffer.
    Admit {
        /// Destination flow.
        flow: FlowId,
        /// Payload bytes admitted.
        bytes: u32,
    },
    /// The admission policy refused an arriving packet.
    Drop {
        /// The refused packet's flow.
        flow: FlowId,
        /// Payload bytes refused.
        bytes: u32,
        /// Why the packet was refused.
        cause: DropCause,
        /// The flow's queue depth (segments) at decision time.
        queue_depth: u32,
        /// Buffer occupancy (segments in use) at decision time.
        occupancy: u32,
    },
    /// The admission policy pushed a queued packet out of the buffer.
    Evict {
        /// The evicted packet's flow.
        victim: FlowId,
        /// Payload bytes evicted.
        bytes: u32,
        /// The victim queue's depth (segments) after the eviction.
        victim_depth: u32,
        /// Buffer occupancy (segments in use) after the eviction.
        occupancy: u32,
    },
    /// A packet finished transmission at egress.
    Deliver {
        /// Source flow.
        flow: FlowId,
        /// Payload bytes delivered.
        bytes: u32,
        /// Queueing + transmission delay, in nanoseconds.
        latency_ns: u64,
    },
    /// The egress scheduler selected a flow to serve (for an HTB tree
    /// this is the leaf class decision).
    SchedSelect {
        /// The chosen flow.
        flow: FlowId,
    },
    /// An epoch boundary was crossed (streaming service mode).
    Epoch {
        /// The completed epoch's index.
        epoch: u64,
    },
}

impl EventKind {
    /// Stable event name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Admit { .. } => "admit",
            EventKind::Drop { .. } => "drop",
            EventKind::Evict { .. } => "evict",
            EventKind::Deliver { .. } => "deliver",
            EventKind::SchedSelect { .. } => "sched.select",
            EventKind::Epoch { .. } => "epoch",
        }
    }
}

/// One recorded event: virtual timestamp, per-shard sequence number
/// (total order within one [`Telemetry`] instance) and the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event happened at.
    pub at: Picos,
    /// Per-shard sequence number (0, 1, 2, … in recording order).
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// Exact per-kind event totals, maintained outside the bounded ring so
/// reconciliation against report counters never depends on ring
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// `admit` events.
    pub admits: u64,
    /// Payload bytes across `admit` events.
    pub admit_bytes: u64,
    /// `drop` (refusal) events.
    pub drops: u64,
    /// Payload bytes across `drop` events.
    pub drop_bytes: u64,
    /// `evict` (push-out) events.
    pub evictions: u64,
    /// Payload bytes across `evict` events.
    pub evicted_bytes: u64,
    /// `deliver` events.
    pub deliveries: u64,
    /// Payload bytes across `deliver` events.
    pub delivered_bytes: u64,
    /// `sched.select` events.
    pub sched_selects: u64,
    /// `epoch` boundary events.
    pub epochs: u64,
}

impl EventCounts {
    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &EventCounts) {
        self.admits += other.admits;
        self.admit_bytes += other.admit_bytes;
        self.drops += other.drops;
        self.drop_bytes += other.drop_bytes;
        self.evictions += other.evictions;
        self.evicted_bytes += other.evicted_bytes;
        self.deliveries += other.deliveries;
        self.delivered_bytes += other.delivered_bytes;
        self.sched_selects += other.sched_selects;
        self.epochs += other.epochs;
    }

    /// Total events recorded (including any the ring later evicted).
    pub fn total(&self) -> u64 {
        self.admits
            + self.drops
            + self.evictions
            + self.deliveries
            + self.sched_selects
            + self.epochs
    }
}

/// Aggregated outcomes of one `(policy, cause)` taxonomy cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropBucket {
    /// Packets dropped/evicted in this cell.
    pub count: u64,
    /// Payload bytes across those packets.
    pub bytes: u64,
    /// Sum of the victim queue's depth (segments) at each decision.
    pub sum_victim_depth: u64,
    /// Sum of buffer occupancy (segments) at each decision.
    pub sum_occupancy: u64,
    /// Largest buffer occupancy seen at any decision in this cell.
    pub max_occupancy: u32,
}

impl DropBucket {
    fn record(&mut self, bytes: u32, victim_depth: u32, occupancy: u32) {
        self.count += 1;
        self.bytes += u64::from(bytes);
        self.sum_victim_depth += u64::from(victim_depth);
        self.sum_occupancy += u64::from(occupancy);
        self.max_occupancy = self.max_occupancy.max(occupancy);
    }

    fn absorb(&mut self, other: &DropBucket) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.sum_victim_depth += other.sum_victim_depth;
        self.sum_occupancy += other.sum_occupancy;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
    }
}

/// One row of the drop taxonomy: everything one policy dropped or
/// evicted for one [`DropCause`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropTaxonomyRow {
    /// The deciding policy's [`name`](crate::policy::DropPolicy::name).
    pub policy: String,
    /// Why the packets left the buffer.
    pub cause: DropCause,
    /// Aggregated outcomes.
    pub bucket: DropBucket,
}

impl DropTaxonomyRow {
    /// Mean victim queue depth (segments) at decision time.
    pub fn mean_victim_depth(&self) -> f64 {
        if self.bucket.count == 0 {
            return 0.0;
        }
        self.bucket.sum_victim_depth as f64 / self.bucket.count as f64
    }

    /// Mean buffer occupancy (segments) at decision time.
    pub fn mean_occupancy(&self) -> f64 {
        if self.bucket.count == 0 {
            return 0.0;
        }
        self.bucket.sum_occupancy as f64 / self.bucket.count as f64
    }
}

/// The drop-attribution ledger of one shard: exact totals plus the
/// per-`(policy, cause)` taxonomy. Totals reconcile with the pipeline
/// reports by construction — the recording loops call
/// [`Telemetry::record_drop`] / [`Telemetry::record_evict`] on exactly
/// the code paths that bump `dropped_pkts` / `evicted_pkts`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DropLedger {
    rows: Vec<DropTaxonomyRow>,
    /// Arriving packets the policy refused.
    pub refused_pkts: u64,
    /// Queued packets the policy pushed out.
    pub evicted_pkts: u64,
}

impl DropLedger {
    fn record(&mut self, policy: &str, cause: DropCause, bytes: u32, depth: u32, occupancy: u32) {
        if cause.is_eviction() {
            self.evicted_pkts += 1;
        } else {
            self.refused_pkts += 1;
        }
        let row = match self
            .rows
            .iter_mut()
            .position(|r| r.policy == policy && r.cause == cause)
        {
            Some(i) => &mut self.rows[i],
            None => {
                self.rows.push(DropTaxonomyRow {
                    policy: policy.to_string(),
                    cause,
                    bucket: DropBucket::default(),
                });
                self.rows.last_mut().expect("just pushed")
            }
        };
        row.bucket.record(bytes, depth, occupancy);
    }

    /// Adds every row and total of `other` into `self`.
    pub fn absorb(&mut self, other: &DropLedger) {
        self.refused_pkts += other.refused_pkts;
        self.evicted_pkts += other.evicted_pkts;
        for or in &other.rows {
            match self
                .rows
                .iter_mut()
                .position(|r| r.policy == or.policy && r.cause == or.cause)
            {
                Some(i) => self.rows[i].bucket.absorb(&or.bucket),
                None => self.rows.push(or.clone()),
            }
        }
    }

    /// The taxonomy rows, sorted by `(policy, cause)` for deterministic
    /// export regardless of recording order.
    pub fn rows(&self) -> Vec<DropTaxonomyRow> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| (&a.policy, a.cause).cmp(&(&b.policy, b.cause)));
        rows
    }

    /// Total packets in the ledger (refused plus evicted).
    pub fn total(&self) -> u64 {
        self.refused_pkts + self.evicted_pkts
    }
}

/// A metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
}

/// One registered metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value.
    pub value: MetricValue,
    /// Whether the value depends on the host (wall clock, busy times).
    /// Volatile metrics are excluded from deterministic exports.
    pub volatile: bool,
}

/// A snapshotable registry of named metrics. Names are dotted and
/// stable (`qm.enqueues`, `ptr.qt_reads`, `service.delivered_pkts`);
/// iteration is in sorted name order, so two registries holding the
/// same values export identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a (stable, deterministic) counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: MetricValue::Counter(value),
                volatile: false,
            },
        );
    }

    /// Sets a counter whose value depends on OS scheduling (excluded
    /// from deterministic exports).
    pub fn volatile_counter(&mut self, name: &str, value: u64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: MetricValue::Counter(value),
                volatile: true,
            },
        );
    }

    /// Sets a (stable, deterministic) gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: MetricValue::Gauge(value),
                volatile: false,
            },
        );
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of a counter metric, if `name` is a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            MetricValue::Gauge(_) => None,
        }
    }

    /// Iterates `(name, metric)` in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Registers every [`QmStats`] counter under `prefix` (e.g.
    /// `"qm."`): `enqueues`, `dequeues`, `reads`, `overwrites`,
    /// `len_overwrites`, `seg_deletes`, `pkt_deletes`, `head_appends`,
    /// `tail_appends`, `moves`, `bytes_in`, `bytes_out`, `errors`.
    pub fn record_qm(&mut self, prefix: &str, s: &QmStats) {
        self.counter(&format!("{prefix}enqueues"), s.enqueues);
        self.counter(&format!("{prefix}dequeues"), s.dequeues);
        self.counter(&format!("{prefix}reads"), s.reads);
        self.counter(&format!("{prefix}overwrites"), s.overwrites);
        self.counter(&format!("{prefix}len_overwrites"), s.len_overwrites);
        self.counter(&format!("{prefix}seg_deletes"), s.seg_deletes);
        self.counter(&format!("{prefix}pkt_deletes"), s.pkt_deletes);
        self.counter(&format!("{prefix}head_appends"), s.head_appends);
        self.counter(&format!("{prefix}tail_appends"), s.tail_appends);
        self.counter(&format!("{prefix}moves"), s.moves);
        self.counter(&format!("{prefix}bytes_in"), s.bytes_in);
        self.counter(&format!("{prefix}bytes_out"), s.bytes_out);
        self.counter(&format!("{prefix}errors"), s.errors);
    }

    /// Registers every [`PtrMemCounters`] plane under `prefix` (e.g.
    /// `"ptr."`).
    pub fn record_ptr(&mut self, prefix: &str, c: &PtrMemCounters) {
        self.counter(&format!("{prefix}seg_reads"), c.seg_reads);
        self.counter(&format!("{prefix}seg_writes"), c.seg_writes);
        self.counter(&format!("{prefix}pkt_reads"), c.pkt_reads);
        self.counter(&format!("{prefix}pkt_writes"), c.pkt_writes);
        self.counter(&format!("{prefix}qt_reads"), c.qt_reads);
        self.counter(&format!("{prefix}qt_writes"), c.qt_writes);
    }

    /// Registers every [`EventCounts`] total under `prefix` (e.g.
    /// `"trace."`).
    pub fn record_event_counts(&mut self, prefix: &str, c: &EventCounts) {
        self.counter(&format!("{prefix}admits"), c.admits);
        self.counter(&format!("{prefix}admit_bytes"), c.admit_bytes);
        self.counter(&format!("{prefix}drops"), c.drops);
        self.counter(&format!("{prefix}drop_bytes"), c.drop_bytes);
        self.counter(&format!("{prefix}evictions"), c.evictions);
        self.counter(&format!("{prefix}evicted_bytes"), c.evicted_bytes);
        self.counter(&format!("{prefix}deliveries"), c.deliveries);
        self.counter(&format!("{prefix}delivered_bytes"), c.delivered_bytes);
        self.counter(&format!("{prefix}sched_selects"), c.sched_selects);
        self.counter(&format!("{prefix}epochs"), c.epochs);
    }

    /// Adds `other` into `self`: counters and gauges sum (per-shard
    /// registries fold into engine-wide totals); a metric volatile in
    /// either input stays volatile.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, om) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), *om);
                }
                Some(m) => {
                    m.volatile |= om.volatile;
                    m.value = match (m.value, om.value) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                            MetricValue::Counter(a + b)
                        }
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => MetricValue::Gauge(a + b),
                        // Mixed types under one name: keep the counter,
                        // fold the gauge in as its truncated value.
                        (MetricValue::Counter(a), MetricValue::Gauge(b)) => {
                            MetricValue::Counter(a + b as u64)
                        }
                        (MetricValue::Gauge(a), MetricValue::Counter(b)) => {
                            MetricValue::Gauge(a + b as f64)
                        }
                    };
                }
            }
        }
    }
}

/// One shard's telemetry: the bounded event ring, exact per-kind counts,
/// the drop-attribution ledger and per-epoch metric snapshots. See the
/// [module docs](self) for the determinism contract.
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    seq: u64,
    events: VecDeque<TraceEvent>,
    overflow: u64,
    counts: EventCounts,
    ledger: DropLedger,
    epoch_metrics: Vec<(u64, MetricsRegistry)>,
    final_metrics: Option<MetricsRegistry>,
}

impl Telemetry {
    /// An empty recorder.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            seq: 0,
            events: VecDeque::new(),
            overflow: 0,
            counts: EventCounts::default(),
            ledger: DropLedger::default(),
            epoch_metrics: Vec::new(),
            final_metrics: None,
        }
    }

    fn push(&mut self, at: Picos, kind: EventKind) {
        if self.cfg.ring_capacity == 0 {
            self.overflow += 1;
            self.seq += 1;
            return;
        }
        if self.events.len() == self.cfg.ring_capacity {
            self.events.pop_front();
            self.overflow += 1;
        }
        self.events.push_back(TraceEvent {
            at,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Records an admission.
    pub fn record_admit(&mut self, at: Picos, flow: FlowId, bytes: u32) {
        self.counts.admits += 1;
        self.counts.admit_bytes += u64::from(bytes);
        self.push(at, EventKind::Admit { flow, bytes });
    }

    /// Records a refusal, attributing it in the drop ledger.
    #[allow(clippy::too_many_arguments)]
    pub fn record_drop(
        &mut self,
        at: Picos,
        policy: &str,
        reason: DropReason,
        flow: FlowId,
        bytes: u32,
        queue_depth: u32,
        occupancy: u32,
    ) {
        let cause = DropCause::from(reason);
        self.counts.drops += 1;
        self.counts.drop_bytes += u64::from(bytes);
        self.ledger
            .record(policy, cause, bytes, queue_depth, occupancy);
        self.push(
            at,
            EventKind::Drop {
                flow,
                bytes,
                cause,
                queue_depth,
                occupancy,
            },
        );
    }

    /// Records a push-out eviction, attributing it in the drop ledger.
    pub fn record_evict(
        &mut self,
        at: Picos,
        policy: &str,
        victim: FlowId,
        bytes: u32,
        victim_depth: u32,
        occupancy: u32,
    ) {
        self.counts.evictions += 1;
        self.counts.evicted_bytes += u64::from(bytes);
        self.ledger
            .record(policy, DropCause::PushOut, bytes, victim_depth, occupancy);
        self.push(
            at,
            EventKind::Evict {
                victim,
                bytes,
                victim_depth,
                occupancy,
            },
        );
    }

    /// Records a delivery.
    pub fn record_deliver(&mut self, at: Picos, flow: FlowId, bytes: u32, latency_ns: u64) {
        self.counts.deliveries += 1;
        self.counts.delivered_bytes += u64::from(bytes);
        self.push(
            at,
            EventKind::Deliver {
                flow,
                bytes,
                latency_ns,
            },
        );
    }

    /// Records an egress scheduler decision.
    pub fn record_sched_select(&mut self, at: Picos, flow: FlowId) {
        self.counts.sched_selects += 1;
        self.push(at, EventKind::SchedSelect { flow });
    }

    /// Records an epoch boundary.
    pub fn record_epoch(&mut self, at: Picos, epoch: u64) {
        self.counts.epochs += 1;
        self.push(at, EventKind::Epoch { epoch });
    }

    /// Attaches a per-epoch metrics snapshot (the streaming service
    /// takes one at every boundary, cumulative as of that boundary).
    pub fn snapshot_metrics(&mut self, epoch: u64, registry: MetricsRegistry) {
        self.epoch_metrics.push((epoch, registry));
    }

    /// Attaches the end-of-run metrics snapshot.
    pub fn set_final_metrics(&mut self, registry: MetricsRegistry) {
        self.final_metrics = Some(registry);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Exact per-kind totals (independent of ring capacity).
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// The drop-attribution ledger.
    pub fn ledger(&self) -> &DropLedger {
        &self.ledger
    }

    /// Events evicted from the ring (recorded in counts, absent from
    /// [`events`](Self::events)).
    pub fn overflow_events(&self) -> u64 {
        self.overflow
    }

    /// The configured ring capacity.
    pub fn ring_capacity(&self) -> usize {
        self.cfg.ring_capacity
    }

    /// Per-epoch metrics snapshots, in recording (epoch) order.
    pub fn epoch_metrics(&self) -> &[(u64, MetricsRegistry)] {
        &self.epoch_metrics
    }

    /// The end-of-run metrics snapshot, if one was taken.
    pub fn final_metrics(&self) -> Option<&MetricsRegistry> {
        self.final_metrics.as_ref()
    }
}

/// One event of a merged multi-shard trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTraceEvent {
    /// The recording shard.
    pub shard: u32,
    /// Virtual time the event happened at.
    pub at: Picos,
    /// The event's per-shard sequence number.
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// The merged telemetry of a whole run: every shard's retained events in
/// one deterministic order, totals, the merged drop taxonomy and the
/// folded metric snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// The per-shard ring capacity the run used.
    pub ring_capacity: usize,
    /// Retained events merged across shards, sorted by
    /// `(virtual time, shard, per-shard seq)` — a pure function of the
    /// per-shard streams, hence byte-identical from run to run.
    pub events: Vec<ShardTraceEvent>,
    /// Exact per-kind totals summed across shards.
    pub counts: EventCounts,
    /// The merged drop taxonomy, sorted by `(policy, cause)`.
    pub taxonomy: Vec<DropTaxonomyRow>,
    /// Total refused packets in the ledger (must equal the report's
    /// `dropped_pkts`).
    pub refused_pkts: u64,
    /// Total evicted packets in the ledger (must equal the report's
    /// `evicted_pkts`).
    pub evicted_pkts: u64,
    /// Events evicted from rings across shards.
    pub overflow_events: u64,
    /// Per-epoch metric snapshots folded across shards (counters sum),
    /// sorted by epoch.
    pub epoch_metrics: Vec<(u64, MetricsRegistry)>,
    /// End-of-run metrics folded across shards (counters sum).
    pub final_metrics: MetricsRegistry,
}

impl TelemetryReport {
    /// Merges per-shard recorders (tagged with their shard index) into
    /// one report. Deterministic: the output is a pure function of the
    /// inputs.
    pub fn merge<'a>(shards: impl IntoIterator<Item = (u32, &'a Telemetry)>) -> Self {
        let mut report = TelemetryReport::default();
        let mut ledger = DropLedger::default();
        let mut by_epoch: BTreeMap<u64, MetricsRegistry> = BTreeMap::new();
        for (shard, tel) in shards {
            report.ring_capacity = report.ring_capacity.max(tel.ring_capacity());
            report.counts.absorb(tel.counts());
            ledger.absorb(tel.ledger());
            report.overflow_events += tel.overflow_events();
            for ev in tel.events() {
                report.events.push(ShardTraceEvent {
                    shard,
                    at: ev.at,
                    seq: ev.seq,
                    kind: ev.kind.clone(),
                });
            }
            for (epoch, reg) in tel.epoch_metrics() {
                by_epoch.entry(*epoch).or_default().absorb(reg);
            }
            if let Some(fin) = tel.final_metrics() {
                report.final_metrics.absorb(fin);
            }
        }
        report.events.sort_by_key(|e| (e.at, e.shard, e.seq));
        report.taxonomy = ledger.rows();
        report.refused_pkts = ledger.refused_pkts;
        report.evicted_pkts = ledger.evicted_pkts;
        report.epoch_metrics = by_epoch.into_iter().collect();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueueError;

    fn ps(n: u64) -> Picos {
        Picos::new(n)
    }

    #[test]
    fn ring_is_bounded_and_drops_oldest() {
        let mut tel = Telemetry::new(TelemetryConfig::with_ring(3));
        for i in 0..5 {
            tel.record_admit(ps(i), FlowId::new(0), 64);
        }
        assert_eq!(tel.counts().admits, 5);
        assert_eq!(tel.overflow_events(), 2);
        let seqs: Vec<u64> = tel.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_keeps_exact_counts() {
        let mut tel = Telemetry::new(TelemetryConfig::with_ring(0));
        tel.record_deliver(ps(1), FlowId::new(1), 100, 7);
        assert_eq!(tel.events().count(), 0);
        assert_eq!(tel.counts().deliveries, 1);
        assert_eq!(tel.counts().delivered_bytes, 100);
        assert_eq!(tel.overflow_events(), 1);
    }

    #[test]
    fn ledger_attributes_drops_and_evictions_separately() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.record_drop(
            ps(10),
            "dynamic-threshold",
            DropReason::GlobalReserve,
            FlowId::new(2),
            64,
            5,
            50,
        );
        tel.record_drop(
            ps(20),
            "dynamic-threshold",
            DropReason::GlobalReserve,
            FlowId::new(3),
            128,
            9,
            60,
        );
        tel.record_evict(ps(30), "lqd", FlowId::new(4), 256, 1, 40);
        let ledger = tel.ledger();
        assert_eq!(ledger.refused_pkts, 2);
        assert_eq!(ledger.evicted_pkts, 1);
        assert_eq!(ledger.total(), 3);
        let rows = ledger.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].policy, "dynamic-threshold");
        assert_eq!(rows[0].cause, DropCause::GlobalReserve);
        assert_eq!(rows[0].bucket.count, 2);
        assert_eq!(rows[0].bucket.bytes, 192);
        assert_eq!(rows[0].bucket.max_occupancy, 60);
        assert!((rows[0].mean_victim_depth() - 7.0).abs() < 1e-12);
        assert_eq!(rows[1].cause, DropCause::PushOut);
        assert_eq!(rows[1].bucket.bytes, 256);
    }

    #[test]
    fn cause_labels_are_stable_and_classify_evictions() {
        assert_eq!(DropCause::from(DropReason::FlowBytes).label(), "flow-bytes");
        assert_eq!(
            DropCause::from(DropReason::Engine(QueueError::OutOfSegments)).label(),
            "engine"
        );
        assert!(DropCause::PushOut.is_eviction());
        assert!(!DropCause::GlobalReserve.is_eviction());
    }

    #[test]
    fn merged_report_orders_events_by_time_then_shard() {
        let mut a = Telemetry::new(TelemetryConfig::default());
        let mut b = Telemetry::new(TelemetryConfig::default());
        a.record_admit(ps(20), FlowId::new(0), 64);
        b.record_admit(ps(10), FlowId::new(1), 64);
        b.record_admit(ps(20), FlowId::new(2), 64);
        let merged = TelemetryReport::merge([(0u32, &a), (1u32, &b)]);
        let order: Vec<(u64, u32)> = merged
            .events
            .iter()
            .map(|e| (e.at.as_u64(), e.shard))
            .collect();
        assert_eq!(order, vec![(10, 1), (20, 0), (20, 1)]);
        assert_eq!(merged.counts.admits, 3);
    }

    #[test]
    fn merge_is_invariant_to_shard_iteration_order() {
        let mut a = Telemetry::new(TelemetryConfig::default());
        let mut b = Telemetry::new(TelemetryConfig::default());
        a.record_drop(ps(5), "p", DropReason::FlowBytes, FlowId::new(0), 64, 1, 2);
        b.record_evict(ps(6), "p", FlowId::new(1), 64, 3, 4);
        let fwd = TelemetryReport::merge([(0u32, &a), (1u32, &b)]);
        let rev = TelemetryReport::merge([(1u32, &b), (0u32, &a)]);
        assert_eq!(fwd.taxonomy, rev.taxonomy);
        assert_eq!(fwd.counts, rev.counts);
        assert_eq!(fwd.events, rev.events);
    }

    #[test]
    fn registry_iterates_sorted_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter("qm.enqueues", 42);
        reg.gauge("service.goodput_gbps", 1.5);
        reg.volatile_counter("host.wall_ns", 7);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["host.wall_ns", "qm.enqueues", "service.goodput_gbps"]
        );
        assert!(reg.get("host.wall_ns").expect("registered").volatile);
        assert!(!reg.get("qm.enqueues").expect("registered").volatile);
    }

    #[test]
    fn registry_absorb_sums_counters_and_keeps_volatility() {
        let mut a = MetricsRegistry::new();
        a.counter("qm.enqueues", 10);
        a.gauge("x", 1.0);
        let mut b = MetricsRegistry::new();
        b.counter("qm.enqueues", 5);
        b.volatile_counter("steals", 3);
        b.gauge("x", 2.0);
        a.absorb(&b);
        assert_eq!(a.counter_value("qm.enqueues"), Some(15));
        assert!(a.get("steals").expect("absorbed").volatile);
        match a.get("x").expect("gauge").value {
            MetricValue::Gauge(v) => assert!((v - 3.0).abs() < 1e-12),
            MetricValue::Counter(_) => panic!("x is a gauge"),
        }
    }

    #[test]
    fn registry_records_qm_stats_under_stable_names() {
        let mut reg = MetricsRegistry::new();
        let stats = QmStats {
            enqueues: 3,
            bytes_in: 192,
            ..QmStats::default()
        };
        reg.record_qm("qm.", &stats);
        assert_eq!(reg.counter_value("qm.enqueues"), Some(3));
        assert_eq!(reg.counter_value("qm.bytes_in"), Some(192));
        assert_eq!(reg.counter_value("qm.errors"), Some(0));
        assert_eq!(reg.len(), 13);
    }

    #[test]
    fn event_counts_total_and_absorb_cover_every_kind() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.record_admit(ps(1), FlowId::new(0), 10);
        tel.record_drop(
            ps(2),
            "p",
            DropReason::FlowPackets,
            FlowId::new(0),
            20,
            0,
            0,
        );
        tel.record_evict(ps(3), "p", FlowId::new(0), 30, 0, 0);
        tel.record_deliver(ps(4), FlowId::new(0), 40, 9);
        tel.record_sched_select(ps(5), FlowId::new(0));
        tel.record_epoch(ps(8), 0);
        assert_eq!(tel.counts().total(), 6);
        let mut acc = EventCounts::default();
        acc.absorb(tel.counts());
        acc.absorb(tel.counts());
        assert_eq!(acc.total(), 12);
        assert_eq!(acc.delivered_bytes, 80);
    }

    #[test]
    fn epoch_metric_snapshots_fold_across_shards_by_epoch() {
        let mut a = Telemetry::new(TelemetryConfig::default());
        let mut b = Telemetry::new(TelemetryConfig::default());
        let mut ra = MetricsRegistry::new();
        ra.counter("qm.enqueues", 10);
        a.snapshot_metrics(0, ra);
        let mut rb = MetricsRegistry::new();
        rb.counter("qm.enqueues", 32);
        b.snapshot_metrics(0, rb);
        let mut fa = MetricsRegistry::new();
        fa.counter("qm.bytes_in", 100);
        a.set_final_metrics(fa);
        let merged = TelemetryReport::merge([(0u32, &a), (1u32, &b)]);
        assert_eq!(merged.epoch_metrics.len(), 1);
        assert_eq!(merged.epoch_metrics[0].0, 0);
        assert_eq!(
            merged.epoch_metrics[0].1.counter_value("qm.enqueues"),
            Some(42)
        );
        assert_eq!(merged.final_metrics.counter_value("qm.bytes_in"), Some(100));
    }
}
