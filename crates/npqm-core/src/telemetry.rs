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
//! * **[`Telemetry`]** — a bounded ring buffer of structured
//!   [`TraceEvent`]s, one per closed-loop instance (a pipeline run, or a
//!   service shard), timestamped in **virtual time** ([`Picos`], never
//!   wall clock). Because every event is stamped with simulation time and
//!   recorded by the loop that owns the engines, traces are
//!   byte-identical from run to run — the same contract as
//!   every other deterministic output in the workspace.
//! * **[`MetricsRegistry`]** — a snapshotable registry of named `u64`
//!   counters under stable dotted names (`qm.enqueues`, `ptr.qt_reads`, …),
//!   exported as JSON by `npqm-bench`. Metrics that depend on the host
//!   (wall clock, say) are flagged *volatile* so deterministic exports
//!   can exclude them.
//! * **[`DropLedger`]** — every admission-policy drop and push-out
//!   eviction tagged with the policy name, the [`DropCause`], the victim
//!   queue's depth and the buffer occupancy at decision time, aggregated
//!   into a drop taxonomy that reconciles *exactly* with the report
//!   totals: the refusal rows sum to `dropped_pkts`, the push-out rows to
//!   `evicted_pkts`.
//!
//! Each fact has one home. Packet outcomes are counted by the run's own
//! reports; the ledger attributes losses; the ring holds the event stream
//! and [`Telemetry::overflow_events`] counts what it rotated out; the
//! registry snapshots engine state (`qm.*`, `ptr.*`). Nothing here keeps a
//! second tally of what the reports already count.
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
//! let names: Vec<&str> = tel.events().map(|e| e.kind.name()).collect();
//! assert_eq!(names, ["admit", "deliver"]);
//! assert_eq!(tel.overflow_events(), 0);
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
    /// Capacity of each recorder's event ring, in events. When the ring is
    /// full the **oldest** event is evicted (and counted in
    /// [`Telemetry::overflow_events`]); the drop ledger keeps exact
    /// totals regardless.
    pub ring_capacity: usize,
}

impl TelemetryConfig {
    /// A ring of `ring_capacity` events.
    pub fn with_ring(ring_capacity: usize) -> Self {
        TelemetryConfig { ring_capacity }
    }
}

impl Default for TelemetryConfig {
    /// 4096 events per recorder — enough to hold the tail of a table-sized
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

/// The drop-attribution ledger of one shard: the per-`(policy, cause)`
/// taxonomy. Its refusal rows sum to the pipeline reports'
/// `dropped_pkts` and its push-out rows to their `evicted_pkts` — the
/// recording loops call [`Telemetry::record_drop`] /
/// [`Telemetry::record_evict`] on exactly the code paths that bump them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DropLedger {
    rows: Vec<DropTaxonomyRow>,
}

impl DropLedger {
    /// The bucket of `(policy, cause)`, opened empty on first use.
    fn bucket(&mut self, policy: &str, cause: DropCause) -> &mut DropBucket {
        let found = self
            .rows
            .iter()
            .position(|r| r.policy == policy && r.cause == cause);
        let i = found.unwrap_or_else(|| {
            self.rows.push(DropTaxonomyRow {
                policy: policy.to_string(),
                cause,
                bucket: DropBucket::default(),
            });
            self.rows.len() - 1
        });
        &mut self.rows[i].bucket
    }

    /// Adds every row of `other` into `self`.
    pub fn absorb(&mut self, other: &DropLedger) {
        for row in &other.rows {
            self.bucket(&row.policy, row.cause).absorb(&row.bucket);
        }
    }

    /// The taxonomy rows, sorted by `(policy, cause)` for deterministic
    /// export regardless of recording order.
    pub fn rows(&self) -> Vec<DropTaxonomyRow> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| (&a.policy, a.cause).cmp(&(&b.policy, b.cause)));
        rows
    }
}

/// One registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Metric {
    /// The count.
    pub value: u64,
    /// Whether the value depends on the host (wall clock, busy times).
    /// Volatile metrics are excluded from deterministic exports.
    pub volatile: bool,
}

/// A snapshotable registry of named `u64` counters. Names are dotted and
/// stable (`qm.enqueues`, `ptr.qt_reads`); iteration is in sorted name
/// order, so two registries holding the same values export identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
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
                value,
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
                value,
                volatile: true,
            },
        );
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of the counter `name`, if it is registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        Some(self.metrics.get(name)?.value)
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

    /// Adds `other` into `self`: counters sum (per-shard registries fold
    /// into engine-wide totals); a counter volatile in either input stays
    /// volatile.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, om) in &other.metrics {
            let m = self.metrics.entry(name.clone()).or_default();
            m.value += om.value;
            m.volatile |= om.volatile;
        }
    }
}

/// One shard's telemetry: the bounded event ring, the drop-attribution
/// ledger and per-epoch metric snapshots. See the
/// [module docs](self) for the determinism contract.
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    seq: u64,
    events: VecDeque<TraceEvent>,
    overflow: u64,
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
        let bucket = self.ledger.bucket(policy, cause);
        bucket.record(bytes, queue_depth, occupancy);
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
        let bucket = self.ledger.bucket(policy, DropCause::PushOut);
        bucket.record(bytes, victim_depth, occupancy);
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
        self.push(at, EventKind::SchedSelect { flow });
    }

    /// Records an epoch boundary.
    pub fn record_epoch(&mut self, at: Picos, epoch: u64) {
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

    /// The drop-attribution ledger.
    pub fn ledger(&self) -> &DropLedger {
        &self.ledger
    }

    /// Events recorded but rotated out of the ring (absent from
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
/// one deterministic order, the merged drop taxonomy and the folded metric
/// snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// The ring capacity of each recorder the run used: a pipeline run
    /// keeps one recorder for all its shards, the service one per shard.
    pub ring_capacity: usize,
    /// Retained events merged across shards, sorted by
    /// `(virtual time, shard, per-shard seq)` — a pure function of the
    /// per-shard streams, hence byte-identical from run to run.
    pub events: Vec<ShardTraceEvent>,
    /// The merged drop taxonomy, sorted by `(policy, cause)`: its refusal
    /// rows sum to the report's `dropped_pkts`, its push-out rows to its
    /// `evicted_pkts`.
    pub taxonomy: Vec<DropTaxonomyRow>,
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
        assert_eq!(tel.overflow_events(), 2);
        let seqs: Vec<u64> = tel.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_keeps_exact_counts() {
        let mut tel = Telemetry::new(TelemetryConfig::with_ring(0));
        tel.record_deliver(ps(1), FlowId::new(1), 100, 7);
        tel.record_drop(ps(2), "p", DropReason::FlowBytes, FlowId::new(1), 100, 0, 0);
        assert_eq!(tel.events().count(), 0);
        assert_eq!(tel.overflow_events(), 2);
        let rows = tel.ledger().rows();
        assert_eq!((rows[0].bucket.count, rows[0].bucket.bytes), (1, 100));
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
        let rows = tel.ledger().rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].policy, "dynamic-threshold");
        assert_eq!(rows[0].cause, DropCause::GlobalReserve);
        assert_eq!(rows[0].bucket.count, 2);
        assert_eq!(rows[0].bucket.bytes, 192);
        assert_eq!(rows[0].bucket.max_occupancy, 60);
        assert!((rows[0].mean_victim_depth() - 7.0).abs() < 1e-12);
        assert_eq!(rows[1].cause, DropCause::PushOut);
        assert_eq!(rows[1].bucket.count, 1);
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
    }

    #[test]
    fn merge_is_invariant_to_shard_iteration_order() {
        let mut a = Telemetry::new(TelemetryConfig::default());
        let mut b = Telemetry::new(TelemetryConfig::default());
        a.record_drop(ps(5), "p", DropReason::FlowBytes, FlowId::new(0), 64, 1, 2);
        b.record_evict(ps(6), "p", FlowId::new(1), 64, 3, 4);
        let fwd = TelemetryReport::merge([(0u32, &a), (1u32, &b)]);
        let rev = TelemetryReport::merge([(1u32, &b), (0u32, &a)]);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn registry_iterates_sorted_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter("qm.enqueues", 42);
        reg.counter("ptr.qt_reads", 5);
        reg.volatile_counter("host.wall_ns", 7);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["host.wall_ns", "ptr.qt_reads", "qm.enqueues"]);
        assert!(reg.get("host.wall_ns").expect("registered").volatile);
        assert!(!reg.get("qm.enqueues").expect("registered").volatile);
    }

    #[test]
    fn registry_absorb_sums_counters_and_keeps_volatility() {
        let mut a = MetricsRegistry::new();
        a.counter("qm.enqueues", 10);
        a.counter("steals", 1);
        let mut b = MetricsRegistry::new();
        b.counter("qm.enqueues", 5);
        b.volatile_counter("steals", 3);
        a.absorb(&b);
        assert_eq!(a.counter_value("qm.enqueues"), Some(15));
        let steals = a.get("steals").expect("absorbed");
        assert_eq!((steals.value, steals.volatile), (4, true));
        assert!(!a.get("qm.enqueues").expect("registered").volatile);
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
    fn every_record_call_emits_one_event_of_its_kind() {
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
        let names: Vec<&str> = tel.events().map(|e| e.kind.name()).collect();
        let kinds = ["admit", "drop", "evict", "deliver", "sched.select", "epoch"];
        assert_eq!(names, kinds);
        let seqs: Vec<u64> = tel.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5]);
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
