//! Always-on **streaming service mode**: generators merged into one
//! arrival stream, one closed loop per shard, epoch-windowed statistics and
//! **online verification**.
//!
//! [`crate::pipeline`] answers "run this finite trace to completion and
//! report at the end". This module refactors that shape into a
//! long-running *service*: traffic **generators** produce timestamped
//! packets continuously (for a caller-chosen virtual duration), the
//! driver merges them into one arrival stream in virtual-time order, and
//! each shard steps a one-shard instance of the pipeline's closed loop,
//! which applies its own flows' arrivals in that order, interleaved with
//! its own egress completions.
//!
//! One driver runs the service on the calling thread, in wall-clock-free
//! **rounds** of [`crate::scale`]'s shape. Each generator holds one
//! pending arrival; the driver takes the earliest, appends it to its home
//! shard's round buffer, and after every `ROUND` arrivals (and once more
//! when every stream has ended) makes one
//! [`ShardedQueueManager::for_each_shard`] call, which lends shard `s`'s
//! loop its engine for one timed serve phase in which it applies its
//! buffer in order. So the service holds G pending arrivals plus one
//! round between the generators and the engines. Shards never wait on
//! each other — each owns its ledger and completion slot outright and
//! snapshots in stride — so N shards model N engines the way
//! [`ShardedQueueManager`]'s busy-time composite does, without running
//! them at once.
//!
//! Two properties define the mode besides that order:
//!
//! * **Epoch-windowed stats.** A wall-clock-free
//!   [`npqm_sim::epoch::EpochClock`] divides virtual time into fixed
//!   windows; every window reports offered/admitted/dropped/evicted/
//!   delivered counts, a delivery-latency histogram (p50/p99/p999) and
//!   goodput. Window totals reconcile *exactly* with the end-of-run
//!   report. Policy drops at admission are the only packet losses.
//! * **Online verification.** At every epoch boundary each shard runs
//!   [`npqm_core::check`]'s invariant walk and takes a
//!   [`state-digest`](npqm_core::check::state_digest) snapshot of its
//!   own engine **without stopping the other shards**. Because the
//!   snapshot is taken before the first event of the next window is
//!   applied, it equals — byte for byte — the digest of a fresh run
//!   quiesced at that boundary ([`quiesced_digest`] proves it).
//!
//! # Determinism
//!
//! The merge releases the earliest pending arrival, ties to the lowest
//! generator index, and each generator's arrivals in stream order, so
//! each shard's event sequence is a pure function of the configuration.
//! Where a round ends decides nothing: a loop runs the completions due
//! at or before each arrival first, whichever round carries it. The
//! rounds contain no wall clock, no timeout and no scheduling-dependent
//! choice, so the whole [`ServiceReport`] is a pure function of the
//! configuration, except its wall-clock measurements: `busy` and
//! `critical_path` are the engine's own
//! [`busy_times`](ShardedQueueManager::busy_times) and
//! [`critical_path`](ShardedQueueManager::critical_path), which only
//! `for_each_shard` writes, and `wall_clock` is the run's. Worker threads
//! per phase were built and measured and lost to this serial driver; the
//! `threads` argument of [`run_service`] is what remains of them, and it
//! is ignored.
//!
//! A service shard and a pipeline run step the same loop
//! (`pipeline::ClosedLoop`) under the same tie rule: a completion due at
//! or before the next arrival runs first, and tied completions run lowest
//! shard first. What the service adds is the rounds and, per shard, a
//! watch over that loop: epoch windows, boundary snapshots and the stop
//! cut of [`quiesced_digest`].
//!
//! # Example
//!
//! ```
//! use npqm_core::policy::DynamicThreshold;
//! use npqm_core::sched::DeficitRoundRobin;
//! use npqm_traffic::service::{run_service, ServiceConfig};
//!
//! let cfg = ServiceConfig::steady_demo(7);
//! let r = run_service(
//!     &cfg,
//!     1,
//!     |_| DynamicThreshold::new(2.0),
//!     |_| DeficitRoundRobin::new(vec![1518; 8]),
//! );
//! assert!(r.aggregate.delivered_pkts > 0);
//! assert_eq!(r.aggregate.integrity_violations, 0);
//! // Windowed totals reconcile exactly with the final counters.
//! let windowed: u64 = r.windows.iter().map(|w| w.delivered_pkts).sum();
//! assert_eq!(windowed, r.aggregate.delivered_pkts);
//! ```

use crate::arrival::{ArrivalGen, ArrivalProcess};
use crate::flows::FlowMix;
use crate::pipeline::{
    assemble_sharded_report, tx_table, AdmissionScope, ArrivalOutcome, ClosedLoop, Partitioned,
    PipelineReport, Slot, TxDone, Watch,
};
use crate::size::SizeDistribution;
use npqm_core::check::{fnv1a_fold, state_digest, FNV_OFFSET_BASIS};
use npqm_core::policy::DropPolicy;
use npqm_core::sched::FlowScheduler;
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::{MetricsRegistry, Telemetry, TelemetryConfig, TelemetryReport};
use npqm_core::{FlowId, QmConfig, QueueManager};
use npqm_sim::epoch::EpochClock;
use npqm_sim::rng::Xoshiro256pp;
use npqm_sim::stats::Histogram;
use npqm_sim::time::Picos;
use std::collections::VecDeque;
use std::slice;
use std::time::{Duration, Instant};

/// XOR mixed into a seed to decorrelate the packet-draw RNG from the
/// arrival-jitter RNG that shares the same base seed.
pub(crate) const DRAW_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The packet-draw stream shared by every execution mode: flow choice,
/// size and marker byte are drawn in a single authoritative order (flow,
/// then size; marker = packet sequence number truncated to a byte), so
/// the pipeline's arrival stream, the scale experiment's batches and the
/// streaming generators all offer *bit-identical* workloads for the same
/// seed.
#[derive(Debug)]
pub struct PacketStream<'a> {
    mix: &'a FlowMix,
    sizes: &'a SizeDistribution,
    rng: Xoshiro256pp,
    seq: u64,
}

impl<'a> PacketStream<'a> {
    /// Creates a stream seeding the draw RNG with exactly `draw_seed`
    /// (callers own any seed mixing, so existing experiments keep their
    /// historical streams).
    pub fn new(mix: &'a FlowMix, sizes: &'a SizeDistribution, draw_seed: u64) -> Self {
        PacketStream {
            mix,
            sizes,
            rng: Xoshiro256pp::seed_from_u64(draw_seed),
            seq: 0,
        }
    }

    /// Draws the next packet: `(flow, size_bytes, marker)`.
    pub fn next_packet(&mut self) -> (FlowId, u32, u8) {
        let flow = self.mix.sample(&mut self.rng);
        let size = self.sizes.sample(&mut self.rng);
        let marker = self.seq as u8;
        self.seq += 1;
        (flow, size, marker)
    }
}

/// One timestamped packet of an offered workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArrivalEvent {
    pub(crate) at: Picos,
    pub(crate) flow: FlowId,
    pub(crate) size: u32,
    pub(crate) marker: u8,
}

/// The lazy arrival source of every closed loop: arrival times from
/// `process` and packets from the shared [`PacketStream`] draw order
/// (arrival time, then flow, then size, per packet), as a pure function
/// of the arguments, ending at the first arrival past `duration`. Every
/// pipeline run, at every shard count, draws it as it goes, so its
/// memory stays O(buffer) however long the run, and every shard count
/// and admission scope sees the identical offered workload.
pub(crate) fn arrival_stream<'a>(
    process: ArrivalProcess,
    mix: &'a FlowMix,
    sizes: &'a SizeDistribution,
    seed: u64,
    duration: Picos,
) -> impl Iterator<Item = ArrivalEvent> + 'a {
    let mut arrivals = ArrivalGen::new(process, seed);
    let mut stream = PacketStream::new(mix, sizes, seed ^ DRAW_SEED_MIX);
    std::iter::from_fn(move || {
        let at = arrivals.next_arrival();
        (at <= duration).then(|| {
            let (flow, size, marker) = stream.next_packet();
            ArrivalEvent {
                at,
                flow,
                size,
                marker,
            }
        })
    })
}

/// Configuration of a streaming service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Engine configuration (buffer size, segment size, flow count).
    pub qm: QmConfig,
    /// Each generator's packet inter-arrival process.
    pub arrivals: ArrivalProcess,
    /// Packet-size distribution (shared draw order with the pipeline).
    pub sizes: SizeDistribution,
    /// Which flow each packet belongs to.
    pub mix: FlowMix,
    /// Aggregate egress line rate in Gbit/s, statically partitioned
    /// across shards exactly as in the sharded pipeline.
    pub egress_gbps: f64,
    /// Number of engine shards (each with its own service loop).
    pub shards: usize,
    /// Number of traffic generators, merged into one arrival stream.
    pub generators: usize,
    /// Virtual-time width of one stats/snapshot epoch.
    pub epoch: Picos,
    /// Each generator produces arrivals up to this instant; the service
    /// then drains every backlog.
    pub duration: Picos,
    /// Delivery-latency histogram bucket width, in nanoseconds.
    pub latency_bucket_ns: u64,
    /// Delivery-latency histogram bucket count.
    pub latency_buckets: usize,
    /// RNG seed; a run's deterministic outputs are a pure function of
    /// this configuration.
    pub seed: u64,
    /// Deterministic observability (see [`npqm_core::telemetry`]):
    /// `Some` records per-shard virtual-time trace events, per-epoch
    /// metric snapshots and a drop-attribution ledger into
    /// [`ServiceReport::telemetry`]. Behaviour-neutral by construction
    /// (proven by `state_digest` equality against an untraced run).
    pub telemetry: Option<TelemetryConfig>,
}

impl ServiceConfig {
    /// A small, fast steady-state scenario for doc-tests and unit tests:
    /// 8 flows over 2 shards, 2 generators in ~3× overload, ~2 ms of
    /// virtual traffic in 200 µs epochs.
    pub fn steady_demo(seed: u64) -> Self {
        ServiceConfig {
            qm: QmConfig::builder()
                .num_flows(8)
                .num_segments(256)
                .segment_bytes(64)
                .build()
                .expect("8 flows, 256 segments of 64 B pass every check of build"),
            arrivals: ArrivalProcess::Poisson {
                mean_interval: Picos::from_nanos(2_000),
            },
            sizes: SizeDistribution::Imix,
            mix: FlowMix::zipf(8, 1.2),
            egress_gbps: 1.0,
            shards: 2,
            generators: 2,
            epoch: Picos::from_micros(200),
            duration: Picos::from_micros(2_000),
            latency_bucket_ns: 10_000,
            latency_buckets: 128,
            seed,
            telemetry: None,
        }
    }

    /// The `table10` steady-state scenario: 64 Zipf-mixed flows over 4
    /// shards, 2 generators offering ~2.9 Gbit/s (≈1.45× the 2 Gbit/s
    /// aggregate egress) for 2.5 virtual seconds (250 ms epochs) through
    /// the table7-sized engine — a multi-second always-on run with
    /// sustained policy drops, continuous snapshots, and a fully drained
    /// ledger at the end.
    pub fn table10() -> Self {
        ServiceConfig {
            qm: QmConfig::builder()
                .num_flows(64)
                .num_segments(8192)
                .segment_bytes(64)
                .build()
                .expect("64 flows, 8192 segments of 64 B pass every check of build"),
            arrivals: ArrivalProcess::Poisson {
                mean_interval: Picos::from_micros(2),
            },
            sizes: SizeDistribution::Imix,
            mix: FlowMix::zipf(64, 1.2),
            egress_gbps: 2.0,
            shards: 4,
            generators: 2,
            epoch: Picos::from_micros(250_000),
            duration: Picos::from_micros(2_500_000),
            latency_bucket_ns: 20_000,
            latency_buckets: 1024,
            seed: 42,
            telemetry: None,
        }
    }

    /// Mean offered load in Gbit/s across all generators.
    pub fn offered_gbps(&self) -> f64 {
        self.generators as f64 * self.arrivals.mean_rate_pps() * self.sizes.mean() * 8.0 / 1e9
    }
}

/// Per-epoch statistics window of one shard (or, merged, of the whole
/// service). Window `k` covers virtual time `[k·epoch, (k+1)·epoch)`;
/// the last window of a run is partial (it ends at the final event).
#[derive(Debug, Clone)]
pub struct EpochWindow {
    /// Window index (see [`npqm_sim::epoch::EpochClock`]).
    pub epoch: u64,
    /// Packets offered to admission in this window.
    pub offered_pkts: u64,
    /// Payload bytes offered in this window.
    pub offered_bytes: u64,
    /// Packets admitted in this window.
    pub admitted_pkts: u64,
    /// Arriving packets the policy refused in this window.
    pub dropped_pkts: u64,
    /// Queued packets pushed out by the policy in this window.
    pub evicted_pkts: u64,
    /// Packets delivered at egress in this window.
    pub delivered_pkts: u64,
    /// Payload bytes delivered in this window.
    pub delivered_bytes: u64,
    /// Delivery-latency histogram (nanoseconds) of this window.
    pub latency_ns: Histogram,
}

impl EpochWindow {
    fn new(epoch: u64, buckets: usize, width_ns: u64) -> Self {
        EpochWindow {
            epoch,
            offered_pkts: 0,
            offered_bytes: 0,
            admitted_pkts: 0,
            dropped_pkts: 0,
            evicted_pkts: 0,
            delivered_pkts: 0,
            delivered_bytes: 0,
            latency_ns: Histogram::new(buckets, width_ns),
        }
    }

    /// Median delivery latency in ns (bucket upper bound); `None` if
    /// nothing was delivered in the window.
    pub fn p50_ns(&self) -> Option<u64> {
        self.latency_ns.quantile(0.50)
    }

    /// 99th-percentile delivery latency in ns.
    pub fn p99_ns(&self) -> Option<u64> {
        self.latency_ns.quantile(0.99)
    }

    /// 99.9th-percentile delivery latency in ns.
    pub fn p999_ns(&self) -> Option<u64> {
        self.latency_ns.quantile(0.999)
    }

    /// Delivered payload throughput in Gbit/s over one full epoch of
    /// `epoch_len` (1 Gbit/s ≡ 1 bit/ns).
    pub fn goodput_gbps(&self, epoch_len: Picos) -> f64 {
        if epoch_len == Picos::ZERO {
            return 0.0;
        }
        self.delivered_bytes as f64 * 8.0 / epoch_len.as_nanos_f64()
    }

    /// Adds another shard's same-epoch window into this one.
    fn absorb(&mut self, other: &EpochWindow) {
        debug_assert_eq!(self.epoch, other.epoch);
        self.offered_pkts += other.offered_pkts;
        self.offered_bytes += other.offered_bytes;
        self.admitted_pkts += other.admitted_pkts;
        self.dropped_pkts += other.dropped_pkts;
        self.evicted_pkts += other.evicted_pkts;
        self.delivered_pkts += other.delivered_pkts;
        self.delivered_bytes += other.delivered_bytes;
        self.latency_ns.merge(&other.latency_ns);
    }
}

/// One shard's online state snapshot, taken at an epoch boundary without
/// stopping the other shards. The digest covers the engine state *and*
/// the residual packet ledger, so it equals the digest of a fresh run
/// quiesced at the same boundary.
#[derive(Debug, Clone, Copy)]
pub struct EpochSnapshot {
    /// The window this snapshot closes (taken at its exclusive end).
    pub epoch: u64,
    /// The boundary instant (virtual time).
    pub at: Picos,
    /// FNV-1a digest of the shard's engine state folded with its
    /// residual ledger (flow, length, marker per buffered packet).
    pub digest: u64,
    /// Whether the shard's invariant walk passed at the boundary.
    pub verify_ok: bool,
    /// Segments linked into queues at the boundary (from the walk).
    pub segments_used: u32,
    /// Payload bytes proven queued by the walk.
    pub payload_bytes: u64,
    /// Packets in the shard's ledger (admitted, not yet delivered).
    pub buffered_pkts: u64,
    /// Cumulative torn/cross-linked frames observed so far. Always 0 on
    /// a healthy engine — the "zero torn frames across all epoch
    /// snapshots" gate checks every snapshot.
    pub integrity_violations: u64,
}

/// Digest of one shard's full observable state: the engine digest folded
/// with the residual ledger. With an empty ledger this is exactly
/// [`npqm_core::check::state_digest`], so folding per-shard values from
/// [`FNV_OFFSET_BASIS`] reproduces
/// [`ShardedQueueManager::state_digest`] on a drained engine.
fn shard_state_digest(qm: &QueueManager, ledger: &[VecDeque<Slot>]) -> u64 {
    fold_ledger(state_digest(qm), ledger, |slot| (slot.len(), slot.marker()))
}

/// Folds a residual packet ledger into `h`: flow, length and marker of
/// every packet admitted but not yet delivered, flows in index order.
pub(crate) fn fold_ledger<T>(
    mut h: u64,
    ledger: &[VecDeque<T>],
    len_and_marker: impl Fn(&T) -> (u32, u8),
) -> u64 {
    for (f, slots) in ledger.iter().enumerate() {
        for slot in slots {
            let (len, marker) = len_and_marker(slot);
            h = fnv1a_fold(h, f as u64);
            h = fnv1a_fold(h, u64::from(len));
            h = fnv1a_fold(h, u64::from(marker));
        }
    }
    h
}

/// Per-generator seed: decorrelates generators while keeping the run a
/// pure function of the configuration seed.
fn gen_seed(seed: u64, g: usize) -> u64 {
    seed.wrapping_add(0xA076_1D64_78BD_642F_u64.wrapping_mul(g as u64 + 1))
}

/// Arrivals merged per round: after each `ROUND`, every shard applies
/// its share in one timed serve phase.
const ROUND: usize = 4096;

/// One shard's always-on service loop: a one-shard [`ClosedLoop`] over
/// the shard's own policy and scheduler, watched by its [`ShardWatch`].
/// It owns its ledger, completion slot and windows outright and is lent
/// its engine for one serve phase at a time, so shards never wait on each
/// other.
struct ShardLoop<'a, P, S> {
    policy: P,
    sched: S,
    /// The loop's home table: every flow homed on its one shard.
    home: &'a [usize],
    lp: ClosedLoop<'a>,
    watch: ShardWatch<'a>,
    done: bool,
    final_digest: u64,
}

impl<P, S> ShardLoop<'_, P, S>
where
    P: DropPolicy,
    S: FlowScheduler,
{
    /// Offers this round's arrivals on the lent engine `qm`, in order,
    /// and once every stream has `ended` drains the backlog. The loop
    /// freezes when it has drained or its watch stops it at the stop
    /// boundary.
    fn serve_round(&mut self, qm: &mut QueueManager, round: &[ArrivalEvent], ended: bool) {
        let scope = &mut Partitioned {
            shards: slice::from_mut(qm),
            policies: slice::from_mut(&mut self.policy),
            shard_of_flow: self.home,
        };
        let scheds = slice::from_mut(&mut self.sched);
        let (lp, watch) = (&mut self.lp, &mut self.watch);
        let stopped = !(round.iter().all(|&pkt| lp.offer(scope, scheds, pkt, watch))
            && (!ended || lp.complete_until(scope, scheds, Picos::new(u64::MAX), watch)));
        if stopped || ended {
            self.finalize(qm, stopped);
        }
    }

    /// Freezes the loop: pushes the final (partial) window on a full
    /// drain, folds the per-flow report and digests the frozen state.
    fn finalize(&mut self, qm: &QueueManager, stopped: bool) {
        let w = &mut self.watch;
        if !stopped {
            let last = w.take_window(w.cur.epoch);
            (w.obs)(w.shard, &last);
            w.windows.push(last);
        }
        if let Some(tel) = &mut self.lp.tel {
            // End-of-run snapshot of the engine's own counters, which the
            // bins and property tests reconcile the report against.
            let mut reg = MetricsRegistry::new();
            reg.record_qm("qm.", qm.stats());
            reg.record_ptr("ptr.", &qm.ptr_counters());
            tel.set_final_metrics(reg);
        }
        self.lp.finish();
        self.final_digest = shard_state_digest(qm, &self.lp.ledger);
        self.done = true;
    }

    fn into_report(mut self, busy: Duration) -> ShardServiceReport {
        ShardServiceReport {
            residual_pkts: self.lp.buffered_pkts(),
            report: (self.lp.reports.pop()).expect("a one-shard loop keeps one report"),
            telemetry: self.lp.tel,
            windows: self.watch.windows,
            snapshots: self.watch.snapshots,
            final_digest: self.final_digest,
            busy,
            segments_processed: self.watch.segments,
        }
    }
}

/// A service shard's [`Watch`]: its epoch windows, the boundary
/// snapshots it takes as time advances, and the stop cut of
/// [`quiesced_digest`].
struct ShardWatch<'a> {
    cfg: &'a ServiceConfig,
    shard: usize,
    obs: &'a dyn Fn(usize, &EpochWindow),
    clock: EpochClock,
    cur: EpochWindow,
    windows: Vec<EpochWindow>,
    snapshots: Vec<EpochSnapshot>,
    segments: u64,
    stop_at: Option<Picos>,
}

impl<'a> ShardWatch<'a> {
    fn new(
        cfg: &'a ServiceConfig,
        shard: usize,
        obs: &'a dyn Fn(usize, &EpochWindow),
        stop_at: Option<Picos>,
    ) -> Self {
        ShardWatch {
            cfg,
            shard,
            obs,
            clock: EpochClock::new(cfg.epoch),
            cur: EpochWindow::new(0, cfg.latency_buckets, cfg.latency_bucket_ns),
            windows: Vec::new(),
            snapshots: Vec::new(),
            segments: 0,
            stop_at,
        }
    }

    /// Takes the current window, leaving an empty window `next` open.
    fn take_window(&mut self, next: u64) -> EpochWindow {
        let empty = EpochWindow::new(next, self.cfg.latency_buckets, self.cfg.latency_bucket_ns);
        std::mem::replace(&mut self.cur, empty)
    }

    /// Snapshots the shard at window `e`'s boundary and closes the window.
    fn close_window(&mut self, qm: &QueueManager, lp: &mut ClosedLoop<'_>, e: u64) {
        let digest = shard_state_digest(qm, &lp.ledger);
        let (verify_ok, segments_used, payload_bytes) = match qm.verify() {
            Ok(r) => (true, r.segments_used, r.payload_bytes),
            Err(_) => (false, 0, 0),
        };
        self.snapshots.push(EpochSnapshot {
            epoch: e,
            at: self.clock.boundary(e),
            digest,
            verify_ok,
            segments_used,
            payload_bytes,
            buffered_pkts: lp.buffered_pkts(),
            integrity_violations: lp.reports[0].integrity_violations,
        });
        let w = self.take_window(e + 1);
        if let Some(tel) = &mut lp.tel {
            // The boundary event and a cumulative metrics snapshot,
            // taken at the same pre-event instant as the digest
            // above (telemetry reads the engine, never touches it).
            let at = self.clock.boundary(e);
            tel.record_epoch(at, e);
            let mut reg = MetricsRegistry::new();
            reg.record_qm("qm.", qm.stats());
            reg.record_ptr("ptr.", &qm.ptr_counters());
            tel.snapshot_metrics(e, reg);
        }
        (self.obs)(self.shard, &w);
        self.windows.push(w);
    }
}

impl Watch for ShardWatch<'_> {
    /// Stops the loop at the stop boundary; short of it, advances the
    /// epoch clock to `t`, closing every window that completes and
    /// snapshotting the shard at each boundary — *before* the event at `t`
    /// is applied, so each snapshot observes exactly the state at its
    /// boundary. Inlined: it runs once per event, and an event that
    /// closes no window only compares `t` with the next boundary instead
    /// of making a call.
    #[inline]
    fn at<A: AdmissionScope>(&mut self, scope: &mut A, lp: &mut ClosedLoop<'_>, t: Picos) -> bool {
        if self.stop_at.is_some_and(|b| t >= b) {
            return false;
        }
        for e in self.clock.advance_to(t) {
            self.close_window(scope.qm(0), lp, e);
        }
        true
    }

    fn arrived(&mut self, pkt: &ArrivalEvent, outcome: ArrivalOutcome) {
        self.cur.offered_pkts += 1;
        self.cur.offered_bytes += u64::from(pkt.size);
        self.cur.evicted_pkts += outcome.evicted;
        if outcome.admitted {
            self.cur.admitted_pkts += 1;
            self.segments += self.cfg.qm.segments_for(pkt.size as usize) as u64;
        } else {
            self.cur.dropped_pkts += 1;
        }
    }

    fn delivered(&mut self, done: &TxDone, lat_ns: u64) {
        self.cur.delivered_pkts += 1;
        self.cur.delivered_bytes += u64::from(done.bytes);
        self.cur.latency_ns.record(lat_ns);
        self.segments += self.cfg.qm.segments_for(done.bytes as usize) as u64;
    }
}

/// One shard's outcome of a service run.
#[derive(Debug, Clone)]
pub struct ShardServiceReport {
    /// The shard's pipeline-shaped report (per-flow and totals). Its
    /// `makespan` is stamped with the global maximum by the caller.
    pub report: PipelineReport,
    /// Per-epoch statistics windows, contiguous from epoch 0; the last
    /// one is partial.
    pub windows: Vec<EpochWindow>,
    /// Online snapshots, one per completed epoch.
    pub snapshots: Vec<EpochSnapshot>,
    /// Digest of the shard's final state (engine + residual ledger).
    /// After a full drain the ledger is empty and folding these across
    /// shards reproduces [`ShardedQueueManager::state_digest`].
    pub final_digest: u64,
    /// Packets still in the ledger when the loop froze. Always 0 after a
    /// full drain (the "ledger drains" memory gate).
    pub residual_pkts: u64,
    /// This shard's engine busy time: the wall clock of its serve phases,
    /// as [`ShardedQueueManager::for_each_shard`] measured it.
    pub busy: Duration,
    /// Segments enqueued plus segments dequeued, the same work unit the
    /// scale experiment counts.
    pub segments_processed: u64,
    /// The shard's telemetry recorder (events, counts, drop ledger),
    /// populated when [`ServiceConfig::telemetry`] is set; the run's
    /// merged view is [`ServiceReport::telemetry`].
    pub telemetry: Option<Telemetry>,
}

/// Aggregate outcome of a [`run_service`] run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardServiceReport>,
    /// Merged pipeline-shaped report over all shards.
    pub aggregate: PipelineReport,
    /// Per-epoch windows merged across shards, contiguous from epoch 0.
    pub windows: Vec<EpochWindow>,
    /// Engine-wide online digest per completed epoch: per-shard snapshot
    /// digests folded in shard order (a shard that drained before a
    /// boundary contributes its frozen final digest), equal to
    /// [`quiesced_digest`] of the same epoch.
    pub epoch_digests: Vec<u64>,
    /// Engine-wide digest of the final state (per-shard final digests
    /// folded in shard order).
    pub final_digest: u64,
    /// Home shard of each flow.
    pub shard_of_flow: Vec<usize>,
    /// The epoch width the run used.
    pub epoch_len: Picos,
    /// Always 0: the service has no ingress lanes to stall. Kept only
    /// because the benchmark crate (`bench/`) still reads it; the
    /// `benchmark` change of ROADMAP item 3 deletes it with its reader.
    pub ring_full_events: u64,
    /// Always 0, and kept for the same reader as `ring_full_events`.
    pub reorder_peak: u64,
    /// Total segments enqueued + dequeued across shards.
    pub segments_processed: u64,
    /// Busy time of the busiest shard (parallel-composite makespan), the
    /// engine's [`critical_path`](ShardedQueueManager::critical_path).
    pub critical_path: Duration,
    /// Wall-clock duration of the whole run.
    pub wall_clock: Duration,
    /// Per-shard telemetry merged into one deterministic view: events in
    /// virtual-time order, drop taxonomy, per-epoch and final metric
    /// snapshots. `None` when [`ServiceConfig::telemetry`] was `None`.
    pub telemetry: Option<TelemetryReport>,
}

impl ServiceReport {
    /// Sustained rate of the shard composite: segments processed over
    /// the busiest shard's busy time — directly comparable to the scale
    /// experiment's [`crate::scale::ShardScaleRow::segments_per_sec`].
    pub fn segments_per_sec(&self) -> f64 {
        let secs = self.critical_path.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.segments_processed as f64 / secs
    }
}

/// Runs the streaming service (see the [module docs](self)) on the
/// calling thread. `threads` is ignored (ROADMAP item 3 deletes it with
/// the benchmark crate's call).
///
/// # Panics
///
/// Panics if the configuration is inconsistent (zero shards or
/// generators; flow mix outside the engine's flow table; non-positive
/// egress rate).
pub fn run_service<P, S>(
    cfg: &ServiceConfig,
    _threads: usize,
    mk_policy: impl FnMut(usize) -> P,
    mk_sched: impl FnMut(usize) -> S,
) -> ServiceReport
where
    P: DropPolicy,
    S: FlowScheduler,
{
    run_service_observed(cfg, mk_policy, mk_sched, |_, _| {})
}

/// [`run_service`] with a live per-window observer: `observe(shard,
/// window)` is called as each shard closes a window (a panic in it
/// unwinds out of the run).
pub fn run_service_observed<P, S>(
    cfg: &ServiceConfig,
    mk_policy: impl FnMut(usize) -> P,
    mk_sched: impl FnMut(usize) -> S,
    observe: impl Fn(usize, &EpochWindow),
) -> ServiceReport
where
    P: DropPolicy,
    S: FlowScheduler,
{
    run_service_inner(cfg, mk_policy, mk_sched, &observe, None)
}

/// The digest an online run reports for `epoch`, reproduced the slow
/// way: a fresh serial run of the same configuration stopped (quiesced)
/// exactly at the epoch's boundary, then digested at rest. The
/// digest-stability contract — and the `table10` gate — is
/// `run_service(cfg, ...).epoch_digests[e] == quiesced_digest(cfg, e, ...)`
/// for every completed epoch `e`: online snapshots observe precisely the
/// state a stop-the-world run would.
pub fn quiesced_digest<P, S>(
    cfg: &ServiceConfig,
    epoch: u64,
    mk_policy: impl FnMut(usize) -> P,
    mk_sched: impl FnMut(usize) -> S,
) -> u64
where
    P: DropPolicy,
    S: FlowScheduler,
{
    let stop = Picos::new((epoch + 1) * cfg.epoch.as_u64());
    run_service_inner(cfg, mk_policy, mk_sched, &|_, _| {}, Some(stop)).final_digest
}

fn run_service_inner<P, S>(
    cfg: &ServiceConfig,
    mk_policy: impl FnMut(usize) -> P,
    mk_sched: impl FnMut(usize) -> S,
    observe: &dyn Fn(usize, &EpochWindow),
    stop_at: Option<Picos>,
) -> ServiceReport
where
    P: DropPolicy,
    S: FlowScheduler,
{
    let flows = cfg.mix.flows();
    assert!(
        flows <= cfg.qm.num_flows(),
        "flow mix draws flows outside the engine's flow table"
    );
    assert!(cfg.egress_gbps > 0.0, "egress rate must be positive");
    assert!(cfg.shards >= 1, "need at least one shard");
    assert!(cfg.generators >= 1, "need at least one generator");

    let wall = Instant::now();
    let mut engine = ShardedQueueManager::partitioned(cfg.qm, cfg.shards)
        .expect("per-shard buffer must be non-empty (a config error, under # Panics)");
    let policies: Vec<P> = (0..cfg.shards).map(mk_policy).collect();
    let scheds: Vec<S> = (0..cfg.shards).map(mk_sched).collect();
    let shard_of_flow: Vec<usize> = (0..flows)
        .map(|f| engine.shard_of(FlowId::new(f)))
        .collect();

    // Every server sends at the same per-shard rate: one transmit table
    // serves them all.
    let tx_times = tx_table(cfg.egress_gbps / cfg.shards as f64, cfg.sizes.max_bytes());
    // Each loop's scope is its one lent engine, every flow homed on it.
    let home = vec![0; flows as usize];
    let mut loops: Vec<ShardLoop<'_, P, S>> = (policies.into_iter().zip(scheds).enumerate())
        .map(|(shard, (policy, sched))| ShardLoop {
            policy,
            sched,
            home: &home,
            lp: ClosedLoop::new(1, flows, cfg.sizes.max_bytes(), cfg.telemetry, &tx_times),
            watch: ShardWatch::new(cfg, shard, observe, stop_at),
            done: false,
            final_digest: 0,
        })
        .collect();

    // The one driver (see the module docs): each generator's stream under
    // its own seed, one pending arrival each, merged earliest first (ties:
    // lowest generator) into `rounds[s]`, this round's arrivals homed on
    // shard `s`. Each `ROUND` arrivals, and once more when every stream
    // has ended, every unfinished loop applies its buffer in one timed
    // serve phase; the last one also drains it.
    let mut streams: Vec<_> = (0..cfg.generators)
        .map(|g| {
            let seed = gen_seed(cfg.seed, g);
            arrival_stream(cfg.arrivals, &cfg.mix, &cfg.sizes, seed, cfg.duration)
        })
        .collect();
    let mut pending: Vec<Option<ArrivalEvent>> = streams.iter_mut().map(Iterator::next).collect();
    let mut rounds: Vec<Vec<ArrivalEvent>> = vec![Vec::new(); cfg.shards];
    loop {
        let mut ended = false;
        for _ in 0..ROUND {
            let earliest = (pending.iter().enumerate())
                .filter_map(|(g, p)| Some((p.as_ref()?.at, g)))
                .min();
            let Some(pkt) =
                earliest.and_then(|(_, g)| std::mem::replace(&mut pending[g], streams[g].next()))
            else {
                ended = true;
                break;
            };
            rounds[shard_of_flow[pkt.flow.as_usize()]].push(pkt);
        }
        engine.for_each_shard(
            &mut loops,
            |sh| !sh.done,
            |qm, sh| sh.serve_round(qm, &rounds[sh.watch.shard], ended),
        );
        for round in &mut rounds {
            round.clear();
        }
        if ended || loops.iter().all(|sh| sh.done) {
            break;
        }
    }
    let mut shards: Vec<ShardServiceReport> = (loops.into_iter().zip(engine.busy_times()))
        .map(|(sh, &busy)| sh.into_report(busy))
        .collect();

    if stop_at.is_none() {
        debug_assert!(
            engine.verify().is_ok(),
            "cross-shard invariants violated after drain"
        );
    }

    let epochs = shards.iter().map(|s| s.snapshots.len()).max().unwrap_or(0);
    let epoch_digests: Vec<u64> = (0..epochs)
        .map(|e| {
            shards.iter().fold(FNV_OFFSET_BASIS, |h, sh| {
                fnv1a_fold(h, sh.snapshots.get(e).map_or(sh.final_digest, |s| s.digest))
            })
        })
        .collect();
    let final_digest = shards
        .iter()
        .fold(FNV_OFFSET_BASIS, |h, sh| fnv1a_fold(h, sh.final_digest));

    // Merge windows per epoch across shards.
    let max_epoch = shards
        .iter()
        .filter_map(|s| s.windows.last().map(|w| w.epoch))
        .max();
    let mut windows = Vec::new();
    if let Some(maxe) = max_epoch {
        windows = (0..=maxe)
            .map(|e| EpochWindow::new(e, cfg.latency_buckets, cfg.latency_bucket_ns))
            .collect();
        for sh in &shards {
            for w in &sh.windows {
                windows[w.epoch as usize].absorb(w);
            }
        }
    }

    let assembled = assemble_sharded_report(
        shards
            .iter_mut()
            .map(|s| std::mem::take(&mut s.report))
            .collect(),
        shard_of_flow,
        flows,
    );
    for (sh, rebased) in shards.iter_mut().zip(assembled.shards) {
        sh.report = rebased;
    }
    // Per-shard recorders merged into one view: events ordered by virtual
    // time, then shard; taxonomy and counters summed.
    let telemetry = shards.iter().any(|sh| sh.telemetry.is_some()).then(|| {
        TelemetryReport::merge(
            (shards.iter().enumerate())
                .filter_map(|(s, sh)| sh.telemetry.as_ref().map(|t| (s as u32, t))),
        )
    });

    ServiceReport {
        telemetry,
        ring_full_events: 0,
        reorder_peak: 0,
        segments_processed: shards.iter().map(|s| s.segments_processed).sum(),
        critical_path: engine.critical_path(),
        shards,
        aggregate: assembled.aggregate,
        windows,
        epoch_digests,
        final_digest,
        shard_of_flow: assembled.shard_of_flow,
        epoch_len: cfg.epoch,
        wall_clock: wall.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{completions_lead_ties, tie_every_gap};
    use crate::{PipelineBuilder, PipelineConfig};
    use npqm_core::policy::DynamicThreshold;
    use npqm_core::sched::DeficitRoundRobin;
    use npqm_core::telemetry::TraceEvent;

    fn demo_policies() -> (
        impl FnMut(usize) -> DynamicThreshold,
        impl FnMut(usize) -> DeficitRoundRobin,
    ) {
        (
            |_| DynamicThreshold::new(2.0),
            |_| DeficitRoundRobin::new(vec![1518; 8]),
        )
    }

    fn demo_run(cfg: &ServiceConfig) -> ServiceReport {
        run_service(
            cfg,
            1,
            |_| DynamicThreshold::new(2.0),
            |_| DeficitRoundRobin::new(vec![1518; 8]),
        )
    }

    #[test]
    fn empty_epoch_window_has_no_quantiles() {
        let w = EpochWindow::new(3, 64, 1_000);
        assert_eq!(w.p50_ns(), None);
        assert_eq!(w.p99_ns(), None);
        assert_eq!(w.p999_ns(), None);
        assert_eq!(w.goodput_gbps(Picos::from_micros(1)), 0.0);
        assert_eq!(w.goodput_gbps(Picos::ZERO), 0.0);
    }

    #[test]
    fn single_delivery_window_reports_the_bucket_upper_bound() {
        let mut w = EpochWindow::new(0, 64, 1_000);
        w.latency_ns.record(2_345); // bucket [2000, 3000)
        assert_eq!(w.p50_ns(), Some(2_999));
        assert_eq!(w.p99_ns(), Some(2_999));
        assert_eq!(w.p999_ns(), Some(2_999));
    }

    #[test]
    fn saturated_window_histogram_pins_quantiles_to_max() {
        let mut w = EpochWindow::new(0, 4, 1_000);
        for _ in 0..10 {
            w.latency_ns.record(50_000); // far past the last bucket
        }
        assert_eq!(w.latency_ns.overflow(), 10);
        assert_eq!(w.p50_ns(), Some(u64::MAX));
        assert_eq!(w.p999_ns(), Some(u64::MAX));
    }

    #[test]
    fn steady_demo_conserves_and_reconciles_windows_with_totals() {
        let cfg = ServiceConfig::steady_demo(11);
        let r = demo_run(&cfg);
        let a = &r.aggregate;
        assert!(a.offered_pkts > 0);
        assert_eq!(
            a.offered_pkts,
            a.delivered_pkts + a.dropped_pkts + a.evicted_pkts
        );
        assert_eq!(a.integrity_violations, 0);
        assert!(r.windows.len() >= 10, "multi-epoch run expected");
        // Exact reconciliation: every windowed counter sums to the
        // end-of-run total.
        assert_eq!(
            r.windows.iter().map(|w| w.offered_pkts).sum::<u64>(),
            a.offered_pkts
        );
        assert_eq!(
            r.windows.iter().map(|w| w.offered_bytes).sum::<u64>(),
            a.offered_bytes
        );
        assert_eq!(
            r.windows.iter().map(|w| w.dropped_pkts).sum::<u64>(),
            a.dropped_pkts
        );
        assert_eq!(
            r.windows.iter().map(|w| w.evicted_pkts).sum::<u64>(),
            a.evicted_pkts
        );
        assert_eq!(
            r.windows.iter().map(|w| w.delivered_pkts).sum::<u64>(),
            a.delivered_pkts
        );
        assert_eq!(
            r.windows.iter().map(|w| w.delivered_bytes).sum::<u64>(),
            a.delivered_bytes
        );
        assert_eq!(
            r.windows.iter().map(|w| w.latency_ns.count()).sum::<u64>(),
            a.delivered_pkts
        );
        // The ledger drained and per-shard digests compose to the
        // engine-wide one.
        for sh in &r.shards {
            assert_eq!(sh.residual_pkts, 0, "ledger must drain");
            for snap in &sh.snapshots {
                assert!(
                    snap.verify_ok,
                    "online verify failed at epoch {}",
                    snap.epoch
                );
                assert_eq!(snap.integrity_violations, 0);
            }
        }
    }

    #[test]
    fn online_digests_match_a_quiesced_replay() {
        // The digest-stability contract: the snapshot a *running* engine
        // publishes at an epoch boundary is byte-identical to stopping a
        // fresh run at that boundary and digesting it at rest.
        let cfg = ServiceConfig::steady_demo(3);
        let r = demo_run(&cfg);
        assert!(r.epoch_digests.len() >= 3);
        for e in [0, 1, r.epoch_digests.len() as u64 - 1] {
            let q = quiesced_digest(
                &cfg,
                e,
                |_| DynamicThreshold::new(2.0),
                |_| DeficitRoundRobin::new(vec![1518; 8]),
            );
            assert_eq!(
                r.epoch_digests[e as usize], q,
                "online digest diverged from quiesced replay at epoch {e}"
            );
        }
    }

    #[test]
    fn each_window_counts_the_traced_events_of_its_span() {
        // A window closes before the first event at or past its end is
        // applied, so it counts exactly the traced events inside its span
        // (the last one, closed by the drain, also every later event).
        let mut cfg = ServiceConfig::steady_demo(5);
        cfg.shards = 2;
        cfg.telemetry = Some(TelemetryConfig::with_ring(1 << 20));
        let r = demo_run(&cfg);
        for sh in &r.shards {
            let tel = sh.telemetry.as_ref().expect("traced run");
            let last = sh
                .windows
                .last()
                .expect("a drained run pushes its last window");
            for w in &sh.windows {
                let start = cfg.epoch * w.epoch;
                let end = cfg.epoch * (w.epoch + 1);
                let inside = |name: &str| {
                    let span =
                        |e: &&TraceEvent| e.at >= start && (w.epoch == last.epoch || e.at < end);
                    tel.events()
                        .filter(span)
                        .filter(|e| e.kind.name() == name)
                        .count() as u64
                };
                assert_eq!(inside("deliver"), w.delivered_pkts, "epoch {}", w.epoch);
                assert_eq!(
                    inside("admit") + inside("drop"),
                    w.offered_pkts,
                    "epoch {}",
                    w.epoch
                );
            }
        }
    }

    #[test]
    fn digests_hold_with_an_arrival_on_every_boundary() {
        // CBR 50 ns arrivals and 50 µs epochs put an arrival exactly on
        // each boundary: the snapshot and the stop cut both come before
        // it, so the online digest and the quiesced replay still agree.
        let cfg = ServiceConfig {
            arrivals: ArrivalProcess::Cbr {
                interval: Picos::from_nanos(50),
            },
            sizes: SizeDistribution::Fixed(64),
            egress_gbps: 5.0,
            shards: 1,
            generators: 1,
            epoch: Picos::from_micros(50),
            duration: Picos::from_micros(200),
            ..ServiceConfig::steady_demo(42)
        };
        let r = demo_run(&cfg);
        assert!(r.epoch_digests.len() >= 3);
        for e in 0..r.epoch_digests.len() as u64 {
            let q = quiesced_digest(
                &cfg,
                e,
                |_| DynamicThreshold::new(2.0),
                |_| DeficitRoundRobin::new(vec![1518; 8]),
            );
            assert_eq!(r.epoch_digests[e as usize], q, "epoch {e}");
        }
    }

    #[test]
    fn window_quantiles_are_monotone() {
        let cfg = ServiceConfig::steady_demo(21);
        let r = demo_run(&cfg);
        let mut saw_delivery_window = false;
        for w in &r.windows {
            if let (Some(p50), Some(p99), Some(p999)) = (w.p50_ns(), w.p99_ns(), w.p999_ns()) {
                saw_delivery_window = true;
                assert!(p50 <= p99, "epoch {}: p50 {p50} > p99 {p99}", w.epoch);
                assert!(p99 <= p999, "epoch {}: p99 {p99} > p999 {p999}", w.epoch);
            }
        }
        assert!(saw_delivery_window);
    }

    #[test]
    fn final_digest_matches_the_sharded_engine_digest_after_drain() {
        // With the ledger drained, each shard's final digest is its bare
        // engine digest, so folding them in shard order is exactly how
        // `ShardedQueueManager::state_digest` composes — and what the
        // report publishes.
        let cfg = ServiceConfig::steady_demo(7);
        let r = demo_run(&cfg);
        assert_eq!(r.shards.len(), cfg.shards);
        assert!(r.shards.iter().all(|sh| sh.residual_pkts == 0));
        let folded = r
            .shards
            .iter()
            .fold(FNV_OFFSET_BASIS, |h, sh| fnv1a_fold(h, sh.final_digest));
        assert_eq!(folded, r.final_digest);
        // A drained engine is not a fresh one (free lists are permuted),
        // so the value is pinned by an independent run instead.
        assert_eq!(r.final_digest, demo_run(&cfg).final_digest);
    }

    #[test]
    fn service_tie_order_is_pinned() {
        // The traffic of `pipeline::tests::tie_heavy` through the service:
        // CBR 50 ns arrivals of 64 B packets into 5 Gbit/s, so an arrival
        // and a completion collide on the same picosecond every 125th
        // service. Completions go first (`t <= until` in `complete_until`).
        // The engine is small (8 flows, 128 segments) so that the buffer
        // is full at every collision and the queue being served is often
        // the one LQD evicts from: with `<` the eviction *count* stays
        // (the push-out moves one arrival later) but the victims, and so
        // the hash, change; on `tie_heavy`'s 256 flows they happen not to.
        // Poisson arrivals at picosecond resolution never tie, so no
        // other test, gate or benchmark pin holds this rule. (The hash was
        // re-recorded when `PipelineReport` lost its `telemetry` field, as
        // the old `Debug` text with its `, telemetry: None` cut out.)
        let cfg = ServiceConfig {
            qm: QmConfig::builder()
                .num_flows(8)
                .num_segments(128)
                .segment_bytes(64)
                .build()
                .unwrap(),
            arrivals: ArrivalProcess::Cbr {
                interval: Picos::from_nanos(50),
            },
            sizes: SizeDistribution::Fixed(64),
            mix: FlowMix::uniform(8),
            egress_gbps: 5.0,
            shards: 1,
            generators: 1,
            epoch: Picos::from_micros(50),
            duration: Picos::from_micros(200),
            ..ServiceConfig::steady_demo(42)
        };
        let run = |cfg: &ServiceConfig| {
            let lqd = |_| npqm_core::policy::LongestQueueDrop::new(0);
            run_service(cfg, 1, lqd, |_| DeficitRoundRobin::new(vec![1518; 8]))
        };
        let r = run(&cfg);
        let hash = format!("{:?}", r.aggregate)
            .bytes()
            .fold(FNV_OFFSET_BASIS, |h, b| fnv1a_fold(h, u64::from(b)));
        assert_eq!(r.aggregate.offered_pkts, 4000);
        assert_eq!(r.aggregate.evicted_pkts, 1919);
        assert_eq!(hash, 0xda08_302b_5b46_22a7, "aggregate moved: {hash:#018x}");

        // The finite loop's tie-every-gap traffic, over four shards.
        let every_gap = tie_every_gap(40.0);
        let r = run(&ServiceConfig {
            arrivals: every_gap.arrivals,
            egress_gbps: every_gap.egress_gbps,
            shards: 4,
            duration: every_gap.duration,
            telemetry: every_gap.telemetry,
            ..cfg
        });
        let tel = r.telemetry.unwrap();
        assert_eq!(tel.overflow_events, 0);
        assert!(completions_lead_ties(&tel.events, &r.shard_of_flow) > 50);

        // Two CBR generators in lockstep: every arrival ties across them,
        // so the merge's rule (ties to the lowest generator) decides the
        // order of every pair. Broken toward the highest generator, the
        // aggregate reads 0x57c3_5184_07e2_da48 with 471 drops.
        let r = demo_run(&ServiceConfig {
            arrivals: ArrivalProcess::Cbr {
                interval: Picos::from_micros(3),
            },
            generators: 2,
            ..ServiceConfig::steady_demo(7)
        });
        let a = &r.aggregate;
        let hash = format!("{a:?}")
            .bytes()
            .fold(FNV_OFFSET_BASIS, |h, b| fnv1a_fold(h, u64::from(b)));
        assert_eq!(
            (a.offered_pkts, a.dropped_pkts, a.delivered_pkts),
            (1332, 494, 838)
        );
        assert_eq!(hash, 0x66bd_f3ae_1493_5587, "aggregate moved: {hash:#018x}");
        let epochs = (r.epoch_digests.iter()).fold(FNV_OFFSET_BASIS, |h, &d| fnv1a_fold(h, d));
        assert_eq!(
            epochs, 0xd1d5_7ff6_1e49_2d6d,
            "epoch digests moved: {epochs:#018x}"
        );
        assert_eq!(r.final_digest, 0x5163_6f49_5170_02a1);
    }

    #[test]
    fn four_generator_merge_is_pinned() {
        // Four generators merged into two shards: the digests pin the
        // merge order and where each shard's completions fall between
        // its arrivals. Every constant here was recorded under the
        // earlier lane transport (these two at 146eec6), which decided
        // no output, so they check the merge against an independent
        // driver.
        let mut cfg = ServiceConfig::steady_demo(7);
        cfg.generators = 4;
        let r = demo_run(&cfg);
        let epochs = (r.epoch_digests.iter()).fold(FNV_OFFSET_BASIS, |h, &d| fnv1a_fold(h, d));
        assert_eq!(r.epoch_digests.len(), 10);
        assert_eq!(
            epochs, 0x900a_69bd_0b92_cfd0,
            "epoch digests moved: {epochs:#018x}"
        );
        assert_eq!(r.final_digest, 0x8433_0d7f_0c59_5880);

        // The same generators for 6 ms: 11,922 arrivals, so three rounds,
        // whose boundaries must decide nothing either.
        cfg.duration = Picos::from_micros(6_000);
        let r = demo_run(&cfg);
        assert_eq!(r.aggregate.offered_pkts, 11_922);
        let epochs = (r.epoch_digests.iter()).fold(FNV_OFFSET_BASIS, |h, &d| fnv1a_fold(h, d));
        assert_eq!(r.epoch_digests.len(), 30);
        assert_eq!(
            epochs, 0x4dc3_39b9_80e8_16d2,
            "epoch digests moved: {epochs:#018x}"
        );
        assert_eq!(r.final_digest, 0xccdc_5185_4b42_13d3);
        let busiest = r.shards.iter().map(|sh| sh.busy).max();
        assert_eq!(Some(r.critical_path), busiest);
    }

    #[test]
    fn one_generator_service_reports_what_the_pipeline_reports() {
        // One generator's stream is the pipeline's arrival stream under
        // that generator's seed, and each service shard steps the same
        // loop as a pipeline shard over a partitioned buffer, so with no
        // stop cut the two drivers report alike, shard by shard. 10 ms is
        // 5,020 arrivals, which the service hands over in two rounds.
        let mut cfg = ServiceConfig::steady_demo(7);
        cfg.generators = 1;
        cfg.duration = Picos::from_micros(10_000);
        for (shards, delivered) in [(1, 3_694), (2, 3_718), (4, 3_228)] {
            cfg.shards = shards;
            let svc = demo_run(&cfg);
            let pipe = PipelineBuilder::new(&PipelineConfig {
                qm: cfg.qm,
                arrivals: cfg.arrivals,
                sizes: cfg.sizes,
                mix: cfg.mix.clone(),
                egress_gbps: cfg.egress_gbps,
                duration: cfg.duration,
                seed: gen_seed(cfg.seed, 0),
                telemetry: None,
            })
            .shards(shards)
            .admission(|_| DynamicThreshold::new(2.0))
            .egress(|_| DeficitRoundRobin::new(vec![1518; 8]))
            .run();
            let a = &svc.aggregate;
            assert_eq!((a.offered_pkts, a.delivered_pkts), (5_020, delivered));
            assert_eq!(format!("{a:?}"), format!("{:?}", pipe.aggregate));
            assert_eq!(svc.shards.len(), pipe.shards.len());
            for (sh, p) in svc.shards.iter().zip(&pipe.shards) {
                assert_eq!(
                    format!("{:?}", sh.report),
                    format!("{p:?}"),
                    "{shards} shards"
                );
            }
        }
    }

    #[test]
    fn stopping_before_the_first_epoch_digests_an_early_state() {
        let cfg = ServiceConfig::steady_demo(17);
        let (mut mk_p, mut mk_s) = demo_policies();
        let early = quiesced_digest(&cfg, 0, &mut mk_p, &mut mk_s);
        let late = quiesced_digest(&cfg, 3, &mut mk_p, &mut mk_s);
        assert_ne!(early, late, "different boundaries must digest differently");
    }
}
