//! Shard-scaling throughput experiment — the workload behind `table7`.
//!
//! The paper's MMS reaches 2.5 Gbit/s because queue management is a
//! pipelined hardware unit; the scaling axis beyond that is *more
//! engines*, with flows partitioned across them. This module drives a
//! [`ShardedQueueManager`] with the same Zipf-skewed bursty-overload mix
//! `table6` uses (Zipf flow popularity, IMIX sizes, offered load above
//! drain capacity) and measures **segments per second versus shard
//! count**.
//!
//! # What is measured
//!
//! Each round offers a batch of packets through shard-local
//! Choudhury–Hahne admission (one [`DynamicThreshold`] per shard) and then
//! drains part of the backlog with round-robin segment dequeues. A round
//! is two [`ShardedQueueManager::for_each_shard`] calls on per-shard state
//! built once for the run, and each shard keeps its own books inside them:
//! in the offer, each shard offers its arrivals in arrival order, counts
//! each into its tally (offered, admitted and dropped packets and bytes,
//! segments) and pushes each admitted packet's length and marker onto its
//! flow's ledger; in the drain, each shard serves its own flows pass by
//! pass in flow order and checks each segment as it is served — its first
//! byte read where the engine keeps it
//! ([`QueueManager::dequeue_with`](npqm_core::QueueManager::dequeue_with)),
//! start and end of frame tracked per flow, length and marker matched
//! against the ledger at the frame's end — adding drained bytes, delivered
//! and torn frames to the same tally. Nothing is recorded per round for
//! the calling thread to walk again: after the last round the row's
//! totals are the shard tallies summed, and the ledgers and reassembly
//! states come back by flow for the end-of-run checks. A shard offers
//! each packet as a prefix of one filler frame it keeps for the run, with
//! the packet's marker stamped into the first byte, so a steady run
//! allocates nothing per round. Both calls run the shards one after
//! another on the calling thread and accumulate per-shard **busy time**,
//! which therefore covers each shard's own bookkeeping as well as its
//! engine work; since shards share no state, N shards model N engines
//! running in parallel and the sustained rate is
//!
//! ```text
//! segments_per_sec = segments_processed / critical_path
//! ```
//!
//! where the critical path is the *busiest* engine's accumulated time —
//! the same convention the IXP1200 model uses for its "six engines"
//! column (Table 2). The 1-shard row pays the whole workload on one
//! engine and is the serialized baseline.
//!
//! Alongside throughput the run keeps a full per-packet ledger (length +
//! marker byte), so it also proves **byte-level conservation** (admitted
//! bytes ≡ drained bytes + bytes still queued) and **zero torn frames**
//! across shards, and finishes with the engine's own
//! [`ShardedQueueManager::verify`] pass.

use crate::flows::FlowMix;
use crate::service::{fold_ledger, PacketStream};
use crate::size::SizeDistribution;
use npqm_core::policy::{DropPolicy, DynamicThreshold};
use npqm_core::shard::ShardedQueueManager;
use npqm_core::timing::{CommandCost, MemoryChannels, PaperTiming, TimingConfig};
use npqm_core::{FlowId, QmConfig, QueueError, SegmentInfo};
use npqm_sim::time::Picos;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Configuration of one shard-scaling run.
#[derive(Debug, Clone)]
pub struct ShardScaleConfig {
    /// Number of flows the mix draws from.
    pub flows: u32,
    /// Aggregate data-memory size in segments, split evenly across
    /// shards so every shard count manages the same total buffer.
    pub total_segments: u32,
    /// Segment size in bytes.
    pub segment_bytes: u32,
    /// Zipf popularity exponent of the flow mix.
    pub zipf_exponent: f64,
    /// Choudhury–Hahne `alpha` of the shard-local admission thresholds.
    pub alpha: f64,
    /// Offer/drain rounds per run.
    pub rounds: u32,
    /// Packets offered per round (IMIX sizes).
    pub packets_per_round: u32,
    /// Fraction of the queued backlog drained per round (< 1 keeps the
    /// buffer under sustained overload, the regime that exercises the
    /// admission thresholds).
    pub drain_fraction: f64,
    /// RNG seed; the command trace is a pure function of the
    /// configuration, so every shard count executes the same workload.
    pub seed: u64,
}

impl ShardScaleConfig {
    /// The `table7` scenario: 64 flows, Zipf 1.2, IMIX sizes, a 512 KiB
    /// aggregate buffer under sustained overload (~30 % of the backlog
    /// drained per round).
    pub fn table7() -> Self {
        ShardScaleConfig {
            flows: 64,
            total_segments: 8192,
            segment_bytes: 64,
            zipf_exponent: 1.2,
            alpha: 2.0,
            rounds: 48,
            packets_per_round: 2048,
            drain_fraction: 0.3,
            seed: 42,
        }
    }

    /// A small, fast scenario for smoke tests.
    pub fn smoke() -> Self {
        ShardScaleConfig {
            rounds: 6,
            packets_per_round: 256,
            total_segments: 2048,
            ..ShardScaleConfig::table7()
        }
    }

    /// The `table8` scenario: the `table7` workload trimmed so the
    /// bank×scheduler sweep over [`TABLE8_BANKS`] stays fast while still
    /// pushing several hundred thousand DDR bursts through each memory
    /// channel.
    pub fn table8() -> Self {
        ShardScaleConfig {
            rounds: 24,
            packets_per_round: 1024,
            ..ShardScaleConfig::table7()
        }
    }
}

/// The canonical `table8` bank-count axis (Table 1's sweep minus the
/// 12-bank row).
pub const TABLE8_BANKS: [u32; 5] = [1, 2, 4, 8, 16];

/// One shard's side of the run, built once: its arrivals are refilled
/// every round, its books kept for the run.
struct ShardRound {
    /// The shard-local Choudhury–Hahne admission.
    policy: DynamicThreshold,
    /// The flows the shard owns, in flow order: its drain order.
    flows: Vec<FlowId>,
    /// This round's arrivals in arrival order: flow, length and marker.
    arrivals: Vec<(FlowId, usize, u8)>,
    /// The largest packet's worth of `0xC3` filler; an arrival is offered
    /// as its first `len` bytes, with its marker stamped into byte 0.
    frame: Vec<u8>,
    /// What the shard's offers and dequeues came to.
    books: Books,
}

/// One shard's bookkeeping, kept as its offers and dequeues happen.
struct Books {
    /// Counts over the run; the row's totals are the shards' sums.
    tally: Tally,
    /// Per flow, indexed by flow id (only the shard's own flows are used):
    /// the length and marker of every admitted packet not yet delivered,
    /// in arrival order.
    ledger: Vec<VecDeque<LedgerSlot>>,
    /// Per flow, indexed as `ledger`: the frame being reassembled.
    reasm: Vec<Reassembly>,
}

/// What one shard counted over the run.
#[derive(Default)]
struct Tally {
    offered_pkts: u64,
    offered_bytes: u64,
    admitted_pkts: u64,
    dropped_pkts: u64,
    admitted_bytes: u64,
    delivered_pkts: u64,
    drained_bytes: u64,
    segments_processed: u64,
    torn_frames: u64,
}

impl Books {
    /// Counts one offer of `len` bytes and, if it was admitted as `segs`
    /// segments, pushes its ledger slot.
    fn offered(&mut self, flow: FlowId, len: usize, marker: u8, admitted: bool, segs: usize) {
        let t = &mut self.tally;
        t.offered_pkts += 1;
        t.offered_bytes += len as u64;
        if admitted {
            t.admitted_pkts += 1;
            t.admitted_bytes += len as u64;
            t.segments_processed += segs as u64;
            self.ledger[flow.as_usize()].push_back((len as u32, marker));
        } else {
            t.dropped_pkts += 1;
        }
    }

    /// Checks one served segment of `flow`, whose first byte is `first`,
    /// against the flow's reassembly state and, at its frame's end,
    /// against the ledger.
    fn served(&mut self, flow: FlowId, seg: SegmentInfo, first: u8) {
        let t = &mut self.tally;
        t.segments_processed += 1;
        t.drained_bytes += seg.len as u64;
        let f = flow.as_usize();
        let r = &mut self.reasm[f];
        if seg.sop {
            if r.in_flight {
                t.torn_frames += 1;
            }
            r.in_flight = true;
            r.bytes = 0;
            r.marker = first;
        }
        r.bytes += seg.len as u64;
        if seg.eop {
            r.in_flight = false;
            t.delivered_pkts += 1;
            match self.ledger[f].pop_front() {
                Some((len, marker)) => {
                    if len as u64 != r.bytes || marker != r.marker {
                        t.torn_frames += 1;
                    }
                }
                None => t.torn_frames += 1,
            }
        }
    }
}

/// Draws one round's offered arrivals — Zipf flow, IMIX size, and a marker
/// byte for the first payload byte — through the workspace-wide
/// [`PacketStream`] (flow, then size; marker = sequence number), handing
/// each packet to the round of its shard in `home` (indexed by flow),
/// whose lists it resets.
/// [`run_shard_scale`] and [`run_memory_scale`] share the one round loop
/// that calls this, so their offered traces are identical by construction
/// — the comparability between `table7` and `table8` rests on it.
fn draw_round(
    cfg: &ShardScaleConfig,
    stream: &mut PacketStream<'_>,
    home: &[usize],
    per_shard: &mut [ShardRound],
) {
    for round in per_shard.iter_mut() {
        round.arrivals.clear();
    }
    for _ in 0..cfg.packets_per_round {
        let (flow, size, marker) = stream.next_packet();
        per_shard[home[flow.as_usize()]]
            .arrivals
            .push((flow, size as usize, marker));
    }
}

/// Outcome of one shard count in the scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardScaleRow {
    /// Number of shards (independent engines). Every field except the
    /// timing measurements (`busy`, `critical_path`, `serial_time`,
    /// `wall_clock`) — what `npqm-bench` serializes under `host` — is a
    /// pure function of the configuration.
    pub shards: usize,
    /// Packets the mix offered for admission.
    pub offered_pkts: u64,
    /// Payload bytes offered (identical across shard counts: the offered
    /// trace is a pure function of the configuration).
    pub offered_bytes: u64,
    /// Packets the shard-local thresholds admitted.
    pub admitted_pkts: u64,
    /// Packets refused at admission.
    pub dropped_pkts: u64,
    /// Payload bytes admitted.
    pub admitted_bytes: u64,
    /// Whole frames delivered by the drain batches.
    pub delivered_pkts: u64,
    /// Payload bytes drained (including segments of frames still
    /// incomplete when the run ended).
    pub drained_bytes: u64,
    /// Payload bytes still queued when the run ended (proven by the
    /// engine's verification walk).
    pub residual_bytes: u64,
    /// Segments processed: enqueued (admission) plus dequeued (drain).
    pub segments_processed: u64,
    /// Pointer-memory (ZBT SRAM) accesses the run performed, summed over
    /// shards and proven conserved by the engine's verify pass. A pure
    /// function of the configuration — part of the determinism report.
    pub ptr_accesses: u64,
    /// Busy time of each shard: its engine work and its own bookkeeping
    /// (tally, ledger, reassembly check).
    pub busy: Vec<Duration>,
    /// Busy time of the busiest shard (parallel-composite makespan).
    pub critical_path: Duration,
    /// Total busy time (what one serialized engine would pay).
    pub serial_time: Duration,
    /// Real wall-clock time of the offer/drain loop — the measured (not
    /// modeled) cost of the run.
    pub wall_clock: Duration,
    /// Always 0: the shards run on the calling thread, so no worker
    /// steals. Kept only for callers outside the workspace's crates
    /// that still read it.
    pub steals: u64,
    /// Delivered frames whose length or marker byte did not match the
    /// admission ledger — torn or cross-linked packets — plus drain
    /// dequeues refused with an error other than `QueueEmpty`. Always 0
    /// on a healthy engine.
    pub torn_frames: u64,
    /// Whether `admitted == delivered + residual` held for both packets
    /// and bytes at the end of the run.
    pub conserved: bool,
    /// A deterministic fingerprint of the run's end state: the engine's
    /// full [`ShardedQueueManager::state_digest`] folded with the
    /// residual admission ledger (flow, length, marker of every packet
    /// admitted but not yet delivered) — the strongest single value the
    /// `table7 --check --report` document carries.
    pub fingerprint: u64,
}

impl ShardScaleRow {
    /// Sustained rate of the N-engine composite: segments processed over
    /// the critical path.
    pub fn segments_per_sec(&self) -> f64 {
        let secs = self.critical_path.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.segments_processed as f64 / secs
    }
}

/// Ledger slot for one admitted packet: its length and marker byte.
type LedgerSlot = (u32, u8);

/// Per-flow reassembly state while draining segment by segment.
#[derive(Debug, Clone, Default)]
struct Reassembly {
    in_flight: bool,
    bytes: u64,
    marker: u8,
}

/// Runs the Zipf/IMIX overload workload on `shards` engines and measures
/// the composite throughput (see the [module docs](self)). `threads` is
/// ignored: the shards run on the calling thread.
///
/// The **offered trace** — arrival order, flows, sizes, markers — is a
/// pure function of `cfg`, identical for every shard count. The
/// *processed* set is not: shard-local thresholds over the partitioned
/// buffer admit different packet subsets, and drain batches are sized
/// from the live backlog. The per-row conservation ledger closes over
/// whatever each row actually processed, and `segments_per_sec` is rate
/// (work over busy time), so rows stay comparable; the speedup column
/// reflects both the critical-path parallelism of independent engines
/// (modelled, not run: `wall_clock` is the serial cost of all of them)
/// and the per-shard locality effects (smaller queue tables and
/// occupancy trees) that sharding buys.
///
/// # Panics
///
/// Panics if the per-shard buffer would be empty
/// (`total_segments / shards == 0`) or the configuration is invalid.
pub fn run_shard_scale(cfg: &ShardScaleConfig, shards: usize, _threads: usize) -> ShardScaleRow {
    run_rounds(cfg, shards, false, |_| {}).0
}

/// The one offer/drain workload behind both experiments: per round, draw
/// the arrivals, offer them through shard-local admission, drain a
/// fraction of the backlog, keep the admission ledger and the per-flow
/// reassembly check (a drain error other than `QueueEmpty` counts as a
/// torn frame), then call `after_round` on the engine (the
/// memory-timed run charges the round's recorded traffic there; `tracing`
/// turns the recording on). Returns the finished row and the engine it
/// describes.
fn run_rounds(
    cfg: &ShardScaleConfig,
    shards: usize,
    tracing: bool,
    mut after_round: impl FnMut(&mut ShardedQueueManager),
) -> (ShardScaleRow, ShardedQueueManager) {
    let qm_cfg = QmConfig::builder()
        .num_flows(cfg.flows)
        .num_segments(cfg.total_segments)
        .segment_bytes(cfg.segment_bytes)
        .build()
        .expect("scale configuration must be valid");
    let mut engine =
        ShardedQueueManager::partitioned(qm_cfg, shards).expect("per-shard buffer is non-empty");
    engine.set_tracing(tracing);
    let mix = FlowMix::zipf(cfg.flows, cfg.zipf_exponent);
    let sizes = SizeDistribution::Imix;
    // Raw `cfg.seed` (no draw-seed mixing): the historical table7/table8
    // streams predate [`PacketStream`] and must stay bit-identical.
    let mut stream = PacketStream::new(&mix, &sizes, cfg.seed);

    // Each flow's shard, and one round state per shard, built once and
    // kept for the run.
    let home: Vec<usize> = (0..cfg.flows)
        .map(|f| engine.shard_of(FlowId::new(f)))
        .collect();
    let mut per_shard: Vec<ShardRound> = (0..shards)
        .map(|s| ShardRound {
            policy: DynamicThreshold::new(cfg.alpha),
            flows: (0..cfg.flows)
                .map(FlowId::new)
                .filter(|f| home[f.as_usize()] == s)
                .collect(),
            arrivals: Vec::new(),
            frame: vec![0xC3; sizes.max_bytes() as usize],
            books: Books {
                tally: Tally::default(),
                ledger: (0..cfg.flows).map(|_| VecDeque::new()).collect(),
                reasm: vec![Reassembly::default(); cfg.flows as usize],
            },
        })
        .collect();

    let wall = Instant::now();
    for _ in 0..cfg.rounds {
        // --- offered batch: Zipf flows, IMIX sizes, marker-stamped ---
        draw_round(cfg, &mut stream, &home, &mut per_shard);
        // Each flow lives on one shard, so its ledger keeps arrival order.
        engine.for_each_shard(
            &mut per_shard,
            |r| !r.arrivals.is_empty(),
            |qm, r| {
                for &(flow, len, marker) in &r.arrivals {
                    r.frame[0] = marker;
                    // Thresholds never push out: the lent victim
                    // buffer stays empty and allocates nothing.
                    let offer = r
                        .policy
                        .offer_into(qm, flow, &r.frame[..len], 0, &mut Vec::new());
                    let segs = qm_cfg.segments_for(len);
                    r.books.offered(flow, len, marker, offer.is_ok(), segs);
                }
            },
        );

        // --- drain: round-robin passes over every flow, sized to serve
        // `drain_fraction` of the queued backlog (the used segments, which
        // `verify` proves equal to the queues' summed lengths); each
        // segment is checked as it is served, its first byte read where
        // the engine keeps it ---
        let passes =
            ((engine.used_segments() as f64 * cfg.drain_fraction / cfg.flows as f64).ceil() as u64)
                .max(1);
        engine.for_each_shard(
            &mut per_shard,
            |r| !r.flows.is_empty(),
            |qm, r| {
                for _ in 0..passes {
                    for &flow in &r.flows {
                        let mut first = 0;
                        match qm.dequeue_with(flow, |b| first = b[0]) {
                            Ok(seg) => r.books.served(flow, seg, first),
                            Err(QueueError::QueueEmpty { .. }) => {}
                            // A dequeue refused for anything but an idle
                            // flow is a failed operation.
                            Err(_) => r.books.tally.torn_frames += 1,
                        }
                    }
                }
            },
        );
        after_round(&mut engine);
    }
    let wall_clock = wall.elapsed();

    let mut t = Tally::default();
    for r in &per_shard {
        let s = &r.books.tally;
        t.offered_pkts += s.offered_pkts;
        t.offered_bytes += s.offered_bytes;
        t.admitted_pkts += s.admitted_pkts;
        t.dropped_pkts += s.dropped_pkts;
        t.admitted_bytes += s.admitted_bytes;
        t.delivered_pkts += s.delivered_pkts;
        t.drained_bytes += s.drained_bytes;
        t.segments_processed += s.segments_processed;
        t.torn_frames += s.torn_frames;
    }
    // Each flow's ledger and reassembly state, back from its shard.
    let (mut ledger, mut reasm) = (Vec::new(), Vec::new());
    for (f, &s) in home.iter().enumerate() {
        let books = &mut per_shard[s].books;
        ledger.push(std::mem::take(&mut books.ledger[f]));
        reasm.push(std::mem::take(&mut books.reasm[f]));
    }
    let report = engine
        .verify()
        .expect("sharded engine invariants hold after the run");
    let residual_pkts: u64 = ledger.iter().map(|l| l.len() as u64).sum();
    // A flow mid-reassembly still owns its ledger slot; its drained
    // segments are in drained_bytes, the rest in residual_bytes — the
    // byte identity below still must close exactly.
    let pkts_ok = t.admitted_pkts == t.delivered_pkts + residual_pkts;
    let bytes_ok = t.admitted_bytes == t.drained_bytes + report.payload_bytes;
    // A frame mid-reassembly has not reached its EOP, so its admission
    // ledger slot must still be present (slots pop only at EOP).
    let in_flight_ok = reasm
        .iter()
        .zip(&ledger)
        .all(|(r, slots)| !r.in_flight || !slots.is_empty());
    let row = ShardScaleRow {
        shards,
        offered_pkts: t.offered_pkts,
        offered_bytes: t.offered_bytes,
        admitted_pkts: t.admitted_pkts,
        dropped_pkts: t.dropped_pkts,
        admitted_bytes: t.admitted_bytes,
        delivered_pkts: t.delivered_pkts,
        drained_bytes: t.drained_bytes,
        residual_bytes: report.payload_bytes,
        segments_processed: t.segments_processed,
        ptr_accesses: report.ptr.total(),
        busy: engine.busy_times().to_vec(),
        critical_path: engine.critical_path(),
        serial_time: engine.serial_time(),
        wall_clock,
        steals: 0,
        torn_frames: t.torn_frames,
        conserved: pkts_ok && bytes_ok && in_flight_ok,
        // Fold the engine state digest with the residual ledger: one value
        // that pins the run's entire deterministic outcome.
        fingerprint: fold_ledger(engine.state_digest(), &ledger, |&slot| slot),
    };
    (row, engine)
}

/// Runs [`run_shard_scale`] for each shard count.
pub fn run_shard_sweep(cfg: &ShardScaleConfig, shard_counts: &[usize]) -> Vec<ShardScaleRow> {
    shard_counts
        .iter()
        .map(|&n| run_shard_scale(cfg, n, 1))
        .collect()
}

/// Outcome of one memory organisation (bank count × scheduler) in the
/// memory-timed sweep — the workload behind `table8`.
///
/// Every field is a pure function of the configuration: the modeled
/// clocks contain no wall time, so the whole row is in the `table8 --check
/// --report` document.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryScaleRow {
    /// DDR banks in the data memory.
    pub banks: u32,
    /// True under the §3 reordering scheduler, false under naive
    /// round-robin.
    pub reordering: bool,
    /// Number of shards (one memory channel each).
    pub shards: usize,
    /// Packets the mix offered for admission.
    pub offered_pkts: u64,
    /// Packets admitted by the shard-local thresholds.
    pub admitted_pkts: u64,
    /// Packets refused at admission.
    pub dropped_pkts: u64,
    /// Payload bytes admitted.
    pub admitted_bytes: u64,
    /// Payload bytes drained by the dequeue batches.
    pub drained_bytes: u64,
    /// Payload bytes still queued at the end (verify walk).
    pub residual_bytes: u64,
    /// Segments enqueued + dequeued.
    pub segments_processed: u64,
    /// Successful queue operations executed by the engine.
    pub queue_ops: u64,
    /// Pointer-memory (ZBT) accesses charged.
    pub ptr_accesses: u64,
    /// Data-memory read bursts charged.
    pub data_reads: u64,
    /// Data-memory write bursts charged.
    pub data_writes: u64,
    /// DDR access slots lost to bank conflicts.
    pub conflict_slots: u64,
    /// DDR access slots lost to write-after-read turnaround.
    pub turnaround_slots: u64,
    /// Absolute time of each shard's memory channel at the end.
    pub per_shard_time: Vec<Picos>,
    /// The busiest channel's time — the memory-derived makespan of the
    /// N-engine composite.
    pub modeled_time: Picos,
    /// Whether `admitted == drained + residual` closed on bytes.
    pub conserved: bool,
    /// Engine state digest folded with the modeled channel clocks and
    /// charge totals: one value pinning the run's entire deterministic
    /// outcome.
    pub fingerprint: u64,
}

impl MemoryScaleRow {
    /// Memory-derived throughput: queue operations per second of modeled
    /// time — the paper's "queue ops/sec vs memory organisation" axis.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.modeled_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.queue_ops as f64 / secs
    }

    /// Memory-derived payload throughput in Gbit/s: bytes actually moved
    /// through the data memories over the modeled makespan. Aggregate
    /// across all shards, so the ceiling is `shards ×` one device's peak
    /// (`npqm_mem::DdrConfig::peak_gbps`, 12.8 Gbit/s for the paper's
    /// part) — each shard owns a private channel.
    pub fn data_gbps(&self, segment_bytes: u32) -> f64 {
        let ns = self.modeled_time.as_nanos_f64();
        if ns <= 0.0 {
            return 0.0;
        }
        (self.data_reads + self.data_writes) as f64 * segment_bytes as f64 * 8.0 / ns
    }

    /// Fraction of charged DDR slots lost to conflicts + turnaround —
    /// comparable to Table 1's throughput-loss column.
    pub fn ddr_loss(&self) -> f64 {
        let useful = self.data_reads + self.data_writes;
        let total = useful + self.conflict_slots + self.turnaround_slots;
        if total == 0 {
            return 0.0;
        }
        1.0 - useful as f64 / total as f64
    }
}

/// Runs the Zipf/IMIX offer/drain workload with **memory-derived**
/// timing: the engine records every pointer and data access, one
/// [`PaperTiming`] channel per shard cuts its shard's log once a round
/// and replays it through the ZBT/DDR models, and throughput is
/// `queue ops / busiest channel's modeled time` instead of measured
/// busy time.
///
/// The offered trace, the admission decisions and the engine end state
/// are identical to what [`run_shard_scale`] computes for the same
/// configuration — tracing only records — and, because the recorded
/// per-shard streams are deterministic, so are the charged costs and the
/// row fingerprint.
///
/// # Panics
///
/// As [`run_shard_scale`], and if `timing.segment_bytes` differs from
/// `cfg.segment_bytes`: the model maps banks and counts one burst per
/// segment at its own size, so it would misprice the engine's.
pub fn run_memory_scale(
    cfg: &ShardScaleConfig,
    shards: usize,
    timing: &TimingConfig,
) -> MemoryScaleRow {
    let mut channels = MemoryChannels::from_fn(shards, |_| PaperTiming::new(*timing));
    let mut totals = CommandCost::default();
    // Charge each round's recorded traffic to the per-shard channels.
    let (run, engine) = run_rounds(cfg, shards, true, |engine| {
        totals.absorb(&channels.charge_engine(engine).totals);
    });
    let per_shard_time = channels.per_channel_elapsed();
    let fold = npqm_core::check::fnv1a_fold;
    let mut h = engine.state_digest();
    for &t in &per_shard_time {
        h = fold(h, t.as_u64());
    }
    for v in [
        totals.ptr_accesses,
        totals.data_reads,
        totals.data_writes,
        totals.conflict_slots,
        totals.turnaround_slots,
    ] {
        h = fold(h, v);
    }
    MemoryScaleRow {
        banks: timing.ddr.banks,
        reordering: timing.reordering,
        shards,
        offered_pkts: run.offered_pkts,
        admitted_pkts: run.admitted_pkts,
        dropped_pkts: run.dropped_pkts,
        admitted_bytes: run.admitted_bytes,
        drained_bytes: run.drained_bytes,
        residual_bytes: run.residual_bytes,
        segments_processed: run.segments_processed,
        queue_ops: engine.stats().total_ops(),
        ptr_accesses: totals.ptr_accesses,
        data_reads: totals.data_reads,
        data_writes: totals.data_writes,
        conflict_slots: totals.conflict_slots,
        turnaround_slots: totals.turnaround_slots,
        per_shard_time,
        modeled_time: channels.elapsed(),
        // Conservation closes on two ledgers at once: every admitted byte
        // is drained or still queued, and every pointer access the engine
        // performed was charged to a memory channel (the verify-pass
        // counters equal the charged totals exactly).
        conserved: run.admitted_bytes == run.drained_bytes + run.residual_bytes
            && run.ptr_accesses == totals.ptr_accesses,
        fingerprint: h,
    }
}

/// Runs [`run_memory_scale`] for every bank count under both schedulers
/// (naive first, then reordering, per bank count) — the `table8` sweep.
pub fn run_memory_sweep(
    cfg: &ShardScaleConfig,
    shards: usize,
    banks: &[u32],
) -> Vec<MemoryScaleRow> {
    banks
        .iter()
        .flat_map(|&b| {
            [
                run_memory_scale(cfg, shards, &TimingConfig::naive(b)),
                run_memory_scale(cfg, shards, &TimingConfig::paper(b)),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_conserves_and_never_tears() {
        let cfg = ShardScaleConfig::smoke();
        for shards in [1usize, 4] {
            let row = run_shard_scale(&cfg, shards, 1);
            assert_eq!(row.shards, shards);
            assert!(row.offered_pkts > 0);
            assert_eq!(row.offered_pkts, row.admitted_pkts + row.dropped_pkts);
            assert!(row.dropped_pkts > 0, "overload must drop");
            assert_eq!(row.torn_frames, 0);
            assert!(row.conserved, "ledger must close: {row:?}");
            assert!(row.segments_processed > 0);
            assert!(row.critical_path > Duration::ZERO);
            assert!(row.serial_time >= row.critical_path);
            assert!(row.wall_clock >= row.critical_path);
            assert_eq!(row.busy.len(), shards);
            assert_eq!(row.steals, 0, "nothing steals");
        }
    }

    #[test]
    fn smoke_rows_are_pinned() {
        // Values recorded before the round loop lent its buffers (1 and 4
        // shards at seed 42) and before each shard kept its own books (the
        // rest). They are a pure function of the configuration, so a
        // change to the harness — arenas, per-shard rounds, ledger — that
        // moves one of them changed what is simulated, not how fast. A
        // reference run would move with the change it is meant to catch.
        type Pin = (u64, [u64; 10], u64, bool);
        let pinned = |row: &ShardScaleRow| -> Pin {
            let totals = [
                row.offered_pkts,
                row.offered_bytes,
                row.admitted_pkts,
                row.dropped_pkts,
                row.admitted_bytes,
                row.delivered_pkts,
                row.drained_bytes,
                row.residual_bytes,
                row.segments_processed,
                row.ptr_accesses,
            ];
            (row.fingerprint, totals, row.torn_frames, row.conserved)
        };
        // (seed, shards, fingerprint, [offered pkts, offered bytes,
        // admitted pkts, dropped pkts, admitted bytes, delivered pkts,
        // drained bytes, residual bytes, segments, pointer accesses])
        #[rustfmt::skip]
        let rows: [(u64, usize, u64, [u64; 10]); 8] = [
            (42, 1, 0x7844_40b6_c661_8ac8, [1536, 556_850, 592, 944, 214_726, 304, 106_202, 108_524, 5238, 43_021]),
            (42, 2, 0x86ce_1971_f385_c3c5, [1536, 556_850, 628, 908, 225_238, 355, 119_210, 106_028, 5621, 45_667]),
            (42, 4, 0xd5b3_0976_2d0f_4973, [1536, 556_850, 546, 990, 191_140, 317, 106_806, 84_334, 4859, 39_854]),
            (42, 8, 0xd3c0_eec3_09d8_effb, [1536, 556_850, 553, 983, 186_968, 324, 110_032, 76_936, 4849, 39_346]),
            (7, 1, 0x0d0b_6ba5_e65a_0b61, [1536, 546_142, 621, 915, 212_234, 312, 101_664, 110_570, 5134, 42_286]),
            (7, 2, 0x8489_e43e_68a1_8e41, [1536, 546_142, 661, 875, 222_336, 358, 114_718, 107_618, 5508, 45_560]),
            (7, 4, 0x1c11_9c7d_561a_53a7, [1536, 546_142, 554, 982, 181_080, 330, 101_114, 79_966, 4616, 37_722]),
            (7, 8, 0x4e29_e7bb_b1c3_ec28, [1536, 546_142, 554, 982, 167_328, 326, 96_042, 71_286, 4312, 35_336]),
        ];
        for (seed, shards, fingerprint, totals) in rows {
            let cfg = ShardScaleConfig {
                seed,
                ..ShardScaleConfig::smoke()
            };
            assert_eq!(
                pinned(&run_shard_scale(&cfg, shards, 1)),
                (fingerprint, totals, 0, true),
                "seed {seed}, {shards} shards"
            );
        }
        let cfg = ShardScaleConfig::smoke();
        let timed = run_memory_scale(&cfg, 2, &TimingConfig::paper(8));
        assert_eq!(timed.fingerprint, 0xaee8_51e5_302b_72ca);
        assert_eq!(timed.modeled_time, Picos::new(138_640_000));
        assert_eq!((timed.data_reads, timed.data_writes), (1_942, 3_694));
    }

    #[test]
    fn offered_trace_is_identical_across_shard_counts() {
        // Same seed, same offered trace (counts and bytes) for every
        // shard count; the admitted/drained sets may differ, since the
        // shard-local thresholds see partitioned buffers.
        let cfg = ShardScaleConfig::smoke();
        let a = run_shard_scale(&cfg, 1, 1);
        let b = run_shard_scale(&cfg, 8, 1);
        assert_eq!(a.offered_pkts, b.offered_pkts);
        assert_eq!(a.offered_bytes, b.offered_bytes);
    }

    #[test]
    fn sweep_returns_one_row_per_count() {
        let rows = run_shard_sweep(&ShardScaleConfig::smoke(), &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[1].shards, 2);
    }

    #[test]
    fn memory_scale_conserves_and_derives_time_from_the_model() {
        let cfg = ShardScaleConfig::smoke();
        let row = run_memory_scale(&cfg, 2, &TimingConfig::paper(8));
        assert_eq!(row.banks, 8);
        assert!(row.reordering);
        assert_eq!(row.offered_pkts, row.admitted_pkts + row.dropped_pkts);
        assert!(row.dropped_pkts > 0, "overload must drop");
        assert!(row.conserved, "ledgers must close: {row:?}");
        assert!(row.ptr_accesses > 0);
        assert!(row.data_reads > 0 && row.data_writes > 0);
        assert!(row.modeled_time > Picos::ZERO);
        assert!(row.ops_per_sec() > 0.0);
        assert_eq!(row.per_shard_time.len(), 2);
        assert!(row.per_shard_time.iter().all(|&t| t <= row.modeled_time));
        assert!((0.0..=1.0).contains(&row.ddr_loss()));
        assert!(row.data_gbps(cfg.segment_bytes) > 0.0);
    }

    #[test]
    #[should_panic(expected = "timing model has 64-byte segments, the engine 128-byte segments")]
    fn memory_scale_refuses_a_model_of_another_segment_size() {
        let cfg = ShardScaleConfig {
            segment_bytes: 128,
            ..ShardScaleConfig::smoke()
        };
        run_memory_scale(&cfg, 1, &TimingConfig::paper(8));
    }

    #[test]
    fn memory_scale_behaves_like_the_untimed_run() {
        // Tracing and charging must not change what the engine computes:
        // the admitted set matches an untimed run of the same seed.
        let cfg = ShardScaleConfig::smoke();
        let untimed = run_shard_scale(&cfg, 2, 1);
        let timed = run_memory_scale(&cfg, 2, &TimingConfig::paper(8));
        assert_eq!(timed.offered_pkts, untimed.offered_pkts);
        assert_eq!(timed.admitted_pkts, untimed.admitted_pkts);
        assert_eq!(timed.dropped_pkts, untimed.dropped_pkts);
        assert_eq!(timed.admitted_bytes, untimed.admitted_bytes);
        assert_eq!(timed.drained_bytes, untimed.drained_bytes);
        assert_eq!(timed.residual_bytes, untimed.residual_bytes);
        assert_eq!(timed.ptr_accesses, untimed.ptr_accesses);
    }

    #[test]
    fn reordering_never_slower_and_single_bank_serializes() {
        let cfg = ShardScaleConfig::smoke();
        for banks in [1u32, 8] {
            let naive = run_memory_scale(&cfg, 2, &TimingConfig::naive(banks));
            let opt = run_memory_scale(&cfg, 2, &TimingConfig::paper(banks));
            assert!(
                opt.modeled_time <= naive.modeled_time,
                "banks {banks}: reordering {} vs naive {}",
                opt.modeled_time,
                naive.modeled_time
            );
        }
        let one = run_memory_scale(&cfg, 2, &TimingConfig::paper(1));
        let eight = run_memory_scale(&cfg, 2, &TimingConfig::paper(8));
        assert!(
            one.ops_per_sec() < eight.ops_per_sec(),
            "1 bank {} vs 8 banks {}",
            one.ops_per_sec(),
            eight.ops_per_sec()
        );
        assert!(one.ddr_loss() > eight.ddr_loss());
    }

    #[test]
    fn memory_sweep_returns_naive_and_reordering_per_bank() {
        let rows = run_memory_sweep(&ShardScaleConfig::smoke(), 2, &[1, 4]);
        assert_eq!(rows.len(), 4);
        assert_eq!((rows[0].banks, rows[0].reordering), (1, false));
        assert_eq!((rows[1].banks, rows[1].reordering), (1, true));
        assert_eq!((rows[2].banks, rows[2].reordering), (4, false));
        assert_eq!((rows[3].banks, rows[3].reordering), (4, true));
    }
}
