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
//! built once for the run: the offer, where each shard offers its arrivals
//! in arrival order and answers with a `bool` per arrival, and the drain,
//! where each shard serves its own flows pass by pass in flow order and
//! records per segment its flow, length, markers and first byte. A shard
//! offers each packet as a prefix of one filler frame it keeps for the
//! run, with the packet's marker stamped into the first byte, so on one
//! worker a steady run allocates nothing per round. Both calls
//! accumulate per-shard **busy time**; since shards share no state,
//! N shards model N engines running in parallel and the sustained rate is
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

/// Worker-thread count from the `NPQM_THREADS` environment variable
/// (default 1 — the serial reference path). This is the knob the CI
/// `parallel-determinism` stage turns: `table7 --check` must produce
/// byte-identical machine-readable reports at any value.
pub fn threads_from_env() -> usize {
    std::env::var("NPQM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or(1)
}

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
    /// bank×scheduler sweep over [`TABLE8_BANKS`] (plus the CI
    /// determinism re-runs) stays fast while still pushing several
    /// hundred thousand DDR bursts through each memory channel.
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

/// One shard's side of the run, built once and refilled every round.
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
    /// Per arrival: whether the policy admitted it.
    admitted: Vec<bool>,
    /// Per segment this round's drain served: flow, length and markers,
    /// and the segment's first byte.
    served: Vec<(FlowId, SegmentInfo, u8)>,
    /// The payload of the segment being served.
    scratch: Vec<u8>,
    /// Drain errors other than `QueueEmpty` over the run.
    errors: u64,
}

/// Draws one round's offered arrivals — Zipf flow, IMIX size, and a marker
/// byte for the first payload byte — through the workspace-wide
/// [`PacketStream`] (flow, then size; marker = sequence number), handing
/// each packet to its home shard's round, whose lists it resets.
/// [`run_shard_scale`] and [`run_memory_scale`] share the one round loop
/// that calls this, so their offered traces are identical by construction
/// — the comparability between `table7` and `table8` rests on it.
fn draw_round(
    cfg: &ShardScaleConfig,
    stream: &mut PacketStream<'_>,
    engine: &ShardedQueueManager,
    per_shard: &mut [ShardRound],
) {
    for round in per_shard.iter_mut() {
        round.arrivals.clear();
        round.admitted.clear();
        round.served.clear();
    }
    for _ in 0..cfg.packets_per_round {
        let (flow, size, marker) = stream.next_packet();
        per_shard[engine.shard_of(flow)]
            .arrivals
            .push((flow, size as usize, marker));
    }
}

/// Outcome of one shard count in the scaling sweep.
#[derive(Debug, Clone)]
pub struct ShardScaleRow {
    /// Number of shards (independent engines).
    pub shards: usize,
    /// Worker threads the batches ran on (1 = the serial reference
    /// path). Every field except this one, the timing measurements
    /// (`busy`, `critical_path`, `serial_time`, `wall_clock`) and `steals`
    /// — what `npqm-bench` serializes under `host` — is identical across
    /// thread counts for a fixed configuration.
    pub threads: usize,
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
    /// Busy time of each shard.
    pub busy: Vec<Duration>,
    /// Busy time of the busiest shard (parallel-composite makespan).
    pub critical_path: Duration,
    /// Total busy time (what one serialized engine would pay).
    pub serial_time: Duration,
    /// Real wall-clock time of the offer/drain loop — the measured (not
    /// modeled) cost of the run, which is what the threads×shards sweep
    /// compares across thread counts.
    pub wall_clock: Duration,
    /// Whole per-shard groups claimed by a worker that had already
    /// drained its first assignment (work stealing). Scheduling-
    /// dependent, so excluded from determinism comparisons.
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
    /// admitted but not yet delivered). Byte-identical across thread
    /// counts for a fixed configuration — the strongest single value the
    /// CI determinism diff compares.
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

/// Runs the Zipf/IMIX overload workload on `shards` engines with
/// `threads` worker threads and measures the composite throughput (see
/// the [module docs](self)).
///
/// The **offered trace** — arrival order, flows, sizes, markers — is a
/// pure function of `cfg`, identical for every shard count. The
/// *processed* set is not: shard-local thresholds over the partitioned
/// buffer admit different packet subsets, and drain batches are sized
/// from the live backlog. The per-row conservation ledger closes over
/// whatever each row actually processed, and `segments_per_sec` is rate
/// (work over busy time), so rows stay comparable; the speedup column
/// reflects both the critical-path parallelism of independent engines
/// and the per-shard locality effects (smaller queue tables and
/// occupancy heaps) that sharding buys.
///
/// Every thread count runs the same two
/// [`ShardedQueueManager::for_each_shard`] calls per round; at
/// `threads == 1` the shards run inline on the calling thread. Every
/// engine call happens in the same per-shard order at any count, and the
/// ledger reads the per-shard lists shard by shard, which keeps per-flow
/// order. The results are byte-identical
/// at any count (only `wall_clock`, the busy-time fields and `steals`
/// change — the row's `fingerprint` proves it). `wall_clock`
/// measures the real offer/drain loop, so at `threads ≥ shards` on a
/// multi-core host it shows the *actual* speedup next to the modeled
/// critical-path composite.
///
/// # Panics
///
/// Panics if the per-shard buffer would be empty
/// (`total_segments / shards == 0`), `threads` is zero, or the
/// configuration is invalid.
pub fn run_shard_scale(cfg: &ShardScaleConfig, shards: usize, threads: usize) -> ShardScaleRow {
    run_rounds(cfg, shards, threads, false, |_| {}).0
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
    threads: usize,
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

    assert!(threads > 0, "need at least one worker thread");
    let mut row = ShardScaleRow {
        shards,
        threads,
        offered_pkts: 0,
        offered_bytes: 0,
        admitted_pkts: 0,
        dropped_pkts: 0,
        admitted_bytes: 0,
        delivered_pkts: 0,
        drained_bytes: 0,
        residual_bytes: 0,
        segments_processed: 0,
        ptr_accesses: 0,
        busy: Vec::new(),
        critical_path: Duration::ZERO,
        serial_time: Duration::ZERO,
        wall_clock: Duration::ZERO,
        steals: 0,
        torn_frames: 0,
        conserved: false,
        fingerprint: 0,
    };
    let mut ledger: Vec<VecDeque<LedgerSlot>> = (0..cfg.flows).map(|_| VecDeque::new()).collect();
    let mut reasm: Vec<Reassembly> = vec![Reassembly::default(); cfg.flows as usize];
    let seg_bytes = cfg.segment_bytes as usize;

    // One round state per shard, built once and refilled every round.
    let mut per_shard: Vec<ShardRound> = (0..shards)
        .map(|s| ShardRound {
            policy: DynamicThreshold::new(cfg.alpha),
            flows: (0..cfg.flows)
                .map(FlowId::new)
                .filter(|&f| engine.shard_of(f) == s)
                .collect(),
            arrivals: Vec::new(),
            frame: vec![0xC3; sizes.max_bytes() as usize],
            admitted: Vec::new(),
            served: Vec::new(),
            scratch: Vec::with_capacity(seg_bytes),
            errors: 0,
        })
        .collect();

    let wall = Instant::now();
    for _ in 0..cfg.rounds {
        // --- offered batch: Zipf flows, IMIX sizes, marker-stamped ---
        draw_round(cfg, &mut stream, &engine, &mut per_shard);
        engine.for_each_shard(
            &mut per_shard,
            threads,
            |r| r.arrivals.iter().map(|&(_, len, _)| len as u64).sum(),
            |qm, r| {
                for &(flow, len, marker) in &r.arrivals {
                    r.frame[0] = marker;
                    r.admitted
                        .push(r.policy.offer(qm, flow, &r.frame[..len]).is_ok());
                }
            },
        );
        // Shard by shard: each flow lives on one shard, so its ledger
        // keeps arrival order.
        for r in &per_shard {
            for (&(flow, len, marker), &admitted) in r.arrivals.iter().zip(&r.admitted) {
                row.offered_pkts += 1;
                row.offered_bytes += len as u64;
                if admitted {
                    row.admitted_pkts += 1;
                    row.admitted_bytes += len as u64;
                    row.segments_processed += len.div_ceil(seg_bytes) as u64;
                    ledger[flow.as_usize()].push_back((len as u32, marker));
                } else {
                    row.dropped_pkts += 1;
                }
            }
        }

        // --- drain: round-robin passes over every flow, sized to serve
        // `drain_fraction` of the queued backlog (the used segments, which
        // `verify` proves equal to the queues' summed lengths) ---
        let passes =
            ((engine.used_segments() as f64 * cfg.drain_fraction / cfg.flows as f64).ceil() as u64)
                .max(1);
        engine.for_each_shard(
            &mut per_shard,
            threads,
            |r| r.flows.len() as u64,
            |qm, r| {
                for _ in 0..passes {
                    for &flow in &r.flows {
                        r.scratch.clear();
                        match qm.dequeue_into(flow, &mut r.scratch) {
                            Ok(seg) => r.served.push((flow, seg, r.scratch[0])),
                            Err(QueueError::QueueEmpty { .. }) => {}
                            Err(_) => r.errors += 1,
                        }
                    }
                }
            },
        );
        for &(flow, seg, first) in per_shard.iter().flat_map(|r| &r.served) {
            row.segments_processed += 1;
            row.drained_bytes += seg.len as u64;
            let f = flow.as_usize();
            let r = &mut reasm[f];
            if seg.sop {
                if r.in_flight {
                    row.torn_frames += 1;
                }
                r.in_flight = true;
                r.bytes = 0;
                r.marker = first;
            }
            r.bytes += seg.len as u64;
            if seg.eop {
                r.in_flight = false;
                row.delivered_pkts += 1;
                match ledger[f].pop_front() {
                    Some((len, marker)) => {
                        if len as u64 != r.bytes || marker != r.marker {
                            row.torn_frames += 1;
                        }
                    }
                    None => row.torn_frames += 1,
                }
            }
        }
        after_round(&mut engine);
    }

    row.wall_clock = wall.elapsed();
    // A dequeue refused for anything but an idle flow is a failed
    // operation.
    row.torn_frames += per_shard.iter().map(|r| r.errors).sum::<u64>();
    row.busy = engine.busy_times().to_vec();
    row.critical_path = engine.critical_path();
    row.serial_time = engine.serial_time();
    row.steals = engine.parallel_stats().steals;
    let report = engine
        .verify()
        .expect("sharded engine invariants hold after the run");
    row.residual_bytes = report.payload_bytes;
    row.ptr_accesses = report.ptr.total();
    let residual_pkts: u64 = ledger.iter().map(|l| l.len() as u64).sum();
    // A flow mid-reassembly still owns its ledger slot; its drained
    // segments are in drained_bytes, the rest in residual_bytes — the
    // byte identity below still must close exactly.
    let pkts_ok = row.admitted_pkts == row.delivered_pkts + residual_pkts;
    let bytes_ok = row.admitted_bytes == row.drained_bytes + row.residual_bytes;
    // A frame mid-reassembly has not reached its EOP, so its admission
    // ledger slot must still be present (slots pop only at EOP).
    let in_flight_ok = reasm
        .iter()
        .enumerate()
        .all(|(f, r)| !r.in_flight || !ledger[f].is_empty());
    row.conserved = pkts_ok && bytes_ok && in_flight_ok;
    // Fold the engine state digest with the residual ledger: one value
    // that pins the run's entire deterministic outcome.
    row.fingerprint = fold_ledger(engine.state_digest(), &ledger, |&slot| slot);
    (row, engine)
}

/// Runs [`run_shard_scale`] for each shard count, all on `threads`
/// worker threads.
pub fn run_shard_sweep(
    cfg: &ShardScaleConfig,
    shard_counts: &[usize],
    threads: usize,
) -> Vec<ShardScaleRow> {
    shard_counts
        .iter()
        .map(|&n| run_shard_scale(cfg, n, threads))
        .collect()
}

/// Runs [`run_shard_scale`] at a fixed shard count for each thread
/// count — the threads×shards wall-clock sweep behind `table7`'s
/// parallel section. Every row computes identical deterministic results
/// (same `fingerprint`); only the wall clock and steal counts differ.
pub fn run_thread_sweep(
    cfg: &ShardScaleConfig,
    shards: usize,
    thread_counts: &[usize],
) -> Vec<ShardScaleRow> {
    thread_counts
        .iter()
        .map(|&t| run_shard_scale(cfg, shards, t))
        .collect()
}

/// Outcome of one memory organisation (bank count × scheduler) in the
/// memory-timed sweep — the workload behind `table8`.
///
/// Every field is a pure function of the configuration: the modeled
/// clocks contain no wall time, so the whole row participates in the CI
/// determinism diff across thread counts (only `threads` itself is
/// excluded from the report document).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryScaleRow {
    /// DDR banks in the data memory.
    pub banks: u32,
    /// True under the §3 reordering scheduler, false under naive
    /// round-robin.
    pub reordering: bool,
    /// Number of shards (one memory channel each).
    pub shards: usize,
    /// Worker threads the batches ran on (identical results at any
    /// count; recorded for transparency only).
    pub threads: usize,
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
    /// outcome, byte-identical at any thread count.
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
/// configuration — tracing only records. `threads` is the worker count
/// of the batch calls; because the recorded per-shard
/// streams are deterministic, the charged costs (and the row
/// fingerprint) are byte-identical at any thread count.
///
/// # Panics
///
/// As [`run_shard_scale`], and if `timing.segment_bytes` differs from
/// `cfg.segment_bytes`: the model maps banks and counts one burst per
/// segment at its own size, so it would misprice the engine's.
pub fn run_memory_scale(
    cfg: &ShardScaleConfig,
    shards: usize,
    threads: usize,
    timing: &TimingConfig,
) -> MemoryScaleRow {
    let mut channels = MemoryChannels::from_fn(shards, |_| PaperTiming::new(*timing));
    let mut totals = CommandCost::default();
    // Charge each round's recorded traffic to the per-shard channels.
    let (run, engine) = run_rounds(cfg, shards, threads, true, |engine| {
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
        threads,
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
    threads: usize,
) -> Vec<MemoryScaleRow> {
    banks
        .iter()
        .flat_map(|&b| {
            [
                run_memory_scale(cfg, shards, threads, &TimingConfig::naive(b)),
                run_memory_scale(cfg, shards, threads, &TimingConfig::paper(b)),
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
            assert_eq!(row.threads, 1);
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
            assert_eq!(row.steals, 0, "serial path never steals");
        }
    }

    #[test]
    fn smoke_rows_are_pinned() {
        // Values of the commit before the round loop lent its buffers
        // (PR 16). They are a pure function of the configuration, so a
        // change to the harness — arenas, per-shard rounds, ledger — that
        // moves one of them changed what is simulated, not how fast. They
        // hold at every thread count: a reference run would move with the
        // change it is meant to catch.
        let cfg = ShardScaleConfig::smoke();
        let pinned = |row: &ShardScaleRow| {
            (
                row.fingerprint,
                row.admitted_pkts,
                row.delivered_pkts,
                row.drained_bytes,
                row.ptr_accesses,
            )
        };
        assert_eq!(
            pinned(&run_shard_scale(&cfg, 1, 1)),
            (0x7844_40b6_c661_8ac8, 592, 304, 106_202, 43_021)
        );
        for threads in [1usize, 2, 4] {
            assert_eq!(
                pinned(&run_shard_scale(&cfg, 4, threads)),
                (0xd5b3_0976_2d0f_4973, 546, 317, 106_806, 39_854),
                "threads={threads}"
            );
        }
        for threads in [1usize, 2] {
            let timed = run_memory_scale(&cfg, 2, threads, &TimingConfig::paper(8));
            assert_eq!(timed.fingerprint, 0xaee8_51e5_302b_72ca);
            assert_eq!(timed.modeled_time, Picos::new(138_640_000));
            assert_eq!((timed.data_reads, timed.data_writes), (1_942, 3_694));
        }
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
    fn thread_count_never_changes_the_deterministic_fields() {
        // The determinism contract at the scale-experiment level: every
        // non-timing field of a row, including the end-state fingerprint
        // (engine digest + residual ledger), is byte-identical whether
        // the batches ran serial or on 2, 3, 4 or 8 worker threads: 3
        // splits the 4 shards unevenly, 8 leaves workers with none.
        let cfg = ShardScaleConfig::smoke();
        let reference = run_shard_scale(&cfg, 4, 1);
        for threads in [2usize, 3, 4, 8] {
            let row = run_shard_scale(&cfg, 4, threads);
            assert_eq!(row.threads, threads);
            assert_eq!(row.offered_pkts, reference.offered_pkts);
            assert_eq!(row.offered_bytes, reference.offered_bytes);
            assert_eq!(row.admitted_pkts, reference.admitted_pkts);
            assert_eq!(row.dropped_pkts, reference.dropped_pkts);
            assert_eq!(row.admitted_bytes, reference.admitted_bytes);
            assert_eq!(row.delivered_pkts, reference.delivered_pkts);
            assert_eq!(row.drained_bytes, reference.drained_bytes);
            assert_eq!(row.residual_bytes, reference.residual_bytes);
            assert_eq!(row.segments_processed, reference.segments_processed);
            assert_eq!(row.ptr_accesses, reference.ptr_accesses);
            assert_eq!(row.torn_frames, 0);
            assert!(row.conserved);
            assert_eq!(
                row.fingerprint, reference.fingerprint,
                "threads={threads}: end-state fingerprint diverged"
            );
        }
        // The memory-timed run goes through the same round: at 1 and 2
        // threads it admits and drains what the untimed run did, and its
        // whole row (clocks and fingerprint included) is the same.
        let timing = TimingConfig::paper(8);
        let serial = run_memory_scale(&cfg, 4, 1, &timing);
        let mut parallel = run_memory_scale(&cfg, 4, 2, &timing);
        assert_eq!(serial.admitted_pkts, reference.admitted_pkts);
        assert_eq!(serial.drained_bytes, reference.drained_bytes);
        assert_eq!(serial.residual_bytes, reference.residual_bytes);
        assert_eq!(serial.ptr_accesses, reference.ptr_accesses);
        parallel.threads = serial.threads;
        assert_eq!(parallel, serial, "memory-timed row diverged at 2 threads");
    }

    #[test]
    fn sweep_returns_one_row_per_count() {
        let rows = run_shard_sweep(&ShardScaleConfig::smoke(), &[1, 2], 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[1].shards, 2);
    }

    #[test]
    fn thread_sweep_returns_one_row_per_thread_count() {
        let rows = run_thread_sweep(&ShardScaleConfig::smoke(), 4, &[1, 2]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].threads, 1);
        assert_eq!(rows[1].threads, 2);
        assert_eq!(rows[0].fingerprint, rows[1].fingerprint);
    }

    #[test]
    fn memory_scale_conserves_and_derives_time_from_the_model() {
        let cfg = ShardScaleConfig::smoke();
        let row = run_memory_scale(&cfg, 2, 1, &TimingConfig::paper(8));
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
        run_memory_scale(&cfg, 1, 1, &TimingConfig::paper(8));
    }

    #[test]
    fn memory_scale_is_thread_invariant() {
        let cfg = ShardScaleConfig::smoke();
        let timing = TimingConfig::paper(4);
        let reference = run_memory_scale(&cfg, 4, 1, &timing);
        for threads in [2usize, 4] {
            let row = run_memory_scale(&cfg, 4, threads, &timing);
            assert_eq!(row.threads, threads);
            let mut masked = row.clone();
            masked.threads = reference.threads;
            assert_eq!(
                masked, reference,
                "threads={threads}: memory-derived row diverged"
            );
        }
    }

    #[test]
    fn memory_scale_behaves_like_the_untimed_run() {
        // Tracing and charging must not change what the engine computes:
        // the admitted set matches an untimed run of the same seed.
        let cfg = ShardScaleConfig::smoke();
        let untimed = run_shard_scale(&cfg, 2, 1);
        let timed = run_memory_scale(&cfg, 2, 1, &TimingConfig::paper(8));
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
            let naive = run_memory_scale(&cfg, 2, 1, &TimingConfig::naive(banks));
            let opt = run_memory_scale(&cfg, 2, 1, &TimingConfig::paper(banks));
            assert!(
                opt.modeled_time <= naive.modeled_time,
                "banks {banks}: reordering {} vs naive {}",
                opt.modeled_time,
                naive.modeled_time
            );
        }
        let one = run_memory_scale(&cfg, 2, 1, &TimingConfig::paper(1));
        let eight = run_memory_scale(&cfg, 2, 1, &TimingConfig::paper(8));
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
        let rows = run_memory_sweep(&ShardScaleConfig::smoke(), 2, &[1, 4], 1);
        assert_eq!(rows.len(), 4);
        assert_eq!((rows[0].banks, rows[0].reordering), (1, false));
        assert_eq!((rows[1].banks, rows[1].reordering), (1, true));
        assert_eq!((rows[2].banks, rows[2].reordering), (4, false));
        assert_eq!((rows[3].banks, rows[3].reordering), (4, true));
    }
}
