//! The six workloads: what each offers the program, how it calls it, and
//! what the call must return for the repetition to count as correct.
//!
//! Every workload is a closed batch run: the program consumes a generated
//! stream as fast as it can. The benchmark passes the seed and the shape;
//! the program generates the traffic itself (that is how its users run
//! it), except for `engine_32kq_1518`, whose driver is the benchmark's own.

use crate::span::{SpanId, Tracer};
use npqm_core::check::{self, fnv1a_fold, FNV_OFFSET_BASIS};
use npqm_core::policy::{DropPolicy, DynamicThreshold, LongestQueueDrop};
use npqm_core::sched::DeficitRoundRobin;
use npqm_core::{FlowId, QmConfig, QueueManager};
use npqm_sim::rng::Xoshiro256pp;
use npqm_sim::time::Picos;
use npqm_traffic::arrival::ArrivalGen;
use npqm_traffic::pipeline::ShardedPipelineReport;
use npqm_traffic::scale::{run_shard_scale, ShardScaleConfig, ShardScaleRow};
use npqm_traffic::service::{run_service, PacketStream, ServiceConfig, ServiceReport};
use npqm_traffic::{ArrivalProcess, FlowMix, PipelineBuilder, PipelineConfig, SizeDistribution};
use std::hint::black_box;

/// Calls per chunk span in every driver loop the benchmark owns.
pub const CHUNK: usize = 256;

/// Egress discipline of every workload that has one.
pub const SCHED_SPEC: &str = "drr:1518";

/// The paper's queue count, and `engine_32kq_1518`'s.
const ENGINE_FLOWS: u32 = 32 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SvcSteady,
    SvcLanes2t,
    BatchZipf,
    BatchZipf2t,
    LoopMin64,
    Engine32kq1518,
}

/// The entry point a workload times — and so the top rung of its ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `npqm_traffic::service::run_service`.
    Service,
    /// `npqm_traffic::scale::run_shard_scale`.
    Scale,
    /// `npqm_traffic::PipelineBuilder` (one shard: the dense loop).
    Pipeline,
    /// The benchmark's own fill/drain driver over one `QueueManager`.
    Engine,
}

/// Admission policy of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// Choudhury–Hahne dynamic thresholds with this `alpha`.
    DynamicThreshold(f64),
    /// Longest-queue-drop push-out with this reserve.
    Lqd(u32),
}

impl Policy {
    pub fn boxed(self) -> Box<dyn DropPolicy + Send> {
        match self {
            Policy::DynamicThreshold(alpha) => Box::new(DynamicThreshold::new(alpha)),
            Policy::Lqd(reserve) => Box::new(LongestQueueDrop::new(reserve)),
        }
    }
}

/// What a workload's traffic and engine look like, for the ladder rungs
/// that rebuild a layer's part of the workload outside its entry point.
#[derive(Debug, Clone)]
pub struct Shape {
    pub qm: QmConfig,
    pub shards: usize,
    /// The whole offered stream (all generators together).
    pub arrivals: ArrivalProcess,
    pub sizes: SizeDistribution,
    pub mix: FlowMix,
    pub egress_gbps: f64,
    pub policy: Policy,
    /// Packets enqueued before the first is dequeued in the benchmark's
    /// own fill/drain loops: one chunk, except where the working set is
    /// the point of the workload.
    pub window: usize,
}

impl Shape {
    /// Mean spacing of the offered stream, in picoseconds.
    fn mean_interval_ps(&self) -> f64 {
        1e12 / self.arrivals.mean_rate_pps()
    }

    /// Virtual time in which the stream offers about `pkts` packets.
    fn duration_for(&self, pkts: u64) -> Picos {
        Picos::new((pkts as f64 * self.mean_interval_ps()).round() as u64)
    }

    /// Share of the offered bytes the egress can carry.
    pub fn drain_share(&self) -> f64 {
        let offered_gbps = self.arrivals.mean_rate_pps() * self.sizes.mean() * 8.0 / 1e9;
        (self.egress_gbps / offered_gbps).min(1.0)
    }
}

fn qm_config(flows: u32, segments: u32) -> QmConfig {
    QmConfig::builder()
        .num_flows(flows)
        .num_segments(segments)
        .segment_bytes(64)
        .build()
        .expect("static configuration is valid")
}

/// One offered packet of a ladder stream.
#[derive(Debug, Clone, Copy)]
pub struct Pkt {
    pub at: Picos,
    pub flow: FlowId,
    pub size: u32,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::SvcSteady,
        Workload::SvcLanes2t,
        Workload::BatchZipf,
        Workload::BatchZipf2t,
        Workload::LoopMin64,
        Workload::Engine32kq1518,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SvcSteady => "svc_steady",
            Workload::SvcLanes2t => "svc_lanes_2t",
            Workload::BatchZipf => "batch_zipf",
            Workload::BatchZipf2t => "batch_zipf_2t",
            Workload::LoopMin64 => "loop_min64",
            Workload::Engine32kq1518 => "engine_32kq_1518",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn family(self) -> Family {
        match self {
            Workload::SvcSteady | Workload::SvcLanes2t => Family::Service,
            Workload::BatchZipf | Workload::BatchZipf2t => Family::Scale,
            Workload::LoopMin64 => Family::Pipeline,
            Workload::Engine32kq1518 => Family::Engine,
        }
    }

    /// Threads doing work inside the timed call.
    pub fn threads(self) -> usize {
        match self {
            Workload::SvcLanes2t | Workload::BatchZipf2t => 2,
            _ => 1,
        }
    }

    /// Packets the workload offers per repetition, before `--smoke`
    /// divides it. Sized so a repetition takes 0.06-0.2 s on the 2-core
    /// sandbox: the host there slows down by 10-50% for a good part of
    /// every second, and only repetitions short and many enough that some
    /// fall between the slow spells show what the program costs. Only
    /// counts were scaled to get there, never shapes.
    fn packets(self) -> u64 {
        match self {
            // 0.25 s of virtual time at 2 x 0.5 Mpkt/s.
            Workload::SvcSteady => 250_000,
            // 0.1 s at 1 Mpkt/s.
            Workload::SvcLanes2t => 100_000,
            // 128 rounds of 2048 packets.
            Workload::BatchZipf | Workload::BatchZipf2t => 128 * 2048,
            // 25 ms at one packet per 50 ns.
            Workload::LoopMin64 => 500_000,
            // Two passes over every queue.
            Workload::Engine32kq1518 => 2 * ENGINE_FLOWS as u64,
        }
    }

    pub fn shape(self) -> Shape {
        // The table7/table10 engine: 64 Zipf-1.2 flows, IMIX, 8192
        // segments of 64 B over four shards, 2 Gbit/s egress at about
        // 1.45x overload, Choudhury-Hahne admission.
        let table10 = Shape {
            qm: qm_config(64, 8192),
            shards: 4,
            arrivals: ArrivalProcess::Poisson {
                mean_interval: Picos::from_micros(1),
            },
            sizes: SizeDistribution::Imix,
            mix: FlowMix::zipf(64, 1.2),
            egress_gbps: 2.0,
            policy: Policy::DynamicThreshold(2.0),
            window: CHUNK,
        };
        match self {
            Workload::SvcSteady | Workload::BatchZipf | Workload::BatchZipf2t => table10,
            Workload::SvcLanes2t => Shape {
                shards: 1,
                ..table10
            },
            Workload::LoopMin64 => Shape {
                qm: qm_config(256, 4096),
                shards: 1,
                arrivals: ArrivalProcess::Cbr {
                    interval: Picos::from_nanos(50),
                },
                sizes: SizeDistribution::Fixed(64),
                mix: FlowMix::uniform(256),
                egress_gbps: 5.0,
                policy: Policy::Lqd(0),
                window: CHUNK,
            },
            Workload::Engine32kq1518 => Shape {
                qm: qm_config(ENGINE_FLOWS, 1 << 20),
                shards: 1,
                arrivals: ArrivalProcess::cbr_gbps(10.0, 1518),
                sizes: SizeDistribution::Fixed(1518),
                mix: FlowMix::uniform(ENGINE_FLOWS),
                egress_gbps: 10.0,
                policy: Policy::DynamicThreshold(2.0),
                window: ENGINE_FLOWS as usize,
            },
        }
    }

    /// The `run_service` configuration: the workload's own when `pkts` is
    /// `None` and the workload is a service one, else the workload's
    /// shape as a one-generator serial service offering about `pkts`.
    pub fn service_cfg(self, seed: u64, div: u64, pkts: Option<u64>) -> (ServiceConfig, usize) {
        let shape = self.shape();
        let own = pkts.is_none() && self.family() == Family::Service;
        let pkts = pkts.unwrap_or(self.packets()) / div;
        let duration = shape.duration_for(pkts);
        let generators = if self == Workload::SvcSteady { 2 } else { 1 };
        let per_generator = match shape.arrivals {
            ArrivalProcess::Poisson { mean_interval } => ArrivalProcess::Poisson {
                mean_interval: mean_interval * generators as u64,
            },
            other => other,
        };
        let cfg = ServiceConfig {
            qm: shape.qm,
            arrivals: per_generator,
            sizes: shape.sizes,
            mix: shape.mix,
            egress_gbps: shape.egress_gbps,
            shards: shape.shards,
            generators,
            epoch: Picos::new(duration.as_u64() / 10),
            duration,
            seed,
            // Lanes, pacing and histogram geometry as `table10` runs them.
            ..ServiceConfig::table10()
        };
        (cfg, if own { self.threads() } else { 1 })
    }

    /// The `run_shard_scale` call: `(config, shards, threads)`. The scale
    /// experiment always offers its own Zipf/IMIX mix; only geometry and
    /// length follow the workload.
    pub fn scale_cfg(
        self,
        seed: u64,
        div: u64,
        pkts: Option<u64>,
    ) -> (ShardScaleConfig, usize, usize) {
        let shape = self.shape();
        let own = pkts.is_none() && self.family() == Family::Scale;
        let pkts = pkts.unwrap_or(self.packets()) / div;
        let table7 = ShardScaleConfig::table7();
        let cfg = ShardScaleConfig {
            flows: shape.qm.num_flows(),
            total_segments: shape.qm.num_segments(),
            segment_bytes: shape.qm.segment_bytes(),
            rounds: (pkts / table7.packets_per_round as u64).max(1) as u32,
            seed,
            ..table7
        };
        (cfg, shape.shards, if own { self.threads() } else { 1 })
    }

    /// The closed-loop pipeline configuration offering about `pkts`
    /// packets (the workload's own count when `None`).
    pub fn pipeline_cfg(self, seed: u64, div: u64, pkts: Option<u64>) -> PipelineConfig {
        let shape = self.shape();
        let pkts = pkts.unwrap_or(self.packets()) / div;
        PipelineConfig {
            qm: shape.qm,
            arrivals: shape.arrivals,
            sizes: shape.sizes,
            duration: shape.duration_for(pkts),
            mix: shape.mix,
            egress_gbps: shape.egress_gbps,
            seed,
            telemetry: None,
        }
    }

    /// The first `n` packets of a stream of the workload's shape, drawn
    /// with the program's own generators — except for the engine
    /// workload, which walks every queue once per pass in a seeded stride.
    pub fn stream(self, seed: u64, n: usize) -> Vec<Pkt> {
        let shape = self.shape();
        if self.family() == Family::Engine {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let flows = ENGINE_FLOWS as u64;
            // Odd, so coprime with the power-of-two flow count: every
            // pass of `flows` packets visits every queue exactly once.
            let stride = rng.next_below(flows / 2) * 2 + 1;
            let start = rng.next_below(flows);
            let interval = shape.mean_interval_ps() as u64;
            return (0..n as u64)
                .map(|i| Pkt {
                    at: Picos::new((i + 1) * interval),
                    flow: FlowId::new(((start + i * stride) % flows) as u32),
                    size: 1518,
                })
                .collect();
        }
        let mut arrivals = ArrivalGen::new(shape.arrivals, seed);
        let mut draws = PacketStream::new(&shape.mix, &shape.sizes, !seed);
        (0..n)
            .map(|_| {
                let at = arrivals.next_arrival();
                let (flow, size, _) = draws.next_packet();
                Pkt { at, flow, size }
            })
            .collect()
    }
}

/// The simulated (modelled) results of one call and the host-side counters
/// its report carries. Everything the digest folds is a pure function of
/// workload, seed and size; the `host_*` fields are not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub offered_pkts: u64,
    pub delivered_pkts: u64,
    pub delivered_bytes: u64,
    pub dropped_pkts: u64,
    pub evicted_pkts: u64,
    /// Admitted and still buffered when the call returned.
    pub residual_pkts: u64,
    /// Torn frames, integrity violations and failed invariant walks.
    pub violations: u64,
    /// FNV-1a fold of every simulated result the call reports.
    pub digest: u64,
    /// Modelled goodput; `None` where the entry point models no time.
    pub sim_goodput_gbps: Option<f64>,
    /// Modelled (dropped + evicted) / offered.
    pub sim_loss_share: f64,
    /// Modelled delivery-latency p99 from the merged epoch histograms.
    pub sim_latency_p99_us: Option<f64>,
    /// Wall-clock time the report says its engines were busy, summed.
    pub host_busy_ns: u64,
    pub host_lane_stalls: u64,
    pub host_reorder_peak: u64,
    pub host_steals: u64,
}

impl Outcome {
    /// Whether `offered = delivered + dropped + evicted + residual` holds.
    pub fn conserved(&self) -> bool {
        self.offered_pkts
            == self.delivered_pkts + self.dropped_pkts + self.evicted_pkts + self.residual_pkts
    }

    /// Operations (offered packets) that failed. Policy drops are
    /// modelled behaviour, not failures; a packet gone missing fails the
    /// whole repetition because nothing says which one it was.
    pub fn failed(&self) -> u64 {
        if self.conserved() {
            self.violations.min(self.offered_pkts)
        } else {
            self.offered_pkts
        }
    }

    /// The simulated results alone, for comparing a repetition with its
    /// reference (host counters differ between any two runs).
    pub fn simulated(&self) -> Outcome {
        Outcome {
            host_busy_ns: 0,
            host_lane_stalls: 0,
            host_reorder_peak: 0,
            host_steals: 0,
            ..self.clone()
        }
    }
}

fn fold_all(seed: u64, values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(seed, fnv1a_fold)
}

fn outcome_of_service(r: &ServiceReport) -> Outcome {
    let a = &r.aggregate;
    let snapshots = r.shards.iter().flat_map(|s| &s.snapshots);
    let violations = a.integrity_violations
        + snapshots
            .map(|s| s.integrity_violations + u64::from(!s.verify_ok))
            .sum::<u64>();
    let mut latency = r.windows.iter().map(|w| &w.latency_ns);
    let p99_ns = latency.next().cloned().and_then(|mut merged| {
        latency.for_each(|h| merged.merge(h));
        merged.quantile(0.99)
    });
    let goodput = a.goodput_gbps();
    let totals = [
        r.final_digest,
        a.offered_pkts,
        a.offered_bytes,
        a.dropped_pkts,
        a.evicted_pkts,
        a.delivered_pkts,
        a.delivered_bytes,
        a.makespan.as_u64(),
        a.latency_ns.mean().to_bits(),
        p99_ns.unwrap_or(u64::MAX),
    ];
    Outcome {
        offered_pkts: a.offered_pkts,
        delivered_pkts: a.delivered_pkts,
        delivered_bytes: a.delivered_bytes,
        dropped_pkts: a.dropped_pkts,
        evicted_pkts: a.evicted_pkts,
        residual_pkts: r.shards.iter().map(|s| s.residual_pkts).sum(),
        violations,
        digest: fold_all(
            FNV_OFFSET_BASIS,
            totals.into_iter().chain(r.epoch_digests.iter().copied()),
        ),
        sim_goodput_gbps: Some(goodput),
        sim_loss_share: a.loss_fraction(),
        sim_latency_p99_us: p99_ns.map(|ns| ns as f64 / 1000.0),
        host_busy_ns: r.shards.iter().map(|s| s.busy.as_nanos() as u64).sum(),
        host_lane_stalls: r.ring_full_events,
        host_reorder_peak: r.reorder_peak,
        host_steals: 0,
    }
}

fn outcome_of_scale(r: &ShardScaleRow) -> Outcome {
    let totals = [
        r.fingerprint,
        r.offered_pkts,
        r.offered_bytes,
        r.admitted_pkts,
        r.admitted_bytes,
        r.delivered_pkts,
        r.drained_bytes,
        r.residual_bytes,
        r.segments_processed,
        r.ptr_accesses,
    ];
    Outcome {
        offered_pkts: r.offered_pkts,
        delivered_pkts: r.delivered_pkts,
        delivered_bytes: r.drained_bytes,
        dropped_pkts: r.dropped_pkts,
        evicted_pkts: 0,
        // The row's own ledger identity (`conserved`) closes over bytes
        // and packets; a row that fails it reports no residual, so the
        // packet identity above fails with it.
        residual_pkts: if r.conserved {
            r.admitted_pkts - r.delivered_pkts
        } else {
            0
        },
        violations: r.torn_frames,
        digest: fold_all(FNV_OFFSET_BASIS, totals),
        sim_goodput_gbps: None,
        sim_loss_share: r.dropped_pkts as f64 / r.offered_pkts as f64,
        sim_latency_p99_us: None,
        host_busy_ns: r.serial_time.as_nanos() as u64,
        host_lane_stalls: 0,
        host_reorder_peak: 0,
        host_steals: r.steals,
    }
}

fn outcome_of_pipeline(r: &ShardedPipelineReport) -> Outcome {
    let a = &r.aggregate;
    let totals = [
        a.offered_pkts,
        a.offered_bytes,
        a.dropped_pkts,
        a.evicted_pkts,
        a.delivered_pkts,
        a.delivered_bytes,
        a.makespan.as_u64(),
        a.latency_ns.mean().to_bits(),
    ];
    let per_flow = a.flows.iter().flat_map(|f| {
        [
            f.offered_pkts,
            f.dropped_pkts,
            f.evicted_pkts,
            f.delivered_bytes,
        ]
    });
    Outcome {
        offered_pkts: a.offered_pkts,
        delivered_pkts: a.delivered_pkts,
        delivered_bytes: a.delivered_bytes,
        dropped_pkts: a.dropped_pkts,
        evicted_pkts: a.evicted_pkts,
        // The closed loop runs until its backlog has drained.
        residual_pkts: 0,
        violations: a.integrity_violations,
        digest: fold_all(FNV_OFFSET_BASIS, totals.into_iter().chain(per_flow)),
        sim_goodput_gbps: Some(a.goodput_gbps()),
        sim_loss_share: a.loss_fraction(),
        sim_latency_p99_us: None,
        ..Outcome::default()
    }
}

/// `run_service` under the workload's admission policy and DRR egress.
pub fn call_service(cfg: &ServiceConfig, threads: usize, policy: Policy) -> ServiceReport {
    let quanta = vec![1518u32; cfg.mix.flows() as usize];
    let sched = |_| DeficitRoundRobin::new(quanta.clone());
    match policy {
        Policy::DynamicThreshold(alpha) => {
            run_service(cfg, threads, |_| DynamicThreshold::new(alpha), sched)
        }
        Policy::Lqd(reserve) => {
            run_service(cfg, threads, |_| LongestQueueDrop::new(reserve), sched)
        }
    }
}

/// The closed-loop pipeline under the workload's policy and DRR egress.
pub fn call_pipeline(
    cfg: &PipelineConfig,
    shards: usize,
    policy: Policy,
    telemetry: bool,
) -> ShardedPipelineReport {
    let mut builder = PipelineBuilder::new(cfg)
        .shards(shards)
        .admission(move |_| policy.boxed())
        .egress_spec(SCHED_SPEC);
    if telemetry {
        builder = builder.observe(Default::default());
    }
    builder.run()
}

/// What the benchmark's fill/drain driver did to one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTally {
    pub pkts: u64,
    pub segments: u64,
    pub bytes_out: u64,
    /// Dequeued frames whose length, sequence stamp or last byte differ
    /// from what was enqueued, plus refused enqueues.
    pub violations: u64,
}

/// Enqueues `pkts` a window at a time and dequeues each window in the
/// order it went in, one span per [`CHUNK`] calls. This is the
/// `engine_32kq_1518` workload and, with a one-chunk window, the
/// `core.manager` rung of every other workload.
pub fn drive_engine(
    qm: &mut QueueManager,
    pkts: &[Pkt],
    window: usize,
    payload: &mut [u8],
    tracer: &mut Tracer,
    parent: SpanId,
) -> EngineTally {
    let seg_bytes = qm.config().segment_bytes() as usize;
    let mut tally = EngineTally::default();
    let mut seq = 0u32;
    for fill in pkts.chunks(window) {
        let first_seq = seq;
        for chunk in fill.chunks(CHUNK) {
            let span = tracer.begin("enqueue_packet", parent);
            for p in chunk {
                let size = p.size as usize;
                payload[..4].copy_from_slice(&seq.to_le_bytes());
                seq = seq.wrapping_add(1);
                if qm.enqueue_packet(p.flow, &payload[..size]).is_err() {
                    tally.violations += 1;
                }
                tally.segments += size.div_ceil(seg_bytes) as u64;
            }
            tracer.end(span, chunk.len() as u64);
        }
        let mut expect = first_seq;
        for chunk in fill.chunks(CHUNK) {
            let span = tracer.begin("dequeue_packet", parent);
            for p in chunk {
                let size = p.size as usize;
                match qm.dequeue_packet(p.flow) {
                    Ok(frame) => {
                        let intact = frame.len() == size
                            && frame[..4] == expect.to_le_bytes()
                            && frame[size - 1] == payload[size - 1];
                        tally.violations += u64::from(!intact);
                        tally.bytes_out += frame.len() as u64;
                        black_box(frame);
                    }
                    Err(_) => tally.violations += 1,
                }
                expect = expect.wrapping_add(1);
            }
            tracer.end(span, chunk.len() as u64);
        }
        tally.pkts += fill.len() as u64;
    }
    tally
}

/// A payload buffer of `len` seeded bytes (so no page of it is a shared
/// zero page and no frame is all one value).
pub fn seeded_payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5EED_5EED);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Inputs of one repetition, built outside the timed call.
pub enum Inputs {
    Service(ServiceConfig, usize),
    Scale(ShardScaleConfig, usize, usize),
    Pipeline(PipelineConfig),
    Engine {
        qm: Box<QueueManager>,
        pkts: Vec<Pkt>,
        payload: Vec<u8>,
    },
}

impl Workload {
    /// Builds one repetition's inputs: configurations, and for the engine
    /// workload the engine itself, its stream and its payload.
    pub fn prepare(self, seed: u64, div: u64) -> Inputs {
        match self.family() {
            Family::Service => {
                let (cfg, threads) = self.service_cfg(seed, div, None);
                Inputs::Service(cfg, threads)
            }
            Family::Scale => {
                let (cfg, shards, threads) = self.scale_cfg(seed, div, None);
                Inputs::Scale(cfg, shards, threads)
            }
            Family::Pipeline => Inputs::Pipeline(self.pipeline_cfg(seed, div, None)),
            Family::Engine => {
                let shape = self.shape();
                let mut qm = Box::new(QueueManager::new(shape.qm));
                let pkts = self.stream(seed, (self.packets() / div) as usize);
                let mut payload = seeded_payload(seed, 1518);
                // One untimed pass, so the timed ones run on resident
                // memory: a fresh engine's first fill is mostly page
                // faults, which a long-running engine never sees again.
                let first_pass = &pkts[..pkts.len().min(shape.window)];
                let mut off = Tracer::off();
                drive_engine(
                    &mut qm,
                    first_pass,
                    shape.window,
                    &mut payload,
                    &mut off,
                    SpanId::NONE,
                );
                Inputs::Engine { qm, pkts, payload }
            }
        }
    }

    /// The timed call: the workload's entry point, start to finish, with
    /// `threads` overriding the workload's own count where given (a
    /// `*_2t` workload's serial twin).
    pub fn call(
        self,
        inputs: Inputs,
        threads: Option<usize>,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Outcome {
        let shape = self.shape();
        match inputs {
            Inputs::Service(cfg, own) => {
                outcome_of_service(&call_service(&cfg, threads.unwrap_or(own), shape.policy))
            }
            Inputs::Scale(cfg, shards, own) => {
                outcome_of_scale(&run_shard_scale(&cfg, shards, threads.unwrap_or(own)))
            }
            Inputs::Pipeline(cfg) => {
                outcome_of_pipeline(&call_pipeline(&cfg, shape.shards, shape.policy, false))
            }
            Inputs::Engine {
                mut qm,
                pkts,
                mut payload,
            } => {
                let tally =
                    drive_engine(&mut qm, &pkts, shape.window, &mut payload, tracer, parent);
                outcome_of_engine(&qm, &tally)
            }
        }
    }
}

/// Verifies and digests the drained engine; outside `drive_engine` so the
/// `core.manager` rung times engine calls only. (Inside the workload's
/// timed call it is one walk over 32K empty queues: under 1% of the call.)
pub fn outcome_of_engine(qm: &QueueManager, tally: &EngineTally) -> Outcome {
    let walk = check::verify(qm);
    let totals = [
        check::state_digest(qm),
        tally.pkts,
        tally.segments,
        tally.bytes_out,
        qm.ptr_counters().total(),
    ];
    Outcome {
        offered_pkts: tally.pkts,
        delivered_pkts: tally.pkts - tally.violations.min(tally.pkts),
        delivered_bytes: tally.bytes_out,
        // A frame that failed to enqueue or came back wrong is a
        // violation, and is counted out of `delivered` so it also breaks
        // the conservation identity.
        violations: tally.violations + u64::from(walk.is_err()),
        digest: fold_all(FNV_OFFSET_BASIS, totals),
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn engine_stream_visits_every_queue_once_per_pass() {
        let pkts = Workload::Engine32kq1518.stream(7, 2 * ENGINE_FLOWS as usize);
        for pass in pkts.chunks(ENGINE_FLOWS as usize) {
            let mut seen = vec![false; ENGINE_FLOWS as usize];
            for p in pass {
                assert!(!std::mem::replace(&mut seen[p.flow.as_usize()], true));
            }
        }
        assert_ne!(
            pkts[1].flow,
            Workload::Engine32kq1518.stream(8, 2)[1].flow,
            "the walk depends on the seed"
        );
    }

    #[test]
    fn every_workload_runs_small_is_conserved_and_repeats() {
        for w in Workload::ALL {
            let run = |threads| {
                let mut t = Tracer::off();
                // The `--smoke` size.
                w.call(w.prepare(3, 10), threads, &mut t, SpanId::NONE)
            };
            let a = run(None);
            assert!(a.offered_pkts > 1000, "{}: {a:?}", w.name());
            assert!(a.conserved(), "{}: {a:?}", w.name());
            assert_eq!(a.failed(), 0, "{}", w.name());
            assert!(a.delivered_bytes > 0, "{}", w.name());
            // Threaded or not, the simulated results are the serial ones.
            assert_eq!(a.simulated(), run(Some(1)).simulated(), "{}", w.name());
        }
    }

    #[test]
    fn a_lost_packet_fails_the_whole_repetition() {
        let ok = Outcome {
            offered_pkts: 10,
            delivered_pkts: 7,
            dropped_pkts: 3,
            ..Outcome::default()
        };
        assert_eq!(ok.failed(), 0);
        let torn = Outcome {
            violations: 2,
            ..ok.clone()
        };
        assert_eq!(torn.failed(), 2);
        let lost = Outcome {
            delivered_pkts: 6,
            ..ok
        };
        assert_eq!(lost.failed(), 10);
    }

    #[test]
    fn a_corrupted_frame_is_a_violation() {
        let w = Workload::LoopMin64;
        let mut qm = QueueManager::new(w.shape().qm);
        let pkts = w.stream(1, 8);
        let mut payload = seeded_payload(1, 64);
        // Pre-load a foreign frame on the first packet's queue: every
        // dequeue on that queue now returns its predecessor's frame.
        qm.enqueue_packet(pkts[0].flow, &[0xEE; 64]).unwrap();
        let tally = drive_engine(
            &mut qm,
            &pkts,
            8,
            &mut payload,
            &mut Tracer::off(),
            SpanId::NONE,
        );
        assert!(tally.violations >= 1, "{tally:?}");
    }
}
