//! The layer ladder: one rung per module of the program, each over a
//! stream of the workload's shape, the top rung the workload's own entry
//! point.
//!
//! The program records no spans of its own yet, so a layer's *self* cost
//! is its rung minus the rungs beneath it, weighted by the share of
//! packets that reach them (the admit/drain rung measures those shares).
//! Rungs run in isolation with warm caches, so they can overstate what a
//! layer costs in situ; `ladder.attributed_share` says by how much the
//! rungs beneath the top one explain it (1.0 = entirely, above 1.0 =
//! over-attributed).

use crate::alloc::{counted, AllocCount};
use crate::calib::{Kernel, REFERENCE_S};
use crate::host::process_cpu_ns;
use crate::span::{SpanId, Tracer};
use crate::stat::lower_decile;
use crate::workloads::{
    call_pipeline, drive_engine, outcome_of_engine, seeded_payload, Family, Inputs, Outcome, Pkt,
    Shape, Workload, CHUNK,
};
use npqm_core::freelist::SegFreeList;
use npqm_core::pool::SegmentPool;
use npqm_core::ptrmem::PtrMem;
use npqm_core::sched::{drain_next, DeficitRoundRobin};
use npqm_core::shard::{ShardedAdmission, ShardedQueueManager};
use npqm_core::{Command, FlowId, Outcome as CmdOutcome, QueueManager, SegmentId};
use npqm_sim::stats::Histogram;
use npqm_sim::time::Picos;
use npqm_sim::EventQueue;
use npqm_traffic::arrival::ArrivalGen;
use npqm_traffic::service::PacketStream;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Every per-layer metric, with its unit, in report order. Each traced
/// run reports all of them: every rung runs on every workload's shape.
pub const METRICS: [(&str, &str); 42] = [
    ("traffic.gen.ns_per_pkt", "ns"),
    ("sim.event.ns_per_event", "ns"),
    ("sim.hist.ns_per_record", "ns"),
    ("core.ptrmem.alloc_release_ns_per_seg", "ns"),
    ("core.pool.write_read_ns_per_seg", "ns"),
    ("core.manager.enq_ns_per_seg", "ns"),
    ("core.manager.deq_ns_per_seg", "ns"),
    ("core.manager.segs_per_s", "1/s"),
    ("core.manager.ptr_accesses_per_seg", "count"),
    ("core.manager.allocs_per_pkt", "count"),
    ("core.manager.alloc_bytes_per_pkt", "B"),
    ("core.policy.offer_ns_per_pkt", "ns"),
    ("core.policy.self_ns_per_pkt", "ns"),
    ("core.policy.refused_share", "ratio"),
    ("core.policy.evicted_share", "ratio"),
    ("core.sched.drain_ns_per_pkt", "ns"),
    ("core.sched.self_ns_per_pkt", "ns"),
    ("core.shard.batch_ns_per_cmd", "ns"),
    ("core.shard.self_ns_per_cmd", "ns"),
    ("core.shard.allocs_per_cmd", "count"),
    ("core.shard.busy_share", "ratio"),
    ("core.shard.parallel.ns_per_cmd", "ns"),
    ("core.shard.parallel.steals_per_batch", "count"),
    ("core.shard.parallel.cpu_over_wall", "ratio"),
    ("core.shard.parallel.speedup", "ratio"),
    ("core.check.snapshot_us", "us"),
    ("core.telemetry.overhead_pct", "%"),
    ("traffic.pipeline.ns_per_pkt", "ns"),
    ("traffic.pipeline.self_ns_per_pkt", "ns"),
    ("traffic.pipeline.allocs_per_pkt", "count"),
    ("traffic.scale.ns_per_pkt", "ns"),
    ("traffic.scale.self_ns_per_pkt", "ns"),
    ("traffic.scale.busy_share", "ratio"),
    ("traffic.service.ns_per_pkt", "ns"),
    ("traffic.service.self_ns_per_pkt", "ns"),
    ("traffic.service.busy_share", "ratio"),
    ("traffic.service.lane_stalls_per_kpkt", "count"),
    ("traffic.service.reorder_peak", "count"),
    ("traffic.service.allocs_per_pkt", "count"),
    ("traffic.service.cpu_over_wall", "ratio"),
    ("ladder.attributed_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Packets each rung replays (the workload's own count on its top rung).
const LADDER_PKTS: u64 = 1 << 18;

/// Arrivals per batch on the `core.shard` rungs and the share of the
/// backlog each drain batch serves: the scale experiment's round, the
/// program's one user of the batch executor.
const BATCH_PKTS: usize = 2048;
const BATCH_DRAIN_SHARE: f64 = 0.3;

/// One climb of the ladder.
pub struct Pass {
    pub tracer: Tracer,
    /// What the top rung (the workload's entry point, traced) returned.
    pub top: Outcome,
    values: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// The value of a metric listed in [`METRICS`].
    pub fn value(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("the ladder did not measure {name}"))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One call of an entry point: wall, CPU, allocations, what it returned.
struct Call {
    wall_ns: f64,
    cpu_ns: f64,
    allocs: AllocCount,
    out: Outcome,
}

impl Call {
    fn ns_per_pkt(&self) -> f64 {
        ratio(self.wall_ns, self.out.offered_pkts as f64)
    }
}

/// What the admit/drain rung saw: the shares that weight the rungs
/// beneath a closed loop.
#[derive(Default)]
struct Mix {
    offered: f64,
    admitted: f64,
    admitted_segs: f64,
    evicted: f64,
    delivered: f64,
    delivered_segs: f64,
}

/// What a batch rung saw.
#[derive(Default)]
struct Batches {
    cmds: f64,
    offers: f64,
    served_segs: f64,
    ns: f64,
    busy_ns: f64,
    steals: f64,
    parallel_batches: f64,
    allocs: f64,
    cpu_over_wall: f64,
}

struct Climb {
    workload: Workload,
    shape: Shape,
    seed: u64,
    div: u64,
    pkts: Vec<Pkt>,
    payload: Vec<u8>,
    tracer: Tracer,
    root: SpanId,
    kernel: Kernel,
    cal_s: Vec<f64>,
}

/// Climbs the ladder once for `workload`.
pub fn climb(workload: Workload, seed: u64, div: u64) -> Pass {
    let mut tracer = Tracer::on();
    let root = tracer.begin("ladder", SpanId::NONE);
    let n = (LADDER_PKTS / div) as usize;
    let shape = workload.shape();
    let mut c = Climb {
        workload,
        pkts: workload.stream(seed, n),
        payload: seeded_payload(seed, shape.sizes.max_bytes() as usize),
        shape,
        seed,
        div,
        tracer,
        root,
        kernel: Kernel::new(),
        cal_s: Vec::new(),
    };
    let (values, top) = c.measure();
    c.tracer.end(c.root, top.offered_pkts);
    Pass {
        tracer: c.tracer,
        top,
        values,
    }
}

impl Climb {
    /// Runs one rung, then the calibration kernel beside it.
    fn beside<R>(&mut self, rung: impl FnOnce(&mut Self) -> R) -> R {
        let result = rung(self);
        let now = self.kernel.seconds(0.0);
        self.cal_s.push(now);
        result
    }

    fn segs_of(&self, p: &Pkt) -> u64 {
        u64::from(p.size.div_ceil(self.shape.qm.segment_bytes()))
    }

    /// Nanoseconds per item over the direct children of `rung` named `name`.
    fn per_item(&self, rung: SpanId, name: &str) -> f64 {
        let (ns, items) = self.tracer.children(rung, name);
        ratio(ns as f64, items as f64)
    }

    fn rung_gen(&mut self) -> f64 {
        let rung = self.tracer.begin("traffic.gen", self.root);
        let mut arrivals = ArrivalGen::new(self.shape.arrivals, self.seed);
        let mut draws = PacketStream::new(&self.shape.mix, &self.shape.sizes, !self.seed);
        let mut left = self.pkts.len();
        while left > 0 {
            let calls = left.min(CHUNK);
            let span = self.tracer.begin("chunk", rung);
            for _ in 0..calls {
                black_box((arrivals.next_arrival(), draws.next_packet()));
            }
            self.tracer.end(span, calls as u64);
            left -= calls;
        }
        self.tracer.end(rung, self.pkts.len() as u64);
        self.per_item(rung, "chunk")
    }

    /// An arrival and a transmit-done event per packet, as the closed
    /// loops schedule them: the queue never holds more than a few.
    fn rung_event(&mut self) -> f64 {
        let rung = self.tracer.begin("sim.event", self.root);
        let mut ev: EventQueue<u32> = EventQueue::new();
        for chunk in self.pkts.chunks(CHUNK) {
            let span = self.tracer.begin("chunk", rung);
            for p in chunk {
                ev.schedule(p.at.max(ev.now()), 0);
                let tx_ps = (f64::from(p.size) * 8000.0 / self.shape.egress_gbps) as u64;
                ev.schedule_in(Picos::new(tx_ps), 1);
                black_box(ev.pop());
                black_box(ev.pop());
            }
            self.tracer.end(span, 2 * chunk.len() as u64);
        }
        self.tracer.end(rung, 2 * self.pkts.len() as u64);
        self.per_item(rung, "chunk")
    }

    /// Latencies into the service's histogram geometry (1024 x 20 us).
    fn rung_hist(&mut self) -> f64 {
        let rung = self.tracer.begin("sim.hist", self.root);
        let mut hist = Histogram::new(1024, 20_000);
        for chunk in self.pkts.chunks(CHUNK) {
            let span = self.tracer.begin("chunk", rung);
            for p in chunk {
                hist.record((p.at.as_u64() / 1000) % 20_000_000);
            }
            self.tracer.end(span, chunk.len() as u64);
        }
        black_box(hist.quantile(0.99));
        self.tracer.end(rung, self.pkts.len() as u64);
        self.per_item(rung, "chunk")
    }

    /// Free-list allocate and release of every segment of the stream, a
    /// window of packets at a time.
    fn rung_ptrmem(&mut self) -> f64 {
        let rung = self.tracer.begin("core.ptrmem", self.root);
        let qm = self.shape.qm;
        let mut pm = PtrMem::new(qm.num_segments(), qm.num_flows());
        let mut free = SegFreeList::init(&mut pm, qm.freelist_discipline());
        let mut held: Vec<SegmentId> = Vec::new();
        let mut segs = 0u64;
        for fill in self.pkts.chunks(self.shape.window) {
            for chunk in fill.chunks(CHUNK) {
                let want: u64 = chunk.iter().map(|p| self.segs_of(p)).sum();
                let span = self.tracer.begin("alloc", rung);
                for _ in 0..want {
                    held.push(free.alloc(&mut pm).expect("a window fits the memory"));
                }
                self.tracer.end(span, want);
                segs += want;
            }
            for chunk in held.chunks(CHUNK * 8) {
                let span = self.tracer.begin("release", rung);
                for &id in chunk {
                    free.release(&mut pm, id);
                }
                self.tracer.end(span, chunk.len() as u64);
            }
            held.clear();
        }
        self.tracer.end(rung, segs);
        self.per_item(rung, "alloc") + self.per_item(rung, "release")
    }

    /// Data-memory write and read of every segment of the stream.
    fn rung_pool(&mut self) -> f64 {
        let rung = self.tracer.begin("core.pool", self.root);
        let qm = self.shape.qm;
        let seg_bytes = qm.segment_bytes() as usize;
        let mut pool = SegmentPool::new(qm.num_segments(), qm.segment_bytes());
        let mut segs = 0u64;
        for fill in self.pkts.chunks(self.shape.window) {
            for (name, write) in [("write", true), ("read", false)] {
                let mut cursor = 0u32;
                for chunk in fill.chunks(CHUNK) {
                    let span = self.tracer.begin(name, rung);
                    let mut touched = 0u64;
                    for p in chunk {
                        for part in self.payload[..p.size as usize].chunks(seg_bytes) {
                            let id = SegmentId::new(cursor);
                            if write {
                                pool.write(id, part);
                            } else {
                                black_box(pool.read(id, part.len()));
                            }
                            cursor += 1;
                            touched += 1;
                        }
                    }
                    self.tracer.end(span, touched);
                    segs += u64::from(write) * touched;
                }
            }
        }
        self.tracer.end(rung, segs);
        self.per_item(rung, "write") + self.per_item(rung, "read")
    }

    /// `enqueue_packet`/`dequeue_packet` on one engine: for the engine
    /// workload its own repetition (the top rung), else the ladder stream
    /// a chunk at a time.
    fn rung_manager(&mut self, values: &mut BTreeMap<&'static str, f64>) -> (f64, f64, Call) {
        let own = self.workload.family() == Family::Engine;
        let (mut qm, pkts) = match self.workload.prepare(self.seed, self.div) {
            // The engine and stream the timed pass would be handed.
            Inputs::Engine { qm, pkts, .. } => (*qm, pkts),
            _ => (
                QueueManager::new(self.shape.qm),
                std::mem::take(&mut self.pkts),
            ),
        };
        let ptr_before = qm.ptr_counters().total();
        let rung = self.tracer.begin("core.manager", self.root);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let ((tally, out), allocs) = counted(|| {
            let tally = drive_engine(
                &mut qm,
                &pkts,
                self.shape.window,
                &mut self.payload,
                &mut self.tracer,
                rung,
            );
            (tally, outcome_of_engine(&qm, &tally))
        });
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let cpu_ns = (process_cpu_ns() - cpu0) as f64;
        self.tracer.end(rung, tally.pkts);
        if !own {
            self.pkts = pkts;
        }

        let (enq_ns, _) = self.tracer.children(rung, "enqueue_packet");
        let (deq_ns, _) = self.tracer.children(rung, "dequeue_packet");
        let segs = tally.segments as f64;
        let (enq, deq) = (ratio(enq_ns as f64, segs), ratio(deq_ns as f64, segs));
        values.insert("core.manager.enq_ns_per_seg", enq);
        values.insert("core.manager.deq_ns_per_seg", deq);
        values.insert(
            "core.manager.segs_per_s",
            ratio(2.0 * segs, (enq_ns + deq_ns) as f64 / 1e9),
        );
        values.insert(
            "core.manager.ptr_accesses_per_seg",
            ratio((qm.ptr_counters().total() - ptr_before) as f64, 2.0 * segs),
        );
        let n = tally.pkts as f64;
        values.insert(
            "core.manager.allocs_per_pkt",
            ratio(allocs.allocs as f64, n),
        );
        values.insert(
            "core.manager.alloc_bytes_per_pkt",
            ratio(allocs.bytes as f64, n),
        );
        let call = Call {
            wall_ns,
            cpu_ns,
            allocs,
            out,
        };
        (enq, deq, call)
    }

    /// Admission through the workload's policy, drained by DRR at the
    /// workload's egress share, with no event queue between them.
    fn rung_admit_drain(&mut self) -> (f64, f64, Mix) {
        let rung = self.tracer.begin("core.policy+core.sched", self.root);
        let mut qm = QueueManager::new(self.shape.qm);
        let mut policy = self.shape.policy.boxed();
        let mut sched = DeficitRoundRobin::new(vec![1518; self.shape.qm.num_flows() as usize]);
        let drain_share = self.shape.drain_share();
        let seg_bytes = self.shape.qm.segment_bytes() as usize;
        let mut mix = Mix::default();
        let mut credit = 0.0f64;
        for chunk in self.pkts.chunks(CHUNK) {
            let span = self.tracer.begin("offer", rung);
            for p in chunk {
                let evicted = match policy.offer(&mut qm, p.flow, &self.payload[..p.size as usize])
                {
                    Ok(admission) => {
                        mix.admitted += 1.0;
                        mix.admitted_segs += self.segs_of(p) as f64;
                        admission.evicted.len()
                    }
                    Err(refusal) => refusal.evicted.len(),
                };
                mix.evicted += evicted as f64;
                credit += f64::from(p.size) * drain_share;
            }
            self.tracer.end(span, chunk.len() as u64);
            mix.offered += chunk.len() as f64;

            let span = self.tracer.begin("drain", rung);
            let mut served = 0u64;
            while credit > 0.0 {
                let Some((_, frame)) = drain_next(&mut qm, &mut sched) else {
                    break;
                };
                credit -= frame.len() as f64;
                mix.delivered_segs += frame.len().div_ceil(seg_bytes) as f64;
                served += 1;
                black_box(frame);
            }
            // An idle egress does not bank credit.
            credit = credit.min(0.0);
            self.tracer.end(span, served);
            mix.delivered += served as f64;
        }
        self.tracer.end(rung, self.pkts.len() as u64);
        (
            self.per_item(rung, "offer"),
            self.per_item(rung, "drain"),
            mix,
        )
    }

    /// `offer_batch` + `execute_batch` rounds as the scale experiment
    /// issues them, then `verify` + `state_digest` of the loaded engine.
    fn rung_batches(&mut self, threads: usize) -> (Batches, f64) {
        let name = if threads == 1 {
            "core.shard"
        } else {
            "core.shard.parallel"
        };
        let rung = self.tracer.begin(name, self.root);
        let shards = self.shape.shards;
        let mut engine = ShardedQueueManager::partitioned(self.shape.qm, shards)
            .expect("per-shard buffer is non-empty");
        let policy = self.shape.policy;
        let mut adm = ShardedAdmission::from_fn(shards, |_| policy.boxed());
        let flows = self.shape.qm.num_flows();
        let mut b = Batches::default();
        let cpu0 = process_cpu_ns();
        let wall0 = Instant::now();
        let rounds = self
            .thinned(8 * self.pkts.len() as u64)
            .min(self.pkts.len() as u64);
        for round in self.pkts[..rounds as usize].chunks(BATCH_PKTS) {
            let arrivals: Vec<(FlowId, &[u8])> = round
                .iter()
                .map(|p| (p.flow, &self.payload[..p.size as usize]))
                .collect();
            let span = self.tracer.begin("offer_batch", rung);
            let (admissions, allocs) = counted(|| {
                if threads == 1 {
                    adm.offer_batch(&mut engine, &arrivals)
                } else {
                    adm.offer_batch_parallel(&mut engine, &arrivals, threads)
                }
            });
            self.tracer.end(span, arrivals.len() as u64);
            b.allocs += allocs.allocs as f64;
            b.offers += arrivals.len() as f64;
            black_box(admissions);

            let queued: u64 = (0..shards)
                .map(|s| {
                    let qm = engine.shard(s);
                    (0..flows)
                        .map(|f| u64::from(qm.queue_len_segments(FlowId::new(f))))
                        .sum::<u64>()
                })
                .sum();
            let passes =
                ((queued as f64 * BATCH_DRAIN_SHARE / f64::from(flows)).ceil() as u64).max(1);
            let drain: Vec<Command> = (0..passes)
                .flat_map(|_| {
                    (0..flows).map(|f| Command::Dequeue {
                        flow: FlowId::new(f),
                    })
                })
                .collect();
            let span = self.tracer.begin("execute_batch", rung);
            let (served, allocs) = counted(|| {
                if threads == 1 {
                    engine.execute_batch(&drain)
                } else {
                    engine.execute_batch_parallel(&drain, threads)
                }
            });
            self.tracer.end(span, drain.len() as u64);
            b.allocs += allocs.allocs as f64;
            b.served_segs += served
                .iter()
                .filter(|r| matches!(r, Ok(CmdOutcome::Segment(_))))
                .count() as f64;
            b.cmds += (arrivals.len() + drain.len()) as f64;
        }
        let cpu_ns = (process_cpu_ns() - cpu0) as f64;
        b.cpu_over_wall = ratio(cpu_ns, wall0.elapsed().as_nanos() as f64);
        let (offer_ns, _) = self.tracer.children(rung, "offer_batch");
        let (exec_ns, _) = self.tracer.children(rung, "execute_batch");
        b.ns = (offer_ns + exec_ns) as f64;
        b.busy_ns = engine.serial_time().as_nanos() as f64;
        let stats = engine.parallel_stats();
        b.steals = stats.steals as f64;
        b.parallel_batches = stats.parallel_batches as f64;

        // The engine now holds the backlog the rounds left behind: the
        // state an epoch snapshot walks.
        let mut snapshot_us = 0.0;
        if threads == 1 {
            // Ten, or as many as fit in 0.3 s (a 64 MB engine takes 0.2 s each).
            let begun = Instant::now();
            for _ in 0..10 {
                if begun.elapsed().as_millis() > 300 {
                    break;
                }
                let span = self.tracer.begin("snapshot", rung);
                black_box(engine.verify().expect("the loaded engine is sound"));
                black_box(engine.state_digest());
                self.tracer.end(span, 1);
            }
            snapshot_us = self.per_item(rung, "snapshot") / 1000.0;
        }
        self.tracer.end(rung, b.cmds as u64);
        (b, snapshot_us)
    }

    /// Calls an entry point inside one span, counting allocations.
    fn traced_call(&mut self, name: &'static str, f: impl FnOnce() -> Outcome) -> Call {
        let span = self.tracer.begin(name, self.root);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let (out, allocs) = counted(f);
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let cpu_ns = (process_cpu_ns() - cpu0) as f64;
        self.tracer.end(span, out.offered_pkts);
        Call {
            wall_ns,
            cpu_ns,
            allocs,
            out,
        }
    }

    /// `pkts` thinned where a rung walks every queue per packet or per
    /// batch (DRR over mostly empty queues, one `Dequeue` per flow and
    /// pass): with 32K queues such a rung would take minutes, and no
    /// workload's own entry point is one.
    fn thinned(&self, pkts: u64) -> u64 {
        pkts * 256 / u64::from(self.shape.qm.num_flows()).max(256)
    }

    /// The packets a family's rung offers: the workload's own count on
    /// its own family's rung (`None`), the ladder's elsewhere.
    fn rung_pkts(&self, family: Family) -> Option<u64> {
        (self.workload.family() != family).then_some(self.thinned(LADDER_PKTS))
    }

    fn rung_pipeline(&mut self, telemetry: bool) -> Call {
        let (w, seed, div) = (self.workload, self.seed, self.div);
        let cfg = w.pipeline_cfg(seed, div, self.rung_pkts(Family::Pipeline));
        let (shards, policy) = (self.shape.shards, self.shape.policy);
        let name = if telemetry {
            "traffic.pipeline+core.telemetry"
        } else {
            "traffic.pipeline"
        };
        self.traced_call(name, || {
            if telemetry {
                let r = call_pipeline(&cfg, shards, policy, true);
                Outcome {
                    offered_pkts: r.aggregate.offered_pkts,
                    ..Outcome::default()
                }
            } else {
                w.call(
                    Inputs::Pipeline(cfg),
                    None,
                    &mut Tracer::off(),
                    SpanId::NONE,
                )
            }
        })
    }

    fn rung_scale(&mut self) -> Call {
        let (w, seed, div) = (self.workload, self.seed, self.div);
        let (cfg, shards, threads) = w.scale_cfg(seed, div, self.rung_pkts(Family::Scale));
        self.traced_call("traffic.scale", || {
            w.call(
                Inputs::Scale(cfg, shards, threads),
                None,
                &mut Tracer::off(),
                SpanId::NONE,
            )
        })
    }

    fn rung_service(&mut self) -> Call {
        let (w, seed, div) = (self.workload, self.seed, self.div);
        let (cfg, threads) = w.service_cfg(seed, div, self.rung_pkts(Family::Service));
        self.traced_call("traffic.service", || {
            w.call(
                Inputs::Service(cfg, threads),
                None,
                &mut Tracer::off(),
                SpanId::NONE,
            )
        })
    }

    /// The workload's entry point once more, with nothing watching: what
    /// the spans and the allocation counter cost the traced top rung.
    fn untraced_top_ns(&self) -> f64 {
        let inputs = self.workload.prepare(self.seed, self.div);
        let t0 = Instant::now();
        black_box(
            self.workload
                .call(inputs, None, &mut Tracer::off(), SpanId::NONE),
        );
        t0.elapsed().as_nanos() as f64
    }

    fn measure(&mut self) -> (BTreeMap<&'static str, f64>, Outcome) {
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        let gen = self.beside(Self::rung_gen);
        let event = self.beside(Self::rung_event);
        let hist = self.beside(Self::rung_hist);
        let ptrmem = self.beside(Self::rung_ptrmem);
        let pool = self.beside(Self::rung_pool);
        let (enq, deq, engine_call) = self.beside(|c| c.rung_manager(&mut v));
        let (offer, drain, mix) = self.beside(Self::rung_admit_drain);
        let (serial, snapshot_us) = self.beside(|c| c.rung_batches(1));
        let (parallel, _) = self.beside(|c| c.rung_batches(2));
        let pipeline = self.beside(|c| c.rung_pipeline(false));
        let pipeline_telemetry = self.beside(|c| c.rung_pipeline(true));
        let scale = self.beside(Self::rung_scale);
        let service = self.beside(Self::rung_service);
        let untraced_ns = self.beside(|c| c.untraced_top_ns());

        v.insert("traffic.gen.ns_per_pkt", gen);
        v.insert("sim.event.ns_per_event", event);
        v.insert("sim.hist.ns_per_record", hist);
        v.insert("core.ptrmem.alloc_release_ns_per_seg", ptrmem);
        v.insert("core.pool.write_read_ns_per_seg", pool);

        // Per offered packet: what admission and egress cost, and how
        // much of that is the engine calls beneath them.
        let admitted_share = ratio(mix.admitted, mix.offered);
        let delivered_share = ratio(mix.delivered, mix.offered);
        let policy_self = offer - ratio(mix.admitted_segs, mix.offered) * enq;
        let sched_self = drain - ratio(mix.delivered_segs, mix.delivered) * deq;
        v.insert("core.policy.offer_ns_per_pkt", offer);
        v.insert("core.policy.self_ns_per_pkt", policy_self);
        v.insert("core.policy.refused_share", 1.0 - admitted_share);
        v.insert("core.policy.evicted_share", ratio(mix.evicted, mix.offered));
        v.insert("core.sched.drain_ns_per_pkt", drain);
        v.insert("core.sched.self_ns_per_pkt", sched_self);

        let batch_cmd = ratio(serial.ns, serial.cmds);
        let beneath_batch = ratio(
            serial.offers * offer + serial.served_segs * deq,
            serial.cmds,
        );
        v.insert("core.shard.batch_ns_per_cmd", batch_cmd);
        v.insert("core.shard.self_ns_per_cmd", batch_cmd - beneath_batch);
        v.insert(
            "core.shard.allocs_per_cmd",
            ratio(serial.allocs, serial.cmds),
        );
        v.insert("core.shard.busy_share", ratio(serial.busy_ns, serial.ns));
        let parallel_cmd = ratio(parallel.ns, parallel.cmds);
        v.insert("core.shard.parallel.ns_per_cmd", parallel_cmd);
        v.insert(
            "core.shard.parallel.steals_per_batch",
            ratio(parallel.steals, parallel.parallel_batches),
        );
        v.insert("core.shard.parallel.cpu_over_wall", parallel.cpu_over_wall);
        v.insert(
            "core.shard.parallel.speedup",
            ratio(batch_cmd, parallel_cmd),
        );
        v.insert("core.check.snapshot_us", snapshot_us);

        // A closed loop pays, per offered packet: its draw, an arrival
        // event plus a transmit-done event per delivery, admission, and
        // egress per delivery.
        let loop_beneath = gen + event * (1.0 + delivered_share) + offer + delivered_share * drain;
        let pipeline_ns = pipeline.ns_per_pkt();
        v.insert("traffic.pipeline.ns_per_pkt", pipeline_ns);
        v.insert(
            "traffic.pipeline.self_ns_per_pkt",
            pipeline_ns - loop_beneath,
        );
        v.insert(
            "traffic.pipeline.allocs_per_pkt",
            ratio(
                pipeline.allocs.allocs as f64,
                pipeline.out.offered_pkts as f64,
            ),
        );
        v.insert(
            "core.telemetry.overhead_pct",
            100.0
                * ratio(
                    pipeline_telemetry.wall_ns - pipeline.wall_ns,
                    pipeline.wall_ns,
                ),
        );

        // The scale experiment pays its draw and its batch commands.
        let scale_beneath = gen + batch_cmd * ratio(serial.cmds, serial.offers);
        let scale_ns = scale.ns_per_pkt();
        v.insert("traffic.scale.ns_per_pkt", scale_ns);
        v.insert("traffic.scale.self_ns_per_pkt", scale_ns - scale_beneath);
        v.insert(
            "traffic.scale.busy_share",
            ratio(scale.out.host_busy_ns as f64, scale.wall_ns),
        );

        // The service pays the loop, a histogram record per delivery and
        // ten epoch snapshots.
        let service_pkts = service.out.offered_pkts as f64;
        let service_beneath = loop_beneath
            + hist * delivered_share
            + ratio(10.0 * snapshot_us * 1000.0, service_pkts);
        let service_ns = service.ns_per_pkt();
        v.insert("traffic.service.ns_per_pkt", service_ns);
        v.insert(
            "traffic.service.self_ns_per_pkt",
            service_ns - service_beneath,
        );
        v.insert(
            "traffic.service.busy_share",
            ratio(service.out.host_busy_ns as f64, service.wall_ns),
        );
        v.insert(
            "traffic.service.lane_stalls_per_kpkt",
            ratio(1000.0 * service.out.host_lane_stalls as f64, service_pkts),
        );
        v.insert(
            "traffic.service.reorder_peak",
            service.out.host_reorder_peak as f64,
        );
        v.insert(
            "traffic.service.allocs_per_pkt",
            ratio(service.allocs.allocs as f64, service_pkts),
        );
        v.insert(
            "traffic.service.cpu_over_wall",
            ratio(service.cpu_ns, service.wall_ns),
        );

        let (top, attributed) = match self.workload.family() {
            Family::Service => (service, ratio(service_beneath, service_ns)),
            Family::Scale => (scale, ratio(scale_beneath, scale_ns)),
            Family::Pipeline => (pipeline, ratio(loop_beneath, pipeline_ns)),
            // An engine call is a free-list operation and a data-memory
            // transfer per segment, plus the queue-table work between.
            Family::Engine => (engine_call, ratio(ptrmem + pool, enq + deq)),
        };
        v.insert("ladder.attributed_share", attributed);
        v.insert(
            "trace.overhead_pct",
            100.0 * ratio(top.wall_ns - untraced_ns, untraced_ns),
        );

        // As in the timed pass: times in seconds of the reference host.
        let slowdown = lower_decile(&self.cal_s) / REFERENCE_S;
        for (name, unit) in METRICS {
            let value = v.get_mut(name).expect("every listed metric was measured");
            match unit {
                "ns" | "us" => *value /= slowdown,
                "1/s" => *value *= slowdown,
                _ => {}
            }
        }
        (v, top.out)
    }
}
