//! Runs every table experiment and dumps a machine-readable JSON summary
//! (the source of EXPERIMENTS.md's paper-vs-measured numbers).

use npqm_bench::json::host;
use npqm_bench::{to_json_string, Json, ToJson};

struct Summary {
    table1: Vec<npqm_mem::experiments::Table1Row>,
    table2: Vec<Table2Out>,
    table3: npqm_npu::swqm::Table3,
    table3_line_transactions: npqm_npu::swqm::Table3,
    table4: Vec<(String, u64)>,
    table5: Vec<npqm_mms::perf::Table5Row>,
    table6: Vec<Table6Out>,
    table7: Vec<npqm_traffic::scale::ShardScaleRow>,
    table8: Vec<Table8Out>,
    table9: Vec<npqm_bench::competitive::Table9Row>,
    table10: Table10Out,
    table11: Table11Out,
    saturation_mpps: f64,
    saturation_gbps: f64,
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        Json::obj([
            ("table1", self.table1.to_json()),
            ("table2", self.table2.to_json()),
            ("table3", self.table3.to_json()),
            (
                "table3_line_transactions",
                self.table3_line_transactions.to_json(),
            ),
            ("table4", self.table4.to_json()),
            ("table5", self.table5.to_json()),
            ("table6", self.table6.to_json()),
            ("table7", self.table7.to_json()),
            ("table8", self.table8.to_json()),
            ("table9", self.table9.to_json()),
            ("table10", self.table10.to_json()),
            ("table11", self.table11.to_json()),
            ("saturation_mpps", self.saturation_mpps.to_json()),
            ("saturation_gbps", self.saturation_gbps.to_json()),
        ])
    }
}

struct Table10Out {
    epochs: usize,
    offered_pkts: u64,
    delivered_pkts: u64,
    dropped_pkts: u64,
    evicted_pkts: u64,
    ring_full_events: u64,
    segments_per_sec: f64,
    final_digest: String,
}

impl ToJson for Table10Out {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epochs", (self.epochs as u64).to_json()),
            ("offered_pkts", self.offered_pkts.to_json()),
            ("delivered_pkts", self.delivered_pkts.to_json()),
            ("dropped_pkts", self.dropped_pkts.to_json()),
            ("evicted_pkts", self.evicted_pkts.to_json()),
            ("ring_full_events", self.ring_full_events.to_json()),
            ("final_digest", self.final_digest.clone().to_json()),
            host([("segments_per_sec", self.segments_per_sec.to_json())]),
        ])
    }
}

struct Table11Out {
    seed: u64,
    /// Per-tenant delivered bytes: [fair HTB, tenant-0 overload HTB,
    /// tenant-0 overload flat DRR].
    tenants: Vec<(u64, u64, u64)>,
    borrowed_packets: u64,
    over_ceil_packets: u64,
}

impl ToJson for Table11Out {
    fn to_json(&self) -> Json {
        let tenants: Vec<Json> = self
            .tenants
            .iter()
            .map(|&(fair, over, flat)| {
                Json::obj([
                    ("fair_delivered_bytes", fair.to_json()),
                    ("overload_delivered_bytes", over.to_json()),
                    ("flat_drr_delivered_bytes", flat.to_json()),
                ])
            })
            .collect();
        Json::obj([
            ("seed", self.seed.to_json()),
            ("tenants", Json::Arr(tenants)),
            ("borrowed_packets", self.borrowed_packets.to_json()),
            ("over_ceil_packets", self.over_ceil_packets.to_json()),
        ])
    }
}

struct Table6Out {
    policy: String,
    offered_pkts: u64,
    delivered_pkts: u64,
    dropped_pkts: u64,
    evicted_pkts: u64,
    goodput_gbps: f64,
    mean_latency_ns: f64,
}

impl ToJson for Table6Out {
    fn to_json(&self) -> Json {
        Json::obj([
            ("policy", self.policy.to_json()),
            ("offered_pkts", self.offered_pkts.to_json()),
            ("delivered_pkts", self.delivered_pkts.to_json()),
            ("dropped_pkts", self.dropped_pkts.to_json()),
            ("evicted_pkts", self.evicted_pkts.to_json()),
            ("goodput_gbps", self.goodput_gbps.to_json()),
            ("mean_latency_ns", self.mean_latency_ns.to_json()),
        ])
    }
}

struct Table8Out {
    banks: u32,
    reordering: bool,
    ops_per_sec: f64,
    ddr_loss: f64,
    conflict_slots: u64,
    turnaround_slots: u64,
    conserved: bool,
}

impl ToJson for Table8Out {
    fn to_json(&self) -> Json {
        Json::obj([
            ("banks", self.banks.to_json()),
            ("reordering", self.reordering.to_json()),
            ("ops_per_sec", self.ops_per_sec.to_json()),
            ("ddr_loss", self.ddr_loss.to_json()),
            ("conflict_slots", self.conflict_slots.to_json()),
            ("turnaround_slots", self.turnaround_slots.to_json()),
            ("conserved", self.conserved.to_json()),
        ])
    }
}

struct Table2Out {
    queues: u32,
    one_engine_kpps: f64,
    six_engines_mpps: f64,
}

impl ToJson for Table2Out {
    fn to_json(&self) -> Json {
        Json::obj([
            ("queues", self.queues.to_json()),
            ("one_engine_kpps", self.one_engine_kpps.to_json()),
            ("six_engines_mpps", self.six_engines_mpps.to_json()),
        ])
    }
}

fn main() {
    eprintln!("running Table 1 (DDR schedulers)...");
    let table1 = npqm_mem::experiments::run_table1(42, 200_000);
    eprintln!("running Table 2 (IXP1200)...");
    let table2 = npqm_ixp::perf::run_table2(8_000_000)
        .into_iter()
        .map(|r| Table2Out {
            queues: r.queues,
            one_engine_kpps: r.one_engine.get(),
            six_engines_mpps: r.six_engines.get(),
        })
        .collect();
    eprintln!("running Table 3 (NPU prototype)...");
    let table3 = npqm_npu::swqm::run_table3(npqm_npu::swqm::CopyStrategy::SingleBeat);
    let table3_line = npqm_npu::swqm::run_table3(npqm_npu::swqm::CopyStrategy::LineTransaction);
    eprintln!("running Table 4 (MMS commands)...");
    let table4 = npqm_mms::microcode::run_table4()
        .into_iter()
        .map(|(c, cy)| (c.name().to_string(), cy))
        .collect();
    eprintln!("running Table 5 (MMS load sweep)...");
    let table5 = npqm_mms::perf::run_table5(42);
    let (mpps, gbps) = npqm_mms::perf::saturation_throughput(42);
    eprintln!("running Table 6 (drop policies, closed loop)...");
    let table6 = npqm_traffic::pipeline::compare_policies(
        &npqm_traffic::pipeline::PipelineConfig::bursty_overload(42),
    )
    .into_iter()
    .map(|o| Table6Out {
        policy: o.policy,
        offered_pkts: o.report.offered_pkts,
        delivered_pkts: o.report.delivered_pkts,
        dropped_pkts: o.report.dropped_pkts,
        evicted_pkts: o.report.evicted_pkts,
        goodput_gbps: o.report.goodput_gbps(),
        mean_latency_ns: o.report.latency_ns.mean(),
    })
    .collect();

    eprintln!("running Table 7 (sharded engine scaling)...");
    let table7 = npqm_traffic::scale::run_shard_sweep(
        &npqm_traffic::scale::ShardScaleConfig::table7(),
        &[1, 2, 4, 8],
        npqm_traffic::scale::threads_from_env(),
    );

    eprintln!("running Table 8 (memory-derived throughput)...");
    let table8 = npqm_traffic::scale::run_memory_sweep(
        &npqm_traffic::scale::ShardScaleConfig::table8(),
        2,
        &npqm_traffic::scale::TABLE8_BANKS,
        npqm_traffic::scale::threads_from_env(),
    )
    .into_iter()
    .map(|r| Table8Out {
        banks: r.banks,
        reordering: r.reordering,
        ops_per_sec: r.ops_per_sec(),
        ddr_loss: r.ddr_loss(),
        conflict_slots: r.conflict_slots,
        turnaround_slots: r.turnaround_slots,
        conserved: r.conserved,
    })
    .collect();

    eprintln!("running Table 9 (competitive-analysis arena)...");
    let table9 = npqm_bench::competitive::run_table9();

    eprintln!("running Table 10 (always-on streaming service)...");
    let svc_cfg = npqm_traffic::service::ServiceConfig::table10();
    let flows = svc_cfg.mix.flows();
    let svc = npqm_traffic::run_service(
        &svc_cfg,
        npqm_traffic::scale::threads_from_env(),
        |_| npqm_core::policy::DynamicThreshold::new(2.0),
        move |_| npqm_core::sched::from_spec("drr:1518", flows).expect("static spec"),
    );
    let table10 = Table10Out {
        epochs: svc.epoch_digests.len(),
        offered_pkts: svc.aggregate.offered_pkts,
        delivered_pkts: svc.aggregate.delivered_pkts,
        dropped_pkts: svc.aggregate.dropped_pkts,
        evicted_pkts: svc.aggregate.evicted_pkts,
        ring_full_events: svc.ring_full_events,
        segments_per_sec: svc.segments_per_sec(),
        final_digest: format!("{:#018x}", svc.final_digest),
    };

    eprintln!("running Table 11 (hierarchical QoS trunk)...");
    let t11_seed = 42;
    let fair = npqm_bench::qos::run_trunk(t11_seed, &npqm_bench::qos::LOAD_FAIR, true);
    let over = npqm_bench::qos::run_trunk(t11_seed, &npqm_bench::qos::LOAD_OVERLOAD, true);
    let flat = npqm_bench::qos::run_trunk(t11_seed, &npqm_bench::qos::LOAD_OVERLOAD, false);
    let wc = npqm_bench::qos::run_work_conservation();
    let table11 = Table11Out {
        seed: t11_seed,
        tenants: npqm_bench::qos::tenant_bytes(&fair)
            .iter()
            .zip(npqm_bench::qos::tenant_bytes(&over))
            .zip(npqm_bench::qos::tenant_bytes(&flat))
            .map(|((f, o), d)| (f.1, o.1, d.1))
            .collect(),
        borrowed_packets: wc.borrowed,
        over_ceil_packets: wc.over_ceil,
    };

    let summary = Summary {
        table1,
        table2,
        table3,
        table3_line_transactions: table3_line,
        table4,
        table5,
        table6,
        table7,
        table8,
        table9,
        table10,
        table11,
        saturation_mpps: mpps.get(),
        saturation_gbps: gbps.get(),
    };
    println!("{}", to_json_string(&summary));
}
