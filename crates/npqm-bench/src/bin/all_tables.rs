//! Runs the paper's tables 1–5 (and the MMS saturation point) and dumps
//! them as one JSON document — the only machine-readable form those
//! have. Tables 6–11 write their own: `tableN --json <path>`.

use npqm_bench::{to_json_string, Json, ToJson};

struct Summary {
    table1: Vec<npqm_mem::experiments::Table1Row>,
    table2: Vec<Table2Out>,
    table3: npqm_npu::swqm::Table3,
    table3_line_transactions: npqm_npu::swqm::Table3,
    table4: Vec<(String, u64)>,
    table5: Vec<npqm_mms::perf::Table5Row>,
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
            ("saturation_mpps", self.saturation_mpps.to_json()),
            ("saturation_gbps", self.saturation_gbps.to_json()),
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
    let summary = Summary {
        table1,
        table2,
        table3,
        table3_line_transactions: table3_line,
        table4,
        table5,
        saturation_mpps: mpps.get(),
        saturation_gbps: gbps.get(),
    };
    println!("{}", to_json_string(&summary));
}
