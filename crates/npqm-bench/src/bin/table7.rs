//! Table 7 (ours): sharded batched-engine scaling — segments/sec versus
//! shard count under the Zipf bursty-overload mix, plus the global-LQD
//! shared-buffer closed loop.
//!
//! The paper's MMS is a single pipelined engine; the scaling axis beyond
//! it is *more engines* with flows partitioned across them. Each row runs
//! the same command trace (Zipf 1.2 flow popularity, IMIX sizes,
//! sustained overload through shard-local Choudhury–Hahne admission) on N
//! independent engine shards and reports the composite rate
//! `segments / critical path`, where the critical path is the busiest
//! shard's measured busy time — the same multi-engine modeling convention
//! as Table 2's "six engines" column. The shards run one after another
//! on one thread: the composite is modelled, not run (worker threads were
//! measured and lost to the serial run on wall clock, so there are none).
//! A closed-loop section compares shard-local Choudhury–Hahne admission
//! against the global LQD over a shared buffer.
//!
//! `table7 --check` runs the machine-checkable golden gates instead of
//! the pretty table: byte-level conservation and zero torn frames on
//! every row, and packet conservation + frame integrity in both closed
//! loops. Every gate is a pure function of the seed; the composite-rate
//! and speedup columns are reported, not gated — host time is gated by
//! `bench/run.sh` (`batch_zipf` is this table's shape).
//! `--json <path>` (without `--check`) writes the per-commit artifact,
//! every host-dependent value under a `host` key; `--report <path>`
//! writes the same rows without `host`, which two builds can `cmp`.

use npqm_bench::cli::{check, host_cores, write_file, Cli};
use npqm_bench::json::{Json, ToJson};
use npqm_core::policy::DynamicThreshold;
use npqm_traffic::pipeline::{PipelineConfig, ShardedPipelineReport};
use npqm_traffic::scale::{run_shard_sweep, ShardScaleConfig, ShardScaleRow};
use npqm_traffic::PipelineBuilder;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn run_rows() -> Vec<ShardScaleRow> {
    run_shard_sweep(&ShardScaleConfig::table7(), &SHARD_COUNTS)
}

fn speedup(rows: &[ShardScaleRow], shards: usize) -> f64 {
    let base = rows[0].segments_per_sec();
    let row = rows
        .iter()
        .find(|r| r.shards == shards)
        .expect("sweep covers this shard count");
    row.segments_per_sec() / base
}

/// The shard-local closed loop: Choudhury–Hahne admission per shard.
fn closed_loop() -> ShardedPipelineReport {
    PipelineBuilder::new(&PipelineConfig::bursty_overload(42))
        .shards(4)
        .admission(|_| DynamicThreshold::new(2.0))
        .egress_spec("drr:1518")
        .run()
}

/// The shared-buffer closed loop: one global LQD over all 4 shards.
fn closed_loop_global() -> ShardedPipelineReport {
    PipelineBuilder::new(&PipelineConfig::bursty_overload(42))
        .shards(4)
        .admission_global_lqd(0)
        .egress_spec("drr:1518")
        .run()
}

/// The per-row gates: accounting, conservation, torn frames.
fn check_determinism(rows: &[ShardScaleRow]) {
    for r in rows {
        check(
            r.offered_pkts == r.admitted_pkts + r.dropped_pkts,
            &format!("{} shards: every offered packet accounted", r.shards),
        );
        check(
            r.conserved,
            &format!(
                "{} shards: byte-level conservation (admitted {} = drained {} + residual {})",
                r.shards, r.admitted_bytes, r.drained_bytes, r.residual_bytes
            ),
        );
        check(
            r.torn_frames == 0,
            &format!("{} shards: zero torn frames", r.shards),
        );
    }
}

fn check_closed_loop(name: &str, report: &ShardedPipelineReport) {
    for (s, sr) in report.shards.iter().enumerate() {
        check(
            sr.offered_pkts == sr.delivered_pkts + sr.dropped_pkts + sr.evicted_pkts,
            &format!("{name} shard {s}: packet conservation"),
        );
        check(
            sr.integrity_violations == 0,
            &format!("{name} shard {s}: frame integrity"),
        );
    }
    let a = &report.aggregate;
    check(
        a.offered_pkts == a.delivered_pkts + a.dropped_pkts + a.evicted_pkts,
        &format!("{name} aggregate: packet conservation"),
    );
}

fn run_check(report_path: Option<&str>) {
    let rows = run_rows();
    check_determinism(&rows);

    let loop_local = closed_loop();
    check_closed_loop("closed loop (shard-local C-H)", &loop_local);
    let loop_global = closed_loop_global();
    check_closed_loop("closed loop (global LQD)", &loop_global);
    check(
        loop_global.aggregate.delivered_bytes >= loop_local.aggregate.delivered_bytes,
        &format!(
            "global LQD goodput >= shard-local C-H ({} vs {} bytes)",
            loop_global.aggregate.delivered_bytes, loop_local.aggregate.delivered_bytes
        ),
    );

    if let Some(path) = report_path {
        let doc = Json::obj([
            ("scale_rows", rows.to_json()),
            ("closed_loop_shard_local", loop_local.to_json()),
            ("closed_loop_global_lqd", loop_global.to_json()),
        ]);
        write_file(path, &doc.without_host().pretty());
    }
    println!("table7 check: PASS");
}

fn print_scale_table(rows: &[ShardScaleRow]) {
    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>10} {:>9} {:>10} {:>10} {:>8} {:>8}",
        "shards",
        "offered",
        "admitted",
        "dropped",
        "delivered",
        "segments",
        "critical",
        "serial",
        "Mseg/s",
        "speedup"
    );
    let base = rows[0].segments_per_sec();
    for r in rows {
        println!(
            "{:>6} {:>9} {:>9} {:>8} {:>10} {:>9} {:>8.2}ms {:>8.2}ms {:>8.2} {:>7.2}x",
            r.shards,
            r.offered_pkts,
            r.admitted_pkts,
            r.dropped_pkts,
            r.delivered_pkts,
            r.segments_processed,
            r.critical_path.as_secs_f64() * 1e3,
            r.serial_time.as_secs_f64() * 1e3,
            r.segments_per_sec() / 1e6,
            r.segments_per_sec() / base,
        );
        assert_eq!(r.torn_frames, 0, "{} shards: torn frames", r.shards);
        assert!(r.conserved, "{} shards: conservation", r.shards);
    }
}

fn print_closed_loop(report: &ShardedPipelineReport) {
    println!(
        "{:>6} {:>9} {:>10} {:>8} {:>9} {:>12}",
        "shard", "offered", "delivered", "dropped", "goodput", "mean delay"
    );
    for (s, sr) in report.shards.iter().enumerate() {
        println!(
            "{:>6} {:>9} {:>10} {:>8} {:>8.3}G {:>10.1}us",
            s,
            sr.offered_pkts,
            sr.delivered_pkts,
            sr.dropped_pkts + sr.evicted_pkts,
            sr.goodput_gbps(),
            sr.latency_ns.mean() / 1000.0,
        );
        assert_eq!(sr.integrity_violations, 0, "shard {s}: torn frames");
    }
    let a = &report.aggregate;
    println!(
        "{:>6} {:>9} {:>10} {:>8} {:>8.3}G {:>10.1}us",
        "all",
        a.offered_pkts,
        a.delivered_pkts,
        a.dropped_pkts + a.evicted_pkts,
        a.goodput_gbps(),
        a.latency_ns.mean() / 1000.0,
    );
    assert_eq!(
        a.offered_pkts,
        a.delivered_pkts + a.dropped_pkts + a.evicted_pkts,
        "aggregate packet conservation"
    );
}

fn main() {
    let cli = Cli::parse("table7");
    if let Some(report) = cli.check_mode() {
        run_check(report.as_deref());
        return;
    }

    let cfg = ShardScaleConfig::table7();
    let rows = run_rows();
    println!("Table 7 (ours): sharded batched engine under Zipf bursty overload");
    println!("=================================================================");
    println!(
        "workload: {} flows (Zipf {}), IMIX sizes, {} KiB aggregate buffer, \
         shard-local C-H admission (alpha {}), {} rounds x {} packets, {:.0}% drain/round",
        cfg.flows,
        cfg.zipf_exponent,
        cfg.total_segments as u64 * cfg.segment_bytes as u64 / 1024,
        cfg.alpha,
        cfg.rounds,
        cfg.packets_per_round,
        cfg.drain_fraction * 100.0,
    );
    println!(
        "model: N independent engines; rate = segments processed / busiest engine's busy time"
    );
    println!();
    print_scale_table(&rows);
    println!();
    println!(
        "headline: {:.2}x at 4 shards, {:.2}x at 8 shards over the serialized 1-shard engine",
        speedup(&rows, 4),
        speedup(&rows, 8),
    );

    let loop_local = closed_loop();
    println!();
    println!("sharded closed loop (4 shards, shard-local C-H, table6's bursty-overload scenario):");
    print_closed_loop(&loop_local);

    let loop_global = closed_loop_global();
    println!();
    println!("sharded closed loop (4 shards, global LQD over a shared buffer):");
    print_closed_loop(&loop_global);
    println!();
    println!(
        "headline: global LQD delivers {:+.1}% bytes vs shard-local C-H over the same \
         aggregate buffer ({} vs {} packets)",
        (loop_global.aggregate.delivered_bytes as f64
            / loop_local.aggregate.delivered_bytes as f64
            - 1.0)
            * 100.0,
        loop_global.aggregate.delivered_pkts,
        loop_local.aggregate.delivered_pkts,
    );

    if let Some(path) = cli.flag_value("--json") {
        let doc = Json::obj([
            ("table", "table7".to_json()),
            ("scale_rows", rows.to_json()),
            ("closed_loop_shard_local", loop_local.to_json()),
            ("closed_loop_global_lqd", loop_global.to_json()),
            host_cores(),
        ]);
        write_file(&path, &doc.pretty());
    }
}
