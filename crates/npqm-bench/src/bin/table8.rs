//! Table 8 (ours): memory-derived queue throughput versus memory
//! organisation — DDR bank count × access scheduler.
//!
//! This is the paper's headline claim made executable end to end: queue
//! management throughput is bounded by the pointer-memory (ZBT SRAM) and
//! data-memory (DDR bank) access patterns, not by abstract operation
//! counts. Each cell runs the same Zipf/IMIX offer/drain workload on a
//! sharded engine with **tracing** enabled; every pointer access and
//! every 64-byte payload burst the engine really performs is replayed
//! through one `PaperTiming` memory channel per shard
//! (`npqm_core::timing`), and the reported rate is
//! `queue ops / busiest channel's modeled time`. Sweeping the bank count
//! under the naive and reordering schedulers reproduces the §3/Table 1
//! trade-off at the *system* level: more banks and smarter scheduling
//! turn directly into queue operations per second.
//!
//! `table8 --check` runs the machine-checkable golden gates instead of
//! the pretty table: byte+pointer conservation on every cell, the
//! reordering scheduler at least as fast as naive at every bank count,
//! modeled ops/sec monotone in the bank count for both schedulers, and a
//! thread-invariant fingerprint (the whole costing pipeline is
//! deterministic). `--json <path>` (without `--check`) writes the rows,
//! the per-commit bench artifact; `--report <path>` writes them without
//! their `host` part (the thread count), which the CI
//! `parallel-determinism` stage diffs across `NPQM_THREADS` values —
//! byte-identical or the build fails.

use npqm_bench::cli::{check, host_cores, write_file, Cli};
use npqm_bench::json::{Json, ToJson};
use npqm_core::timing::TimingConfig;
use npqm_traffic::scale::{
    run_memory_scale, run_memory_sweep, threads_from_env, MemoryScaleRow, ShardScaleConfig,
    TABLE8_BANKS,
};

/// Shards (= independent memory channels) the workload runs on.
const SHARDS: usize = 2;

/// Floor on the ops/sec ratio between consecutive bank counts for the
/// monotonicity gate. The runs are fully deterministic, but doubling the
/// bank count re-stripes every segment, so a hair of non-monotonicity
/// from a re-shuffled conflict pattern is physical, not a regression.
const MONOTONE_TOLERANCE: f64 = 0.99;

fn run_rows(threads: usize) -> Vec<MemoryScaleRow> {
    run_memory_sweep(&ShardScaleConfig::table8(), SHARDS, &TABLE8_BANKS, threads)
}

/// Splits a sweep into (naive, reordering) rows, paired by bank count.
fn by_policy(rows: &[MemoryScaleRow]) -> (Vec<&MemoryScaleRow>, Vec<&MemoryScaleRow>) {
    let naive: Vec<_> = rows.iter().filter(|r| !r.reordering).collect();
    let opt: Vec<_> = rows.iter().filter(|r| r.reordering).collect();
    assert_eq!(naive.len(), TABLE8_BANKS.len());
    assert_eq!(opt.len(), TABLE8_BANKS.len());
    (naive, opt)
}

fn run_check(threads: usize, report_path: Option<&str>) {
    println!("table8 check: NPQM_THREADS={threads}");
    let rows = run_rows(threads);
    for r in &rows {
        let cell = format!(
            "{} banks/{}",
            r.banks,
            if r.reordering { "reordering" } else { "naive" }
        );
        check(
            r.offered_pkts == r.admitted_pkts + r.dropped_pkts,
            &format!("{cell}: every offered packet accounted"),
        );
        check(
            r.conserved,
            &format!(
                "{cell}: byte + pointer conservation (admitted {} = drained {} + residual {})",
                r.admitted_bytes, r.drained_bytes, r.residual_bytes
            ),
        );
        check(
            r.modeled_time.as_u64() > 0,
            &format!("{cell}: modeled time is positive"),
        );
    }
    let (naive, opt) = by_policy(&rows);
    for (n, o) in naive.iter().zip(&opt) {
        check(
            o.ops_per_sec() >= n.ops_per_sec(),
            &format!(
                "{} banks: reordering {:.0} ops/s >= naive {:.0} ops/s",
                n.banks,
                o.ops_per_sec(),
                n.ops_per_sec()
            ),
        );
    }
    for rows in [&naive, &opt] {
        for w in rows.windows(2) {
            let ratio = w[1].ops_per_sec() / w[0].ops_per_sec();
            check(
                ratio >= MONOTONE_TOLERANCE,
                &format!(
                    "{} -> {} banks ({}): ops/sec monotone (ratio {ratio:.3})",
                    w[0].banks,
                    w[1].banks,
                    if w[0].reordering {
                        "reordering"
                    } else {
                        "naive"
                    },
                ),
            );
        }
    }
    // The headline separation: at 8 banks the reordering scheduler and
    // the bank parallelism must actually pay off against 1 bank.
    let one = opt[0];
    let eight = opt.iter().find(|r| r.banks == 8).expect("8-bank cell");
    check(
        eight.ops_per_sec() > one.ops_per_sec() * 1.5,
        &format!(
            "8 banks beat 1 bank by >1.5x ({:.0} vs {:.0} ops/s)",
            eight.ops_per_sec(),
            one.ops_per_sec()
        ),
    );
    // Thread invariance, in-process: one cell re-run serial must produce
    // the identical fingerprint (the cross-process leg is the CI diff of
    // two --report documents at NPQM_THREADS=1 vs 4).
    if threads > 1 {
        let serial = run_memory_scale(
            &ShardScaleConfig::table8(),
            SHARDS,
            1,
            &TimingConfig::paper(8),
        );
        let parallel = rows
            .iter()
            .find(|r| r.banks == 8 && r.reordering)
            .expect("8-bank reordering cell");
        check(
            serial.fingerprint == parallel.fingerprint,
            &format!("8 banks/reordering: fingerprint identical at 1 and {threads} threads"),
        );
    } else {
        println!(
            "table8 check: in-process thread-invariance comparison skipped at \
             NPQM_THREADS=1 (the CI report diff covers it)"
        );
    }

    if let Some(path) = report_path {
        let doc = Json::obj([("memory_rows", rows.to_json())]);
        write_file(path, &doc.without_host().pretty());
    }
    println!("table8 check: PASS");
}

fn print_table(rows: &[MemoryScaleRow]) {
    let cfg = ShardScaleConfig::table8();
    println!(
        "{:>6} {:>11} {:>12} {:>9} {:>12} {:>9} {:>9} {:>9}",
        "banks", "scheduler", "Mops/s", "Gbit/s", "modeled", "conflict", "turnar.", "DDR loss"
    );
    for r in rows {
        println!(
            "{:>6} {:>11} {:>12.3} {:>9.2} {:>10.2}ms {:>9} {:>9} {:>8.1}%",
            r.banks,
            if r.reordering { "reordering" } else { "naive" },
            r.ops_per_sec() / 1e6,
            r.data_gbps(cfg.segment_bytes),
            r.modeled_time.as_secs_f64() * 1e3,
            r.conflict_slots,
            r.turnaround_slots,
            r.ddr_loss() * 100.0,
        );
        assert!(r.conserved, "{} banks: conservation", r.banks);
    }
}

fn main() {
    let cli = Cli::parse("table8");
    let threads = threads_from_env();
    if let Some(report) = cli.check_mode() {
        run_check(threads, report.as_deref());
        return;
    }

    let cfg = ShardScaleConfig::table8();
    let rows = run_rows(threads);
    println!("Table 8 (ours): memory-derived queue throughput vs memory organisation");
    println!("======================================================================");
    println!(
        "workload: {} flows (Zipf {}), IMIX sizes, {} KiB buffer over {SHARDS} shards, \
         {} rounds x {} packets; every pointer access -> ZBT SRAM (200 MHz), every \
         64-byte burst -> DDR banks (40 ns slots, 160 ns reuse)",
        cfg.flows,
        cfg.zipf_exponent,
        cfg.total_segments as u64 * cfg.segment_bytes as u64 / 1024,
        cfg.rounds,
        cfg.packets_per_round,
    );
    println!("model: rate = queue ops / busiest shard channel's modeled time");
    println!();
    print_table(&rows);
    let (naive, opt) = by_policy(&rows);
    let n8 = naive.iter().find(|r| r.banks == 8).expect("8-bank cell");
    let o8 = opt.iter().find(|r| r.banks == 8).expect("8-bank cell");
    println!();
    println!(
        "headline: at 8 banks the reordering scheduler sustains {:+.1}% ops/s over naive; \
         1 -> 16 banks buys {:.2}x (reordering)",
        (o8.ops_per_sec() / n8.ops_per_sec() - 1.0) * 100.0,
        opt.last().unwrap().ops_per_sec() / opt[0].ops_per_sec(),
    );

    if let Some(path) = cli.flag_value("--json") {
        let doc = Json::obj([
            ("table", "table8".to_json()),
            ("memory_rows", rows.to_json()),
            host_cores(),
        ]);
        write_file(&path, &doc.pretty());
    }
}
