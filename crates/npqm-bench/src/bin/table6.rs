//! Table 6 (ours): buffer-management policy comparison under bursty
//! overload, on the closed-loop simulation pipeline.
//!
//! The paper evaluates the queue-management *mechanisms*; this table
//! exercises the *policies* the related work studies on top of them —
//! static-partition tail drop, Longest Queue Drop (Matsakis: 1.5-
//! competitive for shared-memory switches) and Choudhury–Hahne dynamic
//! thresholds — under the same Zipf-skewed on-off overload. Goodput is
//! delivered payload over the whole run (arrivals plus backlog drain).

//!
//! `table6 --check` runs the machine-checkable golden gates instead of
//! the pretty table: packet conservation and zero torn frames under
//! every policy, and LQD goodput at least matching statically
//! partitioned tail drop. `--json <path>` additionally writes the
//! machine-readable per-policy results (the `BENCH_table6.json` CI
//! artifact, one data point of the per-commit perf trajectory).

use npqm_bench::cli::{check, host_cores, write_file, Cli};
use npqm_bench::json::{Json, ToJson};
use npqm_traffic::pipeline::{compare_policies, PipelineConfig};

fn run_check() {
    let outcomes = compare_policies(&PipelineConfig::bursty_overload(42));
    for o in &outcomes {
        let r = &o.report;
        check(
            r.offered_pkts == r.delivered_pkts + r.dropped_pkts + r.evicted_pkts,
            &format!("{}: packet conservation", o.policy),
        );
        check(
            r.integrity_violations == 0,
            &format!("{}: zero torn frames", o.policy),
        );
    }
    let tail = &outcomes[0];
    let lqd = &outcomes[1];
    check(tail.policy == "tail-drop", "policy order: tail-drop first");
    check(lqd.policy == "lqd", "policy order: lqd second");
    check(
        lqd.report.delivered_bytes >= tail.report.delivered_bytes,
        &format!(
            "lqd goodput >= tail-drop ({} vs {} bytes)",
            lqd.report.delivered_bytes, tail.report.delivered_bytes
        ),
    );
    println!("table6 check: PASS");
}

fn main() {
    let cli = Cli::parse("table6");
    if cli.check_mode().is_some() {
        run_check();
        return;
    }
    let cfg = PipelineConfig::bursty_overload(42);
    let outcomes = compare_policies(&cfg);
    if let Some(path) = cli.flag_value("--json") {
        let doc = Json::obj([
            ("table", "table6".to_json()),
            ("outcomes", outcomes.to_json()),
            host_cores(),
        ]);
        write_file(&path, &doc.pretty());
        println!();
    }

    println!("Table 6 (ours): drop policies under bursty overload");
    println!("===================================================");
    println!(
        "offered ~{:.2} Gbps ({} flows, Zipf 1.2, on-off bursts, IMIX) into a {} KiB \
         shared buffer, egress {:.2} Gbps",
        cfg.offered_gbps(),
        cfg.mix.flows(),
        cfg.qm.data_bytes() / 1024,
        cfg.egress_gbps,
    );
    println!();
    println!(
        "{:<14} {:>9} {:>10} {:>8} {:>8} {:>9} {:>12} {:>12}",
        "policy",
        "offered",
        "delivered",
        "dropped",
        "evicted",
        "goodput",
        "mean delay",
        "max delay"
    );
    for o in &outcomes {
        let r = &o.report;
        println!(
            "{:<14} {:>9} {:>10} {:>8} {:>8} {:>8.3}G {:>10.1}us {:>10.1}us",
            o.policy,
            r.offered_pkts,
            r.delivered_pkts,
            r.dropped_pkts,
            r.evicted_pkts,
            r.goodput_gbps(),
            r.latency_ns.mean() / 1000.0,
            r.latency_ns.max() / 1000.0,
        );
        assert_eq!(
            r.integrity_violations, 0,
            "{}: torn packets delivered",
            o.policy
        );
        assert_eq!(
            r.offered_pkts,
            r.delivered_pkts + r.dropped_pkts + r.evicted_pkts,
            "{}: packets not conserved",
            o.policy
        );
    }

    let tail = &outcomes[0].report;
    let lqd = &outcomes[1].report;
    println!();
    println!(
        "headline: LQD delivers {:+.1}% bytes vs statically partitioned tail drop \
         ({} vs {} packets)",
        (lqd.delivered_bytes as f64 / tail.delivered_bytes as f64 - 1.0) * 100.0,
        lqd.delivered_pkts,
        tail.delivered_pkts,
    );
    assert!(
        lqd.delivered_bytes >= tail.delivered_bytes,
        "LQD goodput fell below tail drop"
    );

    // Per-flow view for the most and least popular flows under LQD: the
    // shared buffer serves the bursts without starving the tail flows.
    println!();
    println!("per-flow delivery under LQD (flow, offered pkts, delivered pkts, drop+evict):");
    for (i, fr) in outcomes[1].report.flows.iter().enumerate() {
        if fr.offered_pkts == 0 {
            continue;
        }
        println!(
            "  flow {i:>2}: {:>7} {:>7} {:>7}",
            fr.offered_pkts,
            fr.delivered_pkts,
            fr.dropped_pkts + fr.evicted_pkts
        );
    }
}
