//! Table 10 (ours): the always-on streaming service in steady state —
//! multi-second virtual runs through `npqm_traffic::service` with
//! merged generators, epoch-windowed stats and online verification.
//!
//! The finite-trace tables answer "how fast is one run"; this table
//! answers the service-shaped question: does the engine *sustain* — for
//! seconds of virtual time under ~1.45× overload — bounded memory (the
//! ledger drains), zero torn frames across every online snapshot, and
//! online epoch digests that equal a quiesced stop-the-world run's?
//!
//! `table10 --check` runs the machine-checkable gates instead of the
//! pretty table:
//!
//! * packet conservation and exact window↔total reconciliation (every
//!   windowed counter sums to the end-of-run aggregate);
//! * zero torn frames and a passing invariant walk at *every* epoch
//!   snapshot, on every shard;
//! * bounded memory: every ledger drains (`residual_pkts == 0`);
//! * digest stability: spot-checked online epoch digests equal
//!   [`quiesced_digest`]'s stop-the-world replay.
//!
//! Every gate is a pure function of the seed. The sustained composite
//! rate (segments over the busiest shard's busy time) is reported, not
//! gated: host time is gated by `bench/run.sh` (`svc_steady` is this
//! table's shape).
//!
//! `--json <path>` (without `--check`) writes the per-commit artifact,
//! every host-dependent value under a `host` key; `--report <path>`
//! writes the same report without `host`, which two builds can `cmp`.

use npqm_bench::cli::{check, check_trace_accounts, host_cores, write_file, Cli};
use npqm_bench::json::{telemetry_trace_json, Json, ToJson};
use npqm_core::policy::DynamicThreshold;
use npqm_core::sched::from_spec;
use npqm_core::telemetry::TelemetryConfig;
use npqm_traffic::service::{quiesced_digest, run_service, ServiceConfig, ServiceReport};

fn run(cfg: &ServiceConfig) -> ServiceReport {
    let flows = cfg.mix.flows();
    run_service(
        cfg,
        1,
        |_| DynamicThreshold::new(2.0),
        move |_| from_spec("drr:1518", flows).expect("static spec"),
    )
}

/// Conservation, reconciliation, torn frames, online verification and
/// memory bounds.
fn check_determinism(cfg: &ServiceConfig, r: &ServiceReport) {
    let a = &r.aggregate;
    check(
        a.offered_pkts == a.delivered_pkts + a.dropped_pkts + a.evicted_pkts,
        &format!(
            "aggregate packet conservation ({} offered = {} delivered + {} dropped + {} evicted)",
            a.offered_pkts, a.delivered_pkts, a.dropped_pkts, a.evicted_pkts
        ),
    );
    check(a.integrity_violations == 0, "zero torn frames end-to-end");
    check(
        a.dropped_pkts + a.evicted_pkts > 0,
        "sustained overload actually exercises the drop policy",
    );
    // The last offered-traffic boundary falls exactly at `duration`; a
    // backlog that drains within that final epoch closes no snapshot
    // there, so "all but possibly the last" boundaries must have one.
    let virtual_epochs = cfg.duration.as_u64() / cfg.epoch.as_u64();
    check(
        r.epoch_digests.len() as u64 + 1 >= virtual_epochs,
        &format!(
            "multi-second steady state: {} completed epochs covers the {} \
             offered-traffic epochs",
            r.epoch_digests.len(),
            virtual_epochs
        ),
    );

    // Exact reconciliation: every windowed counter sums to the
    // end-of-run total — the "no event falls between windows" contract.
    let sums =
        |f: fn(&npqm_traffic::service::EpochWindow) -> u64| r.windows.iter().map(f).sum::<u64>();
    check(
        sums(|w| w.offered_pkts) == a.offered_pkts
            && sums(|w| w.offered_bytes) == a.offered_bytes
            && sums(|w| w.dropped_pkts) == a.dropped_pkts
            && sums(|w| w.evicted_pkts) == a.evicted_pkts
            && sums(|w| w.delivered_pkts) == a.delivered_pkts
            && sums(|w| w.delivered_bytes) == a.delivered_bytes,
        "windowed totals reconcile exactly with the final counters",
    );
    check(
        sums(|w| w.latency_ns.count()) == a.delivered_pkts,
        "every delivered packet appears in exactly one window histogram",
    );
    for w in &r.windows {
        let (p50, p99, p999) = (w.p50_ns(), w.p99_ns(), w.p999_ns());
        check(
            p50 <= p99 && p99 <= p999,
            &format!(
                "epoch {}: latency quantiles monotone (p50<=p99<=p999)",
                w.epoch
            ),
        );
    }

    // Online verification: every snapshot on every shard passed the
    // invariant walk with zero torn frames.
    for (s, sh) in r.shards.iter().enumerate() {
        check(
            sh.residual_pkts == 0,
            &format!("shard {s}: ledger fully drained"),
        );
        check(
            sh.snapshots
                .iter()
                .all(|sn| sn.verify_ok && sn.integrity_violations == 0),
            &format!(
                "shard {s}: invariant walk + zero torn frames at all {} epoch snapshots",
                sh.snapshots.len()
            ),
        );
    }
}

/// Digest stability against quiesced replays.
fn check_digest_stability(cfg: &ServiceConfig, r: &ServiceReport) {
    // Quiesced spot checks: the cheapest and the most loaded boundary.
    // (The full per-epoch sweep lives in the service unit tests; each
    // quiesced digest here replays the run up to that boundary.)
    let last = r.epoch_digests.len() as u64 - 1;
    for e in [0, last] {
        let q = quiesced_digest(
            cfg,
            e,
            |_| DynamicThreshold::new(2.0),
            |_| from_spec("drr:1518", cfg.mix.flows()).expect("static spec"),
        );
        check(
            r.epoch_digests[e as usize] == q,
            &format!(
                "epoch {e} online digest equals the quiesced stop-the-world replay \
                 ({:#018x})",
                q
            ),
        );
    }
}

/// `--trace <path>`: runs the table10 workload with telemetry enabled,
/// proves that tracing changed nothing (digest equality against a fresh
/// untraced run), reconciles the drop ledger and the engine's counters
/// exactly with the run's report, and writes the Perfetto-loadable
/// `trace_event` JSON — a pure function of the configuration.
fn run_trace(path: &str) {
    let untraced_cfg = ServiceConfig::table10();
    let mut traced_cfg = untraced_cfg.clone();
    traced_cfg.telemetry = Some(TelemetryConfig::default());
    let traced = run(&traced_cfg);
    let untraced = run(&untraced_cfg);

    // The zero-interference gate: enabled telemetry must not change a
    // single engine transition (same contract as QueueManager tracing).
    check(
        traced.final_digest == untraced.final_digest,
        &format!(
            "tracing changes nothing: final digest {:#018x} equals the untraced run's",
            traced.final_digest
        ),
    );
    check(
        traced.epoch_digests == untraced.epoch_digests,
        &format!(
            "tracing changes nothing: all {} online epoch digests equal the untraced run's",
            traced.epoch_digests.len()
        ),
    );
    check(
        format!("{:?}", traced.aggregate) == format!("{:?}", untraced.aggregate),
        "tracing changes nothing: aggregate report byte-identical to the untraced run",
    );

    let tel = traced
        .telemetry
        .as_ref()
        .expect("traced run carries a telemetry report");

    // Exact reconciliation: the trace is an account of the run, so the
    // ledger and the engine's counters must match the run's report.
    check_trace_accounts(tel, &traced.aggregate);
    check(
        tel.epoch_metrics.len() == traced.epoch_digests.len(),
        "per-epoch metric snapshots were taken at every boundary",
    );

    // Export, and prove the artifact survives a strict parse round trip
    // before writing it (the CI stage re-parses the written file too).
    let doc = telemetry_trace_json(tel, "table10");
    let text = doc.pretty();
    let parsed = Json::parse(&text).expect("trace JSON parses back");
    check(
        parsed == doc,
        &format!(
            "trace JSON round-trips through the strict parser ({} events, {} retained)",
            tel.events.len() as u64 + tel.overflow_events,
            tel.events.len()
        ),
    );
    write_file(path, &text);
    println!("table10 trace: PASS");
}

/// The `--json` artifact; `--report` writes it without its `host` part.
fn document(r: &ServiceReport) -> Json {
    Json::obj([
        ("table", "table10".to_json()),
        ("service", r.to_json()),
        host_cores(),
    ])
}

fn run_check(report_path: Option<&str>) {
    let cfg = ServiceConfig::table10();
    let r = run(&cfg);
    check_determinism(&cfg, &r);
    check_digest_stability(&cfg, &r);
    if let Some(path) = report_path {
        write_file(path, &document(&r).without_host().pretty());
    }
    println!("table10 check: PASS");
}

fn print_pretty(cfg: &ServiceConfig, r: &ServiceReport) {
    println!("Table 10 (ours): always-on streaming service, steady state");
    println!("==========================================================");
    println!(
        "workload: {} flows (Zipf), IMIX sizes, {} generators at {:.2} Gbit/s offered \
         vs {:.1} Gbit/s egress over {} shards, {} ms virtual in {} ms epochs",
        cfg.mix.flows(),
        cfg.generators,
        cfg.offered_gbps(),
        cfg.egress_gbps,
        cfg.shards,
        cfg.duration.as_u64() / 1_000_000_000,
        cfg.epoch.as_u64() / 1_000_000_000,
    );
    println!("model: generators merged in arrival order, shards served in rounds; online snapshots per epoch");
    println!();
    println!(
        "{:>5} {:>9} {:>9} {:>8} {:>9} {:>8} {:>9} {:>9} {:>9}",
        "epoch", "offered", "admitted", "dropped", "delivered", "goodput", "p50", "p99", "p999",
    );
    for w in &r.windows {
        let q = |v: Option<u64>| match v {
            Some(ns) => format!("{:.1}us", ns as f64 / 1e3),
            None => "-".to_string(),
        };
        println!(
            "{:>5} {:>9} {:>9} {:>8} {:>9} {:>7.3}G {:>9} {:>9} {:>9}",
            w.epoch,
            w.offered_pkts,
            w.admitted_pkts,
            w.dropped_pkts + w.evicted_pkts,
            w.delivered_pkts,
            w.goodput_gbps(r.epoch_len),
            q(w.p50_ns()),
            q(w.p99_ns()),
            q(w.p999_ns()),
        );
    }
    println!();
    println!("online snapshots (engine-wide digest per completed epoch):");
    for (e, d) in r.epoch_digests.iter().enumerate() {
        println!("  epoch {e:>2}: {d:#018x}");
    }
    println!("  final:    {:#018x}", r.final_digest);
    println!();
    let a = &r.aggregate;
    println!(
        "headline: {:.2} Mseg/s sustained composite; {} offered = {} delivered + {} \
         dropped + {} evicted; {} torn frames",
        r.segments_per_sec() / 1e6,
        a.offered_pkts,
        a.delivered_pkts,
        a.dropped_pkts,
        a.evicted_pkts,
        a.integrity_violations,
    );
}

fn main() {
    let cli = Cli::parse("table10");
    if let Some(report) = cli.check_mode() {
        run_check(report.as_deref());
        return;
    }
    if let Some(path) = cli.flag_value("--trace") {
        run_trace(&path);
        return;
    }

    let cfg = ServiceConfig::table10();
    let r = run(&cfg);
    print_pretty(&cfg, &r);

    if let Some(path) = cli.flag_value("--json") {
        write_file(&path, &document(&r).pretty());
    }
}
