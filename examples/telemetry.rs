//! Deterministic observability, end to end: the same streaming-service
//! run twice — once plain, once with telemetry enabled — proving the
//! zero-interference contract (identical digests), then reading the
//! artifacts telemetry produced: the virtual-time event trace, the
//! drop-attribution taxonomy and the unified metrics registry.
//!
//! Run with: `cargo run --release --example telemetry`

use npqm::core::policy::DynamicThreshold;
use npqm::core::sched::from_spec;
use npqm::core::telemetry::TelemetryConfig;
use npqm::traffic::service::{run_service, ServiceConfig};

fn main() {
    // The steady-demo scenario (~1 ms of overloaded traffic) with a
    // small event ring so the overflow accounting is visible too.
    let plain_cfg = ServiceConfig::steady_demo(42);
    let mut traced_cfg = plain_cfg.clone();
    traced_cfg.telemetry = Some(TelemetryConfig::with_ring(512));
    let flows = plain_cfg.mix.flows();

    let run = |cfg: &ServiceConfig| {
        run_service(
            cfg,
            2,
            |_| DynamicThreshold::new(2.0),
            |_| from_spec("drr:1518", flows).expect("static spec"),
        )
    };
    let plain = run(&plain_cfg);
    let traced = run(&traced_cfg);

    // The contract that makes telemetry safe to leave on: recording
    // observes the run, it never steers it.
    assert_eq!(plain.final_digest, traced.final_digest);
    assert_eq!(plain.epoch_digests, traced.epoch_digests);
    println!(
        "zero interference: {} epoch digests + final {:#018x} identical with \
         telemetry on",
        traced.epoch_digests.len(),
        traced.final_digest,
    );

    let tel = traced.telemetry.as_ref().expect("telemetry was enabled");

    // 1. The event trace: per-shard rings merged by (virtual time,
    //    shard, seq); what a full ring rotated out is counted, not lost.
    println!();
    println!(
        "trace: {} events recorded, {} retained in the rings (capacity {}/shard), \
         {} rotated out",
        tel.events.len() as u64 + tel.overflow_events,
        tel.events.len(),
        tel.ring_capacity,
        tel.overflow_events,
    );
    for ev in tel.events.iter().take(5) {
        println!(
            "  t={:>9} ps  shard {}  #{:<5} {}",
            ev.at.as_u64(),
            ev.shard,
            ev.seq,
            ev.kind.name(),
        );
    }

    // 2. The drop-attribution ledger: who dropped what, why, and how
    //    full the buffer was at each decision. Split by cause, its rows
    //    reconcile exactly with the run's own report.
    let a = &traced.aggregate;
    let count = |evicted: bool| -> u64 {
        let rows = tel
            .taxonomy
            .iter()
            .filter(|r| r.cause.is_eviction() == evicted);
        rows.map(|r| r.bucket.count).sum()
    };
    assert_eq!(count(false), a.dropped_pkts);
    assert_eq!(count(true), a.evicted_pkts);
    println!();
    println!("drop taxonomy (reconciles exactly with the report):");
    println!(
        "  {:<20} {:<14} {:>8} {:>10} {:>10} {:>8}",
        "policy", "cause", "count", "bytes", "mean-occ", "max-occ"
    );
    for row in &tel.taxonomy {
        println!(
            "  {:<20} {:<14} {:>8} {:>10} {:>10.1} {:>8}",
            row.policy,
            row.cause.label(),
            row.bucket.count,
            row.bucket.bytes,
            row.mean_occupancy(),
            row.bucket.max_occupancy,
        );
    }

    // 3. The metrics registry: engine counters and pointer-memory planes
    //    under stable dotted names, snapshotted at each epoch boundary
    //    and at the end of the run. The engine counted every byte it
    //    delivered.
    println!();
    println!(
        "metrics: {} per-epoch snapshots, {} names in the final registry",
        tel.epoch_metrics.len(),
        tel.final_metrics.len(),
    );
    let bytes_out = tel.final_metrics.counter_value("qm.bytes_out");
    assert_eq!(bytes_out, Some(a.delivered_bytes));
    for name in ["qm.enqueues", "qm.bytes_in", "qm.bytes_out", "ptr.qt_reads"] {
        println!(
            "  {name:<18} = {}",
            tel.final_metrics.counter_value(name).expect("registered"),
        );
    }
}
