//! The always-on streaming service, live: generators feed
//! bounded per-shard ingress lanes while each shard's service loop
//! reports its epoch windows *as they close* — per-window goodput,
//! latency quantiles and backpressure — with online state snapshots
//! instead of one end-of-run report.
//!
//! Run with: `cargo run --release --example streaming_service`
//!
//! The run is deliberately overloaded (~3× the egress rate), so the
//! drop policy works continuously; backpressure stalls producers on
//! full lanes (counted, never dropped). The same run repeated on one
//! thread proves the service's determinism contract: every epoch digest,
//! the final state digest and the backpressure count are identical.

use npqm::core::policy::DynamicThreshold;
use npqm::core::sched::from_spec;
use npqm::sim::time::Picos;
use npqm::traffic::service::{run_service, run_service_observed, ServiceConfig};

fn main() {
    // The steady-demo scenario, stretched to 5 ms of virtual traffic so
    // the live feed has ~25 epochs to show.
    let mut cfg = ServiceConfig::steady_demo(42);
    cfg.duration = Picos::from_micros(5_000);
    let flows = cfg.mix.flows() as usize;

    println!(
        "streaming service: {} flows over {} shards, {} generators at {:.2} Gbit/s \
         offered vs {:.1} Gbit/s egress, {} us epochs, lanes of {} pkts",
        flows,
        cfg.shards,
        cfg.generators,
        cfg.offered_gbps(),
        cfg.egress_gbps,
        cfg.epoch.as_u64() / 1_000_000,
        cfg.ring_capacity,
    );
    println!();
    println!(
        "{:>5} {:>5} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "shard", "epoch", "offered", "dropped", "deliver", "goodput", "p50", "p99"
    );

    // Four workers with a live observer: each shard prints its window
    // the moment it closes — no end-of-run wait.
    let threaded = run_service_observed(
        &cfg,
        4,
        |_| DynamicThreshold::new(2.0),
        |_| from_spec("drr:1518", flows as u32).expect("static spec"),
        |shard, w| {
            let q = |v: Option<u64>| match v {
                Some(ns) => format!("{:.1}us", ns as f64 / 1e3),
                None => "-".to_string(),
            };
            println!(
                "{:>5} {:>5} {:>8} {:>8} {:>8} {:>8.3}G {:>9} {:>9}",
                shard,
                w.epoch,
                w.offered_pkts,
                w.dropped_pkts + w.evicted_pkts,
                w.delivered_pkts,
                w.goodput_gbps(cfg.epoch),
                q(w.p50_ns()),
                q(w.p99_ns()),
            );
        },
    );

    let a = &threaded.aggregate;
    println!();
    println!(
        "drained: {} offered = {} delivered + {} dropped + {} evicted; \
         {} backpressure stalls; {} torn frames",
        a.offered_pkts,
        a.delivered_pkts,
        a.dropped_pkts,
        a.evicted_pkts,
        threaded.ring_full_events,
        a.integrity_violations,
    );

    // The determinism contract, demonstrated: one thread computes the
    // same digests and the same backpressure, byte for byte.
    let serial = run_service(
        &cfg,
        1,
        |_| DynamicThreshold::new(2.0),
        |_| from_spec("drr:1518", flows as u32).expect("static spec"),
    );
    assert_eq!(threaded.epoch_digests, serial.epoch_digests);
    assert_eq!(threaded.final_digest, serial.final_digest);
    assert_eq!(threaded.ring_full_events, serial.ring_full_events);
    println!(
        "determinism: {} online epoch digests + final {:#018x} identical on \
         one thread",
        threaded.epoch_digests.len(),
        threaded.final_digest,
    );
}
