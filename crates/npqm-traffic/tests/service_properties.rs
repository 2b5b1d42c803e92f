//! Property tests for the streaming service's epoch-windowed stats.
//!
//! The windows are the service's *only* online view of a run, so they
//! must be an exact decomposition of the end-of-run totals — a window
//! that double-counts or leaks a packet would make the live feed lie
//! relative to the final report. These properties drive random small
//! service configurations through [`run_service`] and check that every
//! windowed counter reconciles exactly (no tolerance) with the
//! aggregate, and that the per-window latency quantiles are monotone.

use npqm_core::policy::{DynamicThreshold, LongestQueueDrop};
use npqm_core::sched::from_spec;
use npqm_core::telemetry::{DropCause, TelemetryConfig};
use npqm_sim::time::Picos;
use npqm_traffic::service::{run_service, ServiceConfig, ServiceReport};
use npqm_traffic::{PipelineBuilder, PipelineConfig};
use proptest::prelude::*;

/// Random small steady-state scenario: the `steady_demo` engine with
/// randomized seed, topology, lane capacity, epoch width and duration.
/// Small enough that one run is a few
/// milliseconds of wall clock.
fn small_service_config() -> impl Strategy<Value = ServiceConfig> {
    (
        (0u64..1_000, 1usize..4, 1usize..4, 4usize..65), // seed, shards, generators, ring
        (50u64..401, 200u64..1_501),                     // epoch µs, duration µs
    )
        .prop_map(
            |((seed, shards, generators, ring), (epoch_us, duration_us))| {
                let mut cfg = ServiceConfig::steady_demo(seed);
                cfg.shards = shards;
                cfg.generators = generators;
                cfg.ring_capacity = ring;
                cfg.epoch = Picos::from_micros(epoch_us);
                cfg.duration = Picos::from_micros(duration_us);
                cfg
            },
        )
}

fn run(cfg: &ServiceConfig, threads: usize) -> ServiceReport {
    let flows = cfg.mix.flows() as usize;
    run_service(
        cfg,
        threads,
        |_| DynamicThreshold::new(2.0),
        move |_| from_spec("drr:1518", flows as u32).expect("static spec"),
    )
}

fn run_traced(cfg: &ServiceConfig, threads: usize) -> ServiceReport {
    let mut cfg = cfg.clone();
    cfg.telemetry = Some(TelemetryConfig::with_ring(256));
    run(&cfg, threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every windowed counter sums exactly to its end-of-run total:
    /// the windows partition the run with nothing counted twice and
    /// nothing dropped between window boundaries.
    #[test]
    fn windows_reconcile_with_totals(cfg in small_service_config()) {
        let r = run(&cfg, 1);
        let sum = |f: fn(&npqm_traffic::service::EpochWindow) -> u64| -> u64 {
            r.windows.iter().map(f).sum()
        };
        let a = &r.aggregate;
        prop_assert_eq!(sum(|w| w.offered_pkts), a.offered_pkts);
        prop_assert_eq!(sum(|w| w.offered_bytes), a.offered_bytes);
        prop_assert_eq!(sum(|w| w.dropped_pkts), a.dropped_pkts);
        prop_assert_eq!(sum(|w| w.evicted_pkts), a.evicted_pkts);
        prop_assert_eq!(sum(|w| w.delivered_pkts), a.delivered_pkts);
        prop_assert_eq!(sum(|w| w.delivered_bytes), a.delivered_bytes);
        // Admission is exactly the complement of policy refusals.
        prop_assert_eq!(sum(|w| w.admitted_pkts), a.offered_pkts - a.dropped_pkts);
        // Every delivered packet lands in exactly one window's latency
        // histogram (overflow bucket included in count()).
        prop_assert_eq!(
            sum(|w| w.latency_ns.count()),
            a.delivered_pkts
        );
        // Backpressure stalls are attributed to windows without loss.
        prop_assert_eq!(sum(|w| w.ring_full_events), r.ring_full_events);
        // And the run itself conserves packets: the backlog fully
        // drains, so offered = delivered + dropped + evicted.
        prop_assert_eq!(
            a.offered_pkts,
            a.delivered_pkts + a.dropped_pkts + a.evicted_pkts
        );
        for s in &r.shards {
            prop_assert_eq!(s.residual_pkts, 0);
        }
    }

    /// Latency quantiles are monotone within every window, both in the
    /// merged view and per shard: p50 ≤ p99 ≤ p999 whenever defined.
    #[test]
    fn window_quantiles_monotone(cfg in small_service_config()) {
        let r = run(&cfg, 1);
        let all = r
            .windows
            .iter()
            .chain(r.shards.iter().flat_map(|s| s.windows.iter()));
        for w in all {
            let (p50, p99, p999) = (w.p50_ns(), w.p99_ns(), w.p999_ns());
            prop_assert!(p50 <= p99, "epoch {}: p50 {:?} > p99 {:?}", w.epoch, p50, p99);
            prop_assert!(p99 <= p999, "epoch {}: p99 {:?} > p999 {:?}", w.epoch, p99, p999);
            // A window that delivered nothing has no quantiles at all.
            if w.delivered_pkts == 0 {
                prop_assert_eq!(p999, None);
            }
        }
    }

    /// The per-shard windows decompose the merged windows: summing any
    /// counter across shards for one epoch gives the merged window.
    #[test]
    fn shard_windows_decompose_merged(cfg in small_service_config()) {
        let r = run(&cfg, 1);
        for w in &r.windows {
            let shard_sum = |f: fn(&npqm_traffic::service::EpochWindow) -> u64| -> u64 {
                r.shards
                    .iter()
                    .flat_map(|s| s.windows.iter())
                    .filter(|sw| sw.epoch == w.epoch)
                    .map(f)
                    .sum()
            };
            prop_assert_eq!(shard_sum(|w| w.offered_pkts), w.offered_pkts);
            prop_assert_eq!(shard_sum(|w| w.delivered_pkts), w.delivered_pkts);
            prop_assert_eq!(shard_sum(|w| w.dropped_pkts), w.dropped_pkts);
            prop_assert_eq!(shard_sum(|w| w.evicted_pkts), w.evicted_pkts);
            prop_assert_eq!(
                shard_sum(|w| w.latency_ns.count()),
                w.latency_ns.count()
            );
        }
    }

    /// Telemetry is an exact account of the run and never steers it:
    /// enabling it changes no digest at 1 or 4 threads, the trace event
    /// counts reconcile exactly with the report and the engine's own
    /// `QmStats` (via the final metrics registry), the drop ledger
    /// reconciles with the epoch windows' drop counts, and the merged
    /// telemetry report itself is byte-identical across thread counts.
    #[test]
    fn telemetry_reconciles_exactly_and_never_perturbs(cfg in small_service_config()) {
        let plain = run(&cfg, 1);
        let traced = run_traced(&cfg, 1);
        let threaded = run_traced(&cfg, 4);

        // Zero interference: same digests with telemetry on, serial and
        // threaded (the same contract as QueueManager::set_tracing).
        prop_assert_eq!(plain.final_digest, traced.final_digest);
        prop_assert_eq!(&plain.epoch_digests, &traced.epoch_digests);
        prop_assert_eq!(traced.final_digest, threaded.final_digest);
        prop_assert_eq!(&traced.epoch_digests, &threaded.epoch_digests);

        let tel = traced.telemetry.as_ref().expect("telemetry enabled");
        let a = &traced.aggregate;

        // Trace counts reconcile exactly with the report...
        prop_assert_eq!(tel.counts.drops, a.dropped_pkts);
        prop_assert_eq!(tel.counts.evictions, a.evicted_pkts);
        prop_assert_eq!(tel.counts.deliveries, a.delivered_pkts);
        prop_assert_eq!(tel.counts.delivered_bytes, a.delivered_bytes);
        prop_assert_eq!(tel.counts.admits, a.offered_pkts - a.dropped_pkts);
        // ...and with the engine's own QmStats, snapshotted into the
        // final metrics registry under qm.* names. bytes_out is exact
        // (every drained byte was a delivered byte); bytes_in may exceed
        // admit_bytes by the partial chunks of engine-refused packets
        // (enqueue_packet rolls the segments back but the op-level
        // counter keeps them), bounded by the refused packets' bytes.
        let fm = &tel.final_metrics;
        let bytes_in = fm.counter_value("qm.bytes_in").expect("qm.* registered");
        prop_assert!(bytes_in >= tel.counts.admit_bytes);
        prop_assert!(bytes_in <= tel.counts.admit_bytes + tel.counts.drop_bytes);
        prop_assert_eq!(fm.counter_value("qm.bytes_out"), Some(tel.counts.delivered_bytes));
        prop_assert_eq!(fm.counter_value("trace.deliveries"), Some(a.delivered_pkts));

        // The drop ledger reconciles with the epoch windows' counts.
        let sum = |f: fn(&npqm_traffic::service::EpochWindow) -> u64| -> u64 {
            traced.windows.iter().map(f).sum()
        };
        prop_assert_eq!(tel.refused_pkts, sum(|w| w.dropped_pkts));
        prop_assert_eq!(tel.evicted_pkts, sum(|w| w.evicted_pkts));
        let taxonomy_total: u64 = tel.taxonomy.iter().map(|r| r.bucket.count).sum();
        prop_assert_eq!(taxonomy_total, a.dropped_pkts + a.evicted_pkts);

        // The ring bound holds, exact counts survive any overflow, and
        // the merged stream is sorted by (time, shard, seq).
        prop_assert!(tel.events.len() as u64 <= 256 * cfg.shards as u64);
        prop_assert_eq!(tel.events.len() as u64 + tel.overflow_events, tel.counts.total());
        for pair in tel.events.windows(2) {
            let ka = (pair[0].at, pair[0].shard, pair[0].seq);
            let kb = (pair[1].at, pair[1].shard, pair[1].seq);
            prop_assert!(ka <= kb, "merged trace must be sorted");
        }

        // The whole merged telemetry report — events, ledger, metrics —
        // is a pure function of the configuration.
        prop_assert_eq!(tel, threaded.telemetry.as_ref().expect("telemetry enabled"));
    }
}

proptest! {
    /// The finite-trace pipeline keeps the same account on every shape —
    /// dense, shard-local sharded, globally admitted: telemetry changes
    /// no report field, and the trace counts reconcile exactly with the
    /// report and with the `trace.*` / `qm.*` final metrics every shape
    /// now records once, after its loop.
    #[test]
    fn pipeline_telemetry_reconciles_on_every_shape(
        seed in 0u64..1_000,
        duration_us in 50u64..400,
    ) {
        let mut cfg = PipelineConfig::bursty_overload(seed);
        cfg.duration = Picos::from_micros(duration_us);
        for shape in ["shards(1)", "shards(4)", "global-lqd"] {
            let build = || {
                let b = PipelineBuilder::new(&cfg).admission(|_| LongestQueueDrop::new(0));
                match shape {
                    "shards(1)" => b,
                    "shards(4)" => b.shards(4),
                    _ => b.shards(4).admission_global_lqd(0),
                }
            };
            let plain = build().run();
            let traced = build().observe(TelemetryConfig::with_ring(256)).run();
            prop_assert_eq!(
                format!("{:?}", plain.aggregate),
                format!("{:?}", traced.aggregate),
                "{}: telemetry perturbed the run", shape
            );
            let tel = traced.telemetry.as_ref().expect("telemetry enabled");
            let a = &traced.aggregate;
            prop_assert_eq!(tel.counts.drops, a.dropped_pkts, "{}", shape);
            prop_assert_eq!(tel.counts.evictions, a.evicted_pkts, "{}", shape);
            prop_assert_eq!(tel.counts.deliveries, a.delivered_pkts, "{}", shape);
            prop_assert_eq!(tel.counts.delivered_bytes, a.delivered_bytes, "{}", shape);
            prop_assert_eq!(tel.counts.admits, a.offered_pkts - a.dropped_pkts, "{}", shape);
            prop_assert_eq!(tel.refused_pkts, a.dropped_pkts, "{}", shape);
            prop_assert_eq!(tel.evicted_pkts, a.evicted_pkts, "{}", shape);

            let fm = &tel.final_metrics;
            let metric = |name: &str| fm.counter_value(name);
            prop_assert_eq!(metric("trace.admits"), Some(tel.counts.admits), "{}", shape);
            prop_assert_eq!(metric("trace.drops"), Some(a.dropped_pkts), "{}", shape);
            prop_assert_eq!(metric("trace.evictions"), Some(a.evicted_pkts), "{}", shape);
            prop_assert_eq!(metric("trace.deliveries"), Some(a.delivered_pkts), "{}", shape);
            // Every admitted packet left the engine exactly once: through
            // egress (a dequeue, its bytes counted out) or by push-out (a
            // packet delete).
            prop_assert_eq!(metric("qm.bytes_out"), Some(a.delivered_bytes), "{}", shape);
            prop_assert_eq!(metric("qm.pkt_deletes"), Some(a.evicted_pkts), "{}", shape);
            let bytes_in = metric("qm.bytes_in").expect("qm.* registered");
            prop_assert!(bytes_in >= tel.counts.admit_bytes, "{}", shape);
            prop_assert!(bytes_in <= tel.counts.admit_bytes + tel.counts.drop_bytes, "{}", shape);
        }
    }
}

/// Push-out evictions are attributed in the ledger: under LQD the
/// overloaded demo evicts, every eviction lands in the `push-out`
/// taxonomy row under the policy's name, and the totals still reconcile.
#[test]
fn eviction_ledger_attributes_push_outs() {
    let mut cfg = ServiceConfig::steady_demo(13);
    cfg.telemetry = Some(TelemetryConfig::default());
    let flows = cfg.mix.flows();
    let r = run_service(
        &cfg,
        1,
        |_| LongestQueueDrop::new(0),
        move |_| from_spec("drr:1518", flows).expect("static spec"),
    );
    let tel = r.telemetry.as_ref().expect("telemetry enabled");
    let a = &r.aggregate;
    assert!(a.evicted_pkts > 0, "LQD under overload must evict");
    assert_eq!(tel.evicted_pkts, a.evicted_pkts);
    assert_eq!(tel.counts.evictions, a.evicted_pkts);
    let push_out: Vec<_> = tel
        .taxonomy
        .iter()
        .filter(|row| row.cause == DropCause::PushOut)
        .collect();
    assert_eq!(push_out.len(), 1, "one policy, one push-out row");
    assert_eq!(push_out[0].policy, "lqd");
    assert_eq!(push_out[0].bucket.count, a.evicted_pkts);
    assert!(
        push_out[0].bucket.max_occupancy > 0,
        "evictions happen against a loaded buffer"
    );
}

/// The reconciliation also holds on 2 threads, whose deterministic
/// outputs must match the one-thread run byte for byte.
#[test]
fn threaded_windows_match_serial() {
    let cfg = ServiceConfig::steady_demo(7);
    let serial = run(&cfg, 1);
    let threaded = run(&cfg, 2);
    assert_eq!(serial.epoch_digests, threaded.epoch_digests);
    assert_eq!(serial.final_digest, threaded.final_digest);
    assert_eq!(serial.windows.len(), threaded.windows.len());
    for (a, b) in serial.windows.iter().zip(&threaded.windows) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.offered_pkts, b.offered_pkts);
        assert_eq!(a.delivered_pkts, b.delivered_pkts);
        assert_eq!(a.dropped_pkts, b.dropped_pkts);
        assert_eq!(a.evicted_pkts, b.evicted_pkts);
        assert_eq!(a.p999_ns(), b.p999_ns());
    }
}

/// The always-on service accepts the HTB class tree like any other
/// scheduler, and a single-root tree (one leaf per flow, rate = ceil =
/// capacity) replays the flat DRR service run digest for digest — the
/// degenerate-tree contract holds through the streaming loop too, at
/// any thread count.
#[test]
fn single_root_htb_service_matches_flat_drr() {
    let cfg = ServiceConfig::steady_demo(11);
    let flows = cfg.mix.flows();
    let htb_spec = format!(
        "htb:cap=1000;root,rate=1000,quantum=1518,flows=0-{}",
        flows - 1
    );
    for threads in [1usize, 2] {
        let drr = run_service(
            &cfg,
            threads,
            |_| DynamicThreshold::new(2.0),
            move |_| from_spec("drr:1518", flows).expect("static spec"),
        );
        let spec = htb_spec.clone();
        let htb = run_service(
            &cfg,
            threads,
            |_| DynamicThreshold::new(2.0),
            move |_| from_spec(&spec, flows).expect("static spec"),
        );
        assert_eq!(drr.epoch_digests, htb.epoch_digests);
        assert_eq!(drr.final_digest, htb.final_digest);
        assert_eq!(drr.aggregate.delivered_pkts, htb.aggregate.delivered_pkts);
        assert_eq!(drr.aggregate.dropped_pkts, htb.aggregate.dropped_pkts);
    }
}
