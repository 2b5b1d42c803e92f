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
use npqm_core::telemetry::{DropCause, EventKind, TelemetryConfig, TelemetryReport};
use npqm_sim::time::Picos;
use npqm_traffic::service::{run_service, ServiceConfig, ServiceReport};
use npqm_traffic::{PipelineBuilder, PipelineConfig};
use proptest::prelude::*;

/// Random small steady-state scenario: the `steady_demo` engine with
/// randomized seed, topology, epoch width and duration. Up to 6 ms, so
/// three generators offer about 9,000 arrivals and a case can cross the
/// service's 4096-arrival rounds; still small enough that one run is a
/// few milliseconds of wall clock.
fn small_service_config() -> impl Strategy<Value = ServiceConfig> {
    (
        (0u64..1_000, 1usize..4, 1usize..4), // seed, shards, generators
        (50u64..401, 200u64..6_001),         // epoch µs, duration µs
    )
        .prop_map(|((seed, shards, generators), (epoch_us, duration_us))| {
            let mut cfg = ServiceConfig::steady_demo(seed);
            cfg.shards = shards;
            cfg.generators = generators;
            cfg.epoch = Picos::from_micros(epoch_us);
            cfg.duration = Picos::from_micros(duration_us);
            cfg
        })
}

fn run(cfg: &ServiceConfig) -> ServiceReport {
    let flows = cfg.mix.flows() as usize;
    run_service(
        cfg,
        1,
        |_| DynamicThreshold::new(2.0),
        move |_| from_spec("drr:1518", flows as u32).expect("static spec"),
    )
}

/// A ring no test run fills, so the retained events are the whole stream.
const WHOLE_RUN: usize = 1 << 20;

fn run_traced(cfg: &ServiceConfig) -> ServiceReport {
    let mut cfg = cfg.clone();
    cfg.telemetry = Some(TelemetryConfig::with_ring(WHOLE_RUN));
    run(&cfg)
}

/// The number of `name` events in the trace and the payload bytes they
/// carry.
fn tally(tel: &TelemetryReport, name: &str) -> (u64, u64) {
    let bytes = |kind: &EventKind| match *kind {
        EventKind::Admit { bytes, .. } | EventKind::Drop { bytes, .. } => bytes,
        EventKind::Evict { bytes, .. } | EventKind::Deliver { bytes, .. } => bytes,
        EventKind::SchedSelect { .. } | EventKind::Epoch { .. } => 0,
    };
    let events = tel.events.iter().filter(|e| e.kind.name() == name);
    events.fold((0, 0), |(n, b), e| (n + 1, b + u64::from(bytes(&e.kind))))
}

/// The taxonomy's refusal and push-out totals.
fn ledger_split(tel: &TelemetryReport) -> (u64, u64) {
    let rows = |evicted: bool| {
        let rows = tel
            .taxonomy
            .iter()
            .filter(|r| r.cause.is_eviction() == evicted);
        rows.map(|r| r.bucket.count).sum()
    };
    (rows(false), rows(true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every windowed counter sums exactly to its end-of-run total:
    /// the windows partition the run with nothing counted twice and
    /// nothing dropped between window boundaries.
    #[test]
    fn windows_reconcile_with_totals(cfg in small_service_config()) {
        let r = run(&cfg);
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
        let r = run(&cfg);
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
        let r = run(&cfg);
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
    /// enabling it changes no digest; with a ring that holds the whole
    /// run, the events of each kind reconcile exactly with the report, and
    /// their bytes with the engine's own `QmStats` (via the final metrics
    /// registry); the drop ledger reconciles with the epoch windows' drop
    /// counts; and the merged telemetry report itself is a pure function
    /// of the configuration.
    #[test]
    fn telemetry_reconciles_exactly_and_never_perturbs(cfg in small_service_config()) {
        let plain = run(&cfg);
        let traced = run_traced(&cfg);

        // Zero interference: same digests with telemetry on (the same
        // contract as QueueManager::set_tracing).
        prop_assert_eq!(plain.final_digest, traced.final_digest);
        prop_assert_eq!(&plain.epoch_digests, &traced.epoch_digests);

        let tel = traced.telemetry.as_ref().expect("telemetry enabled");
        let a = &traced.aggregate;

        // The events of each kind reconcile exactly with the report...
        prop_assert_eq!(tel.overflow_events, 0);
        let (admits, admit_bytes) = tally(tel, "admit");
        let (drops, drop_bytes) = tally(tel, "drop");
        prop_assert_eq!(admits, a.offered_pkts - a.dropped_pkts);
        prop_assert_eq!(drops, a.dropped_pkts);
        prop_assert_eq!(tally(tel, "evict").0, a.evicted_pkts);
        prop_assert_eq!(tally(tel, "deliver"), (a.delivered_pkts, a.delivered_bytes));
        prop_assert_eq!(tally(tel, "sched.select").0, a.delivered_pkts);
        // ...and with the engine's own QmStats, snapshotted into the
        // final metrics registry under qm.* names. bytes_out is exact
        // (every drained byte was a delivered byte); bytes_in may exceed
        // the admitted bytes by the partial chunks of engine-refused
        // packets (enqueue_packet rolls the segments back but the
        // op-level counter keeps them), bounded by the refused bytes.
        let fm = &tel.final_metrics;
        let bytes_in = fm.counter_value("qm.bytes_in").expect("qm.* registered");
        prop_assert!(bytes_in >= admit_bytes);
        prop_assert!(bytes_in <= admit_bytes + drop_bytes);
        prop_assert_eq!(fm.counter_value("qm.bytes_out"), Some(a.delivered_bytes));

        // The drop ledger reconciles with the epoch windows' counts.
        let sum = |f: fn(&npqm_traffic::service::EpochWindow) -> u64| -> u64 {
            traced.windows.iter().map(f).sum()
        };
        let windowed = (sum(|w| w.dropped_pkts), sum(|w| w.evicted_pkts));
        prop_assert_eq!(ledger_split(tel), windowed);

        // The merged stream is sorted by (time, shard, seq).
        for pair in tel.events.windows(2) {
            let ka = (pair[0].at, pair[0].shard, pair[0].seq);
            let kb = (pair[1].at, pair[1].shard, pair[1].seq);
            prop_assert!(ka <= kb, "merged trace must be sorted");
        }

        // The whole merged telemetry report — events, ledger, metrics —
        // is a pure function of the configuration.
        let again = run_traced(&cfg);
        prop_assert_eq!(tel, again.telemetry.as_ref().expect("telemetry enabled"));
    }
}

proptest! {
    /// The finite-trace pipeline keeps the same account on every shape —
    /// dense, shard-local sharded, globally admitted: telemetry changes
    /// no field of any shard's report or the aggregate (the one recorder
    /// is the run's, never a shard's), and with a ring that holds the
    /// whole run the events of each kind, the drop ledger and the `qm.*`
    /// final metrics every shape records once, after its loop, reconcile
    /// exactly with the report.
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
            let traced = build().observe(TelemetryConfig::with_ring(WHOLE_RUN)).run();
            prop_assert_eq!(
                format!("{:?}", (&plain.shards, &plain.aggregate)),
                format!("{:?}", (&traced.shards, &traced.aggregate)),
                "{}: telemetry perturbed the run", shape
            );
            let tel = traced.telemetry.as_ref().expect("telemetry enabled");
            let a = &traced.aggregate;
            prop_assert_eq!(tel.overflow_events, 0, "{}", shape);
            let (admits, admit_bytes) = tally(tel, "admit");
            let (drops, drop_bytes) = tally(tel, "drop");
            prop_assert_eq!(admits, a.offered_pkts - a.dropped_pkts, "{}", shape);
            prop_assert_eq!(drops, a.dropped_pkts, "{}", shape);
            prop_assert_eq!(tally(tel, "evict").0, a.evicted_pkts, "{}", shape);
            let delivered = (a.delivered_pkts, a.delivered_bytes);
            prop_assert_eq!(tally(tel, "deliver"), delivered, "{}", shape);
            prop_assert_eq!(tally(tel, "sched.select").0, a.delivered_pkts, "{}", shape);
            prop_assert_eq!(ledger_split(tel), (a.dropped_pkts, a.evicted_pkts), "{}", shape);

            let fm = &tel.final_metrics;
            let metric = |name: &str| fm.counter_value(name);
            // Every admitted packet left the engine exactly once: through
            // egress (a dequeue, its bytes counted out) or by push-out (a
            // packet delete).
            prop_assert_eq!(metric("qm.bytes_out"), Some(a.delivered_bytes), "{}", shape);
            prop_assert_eq!(metric("qm.pkt_deletes"), Some(a.evicted_pkts), "{}", shape);
            let bytes_in = metric("qm.bytes_in").expect("qm.* registered");
            prop_assert!(bytes_in >= admit_bytes, "{}", shape);
            prop_assert!(bytes_in <= admit_bytes + drop_bytes, "{}", shape);
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

/// The always-on service accepts the HTB class tree like any other
/// scheduler, and a single-root tree (one leaf per flow, rate = ceil =
/// capacity) replays the flat DRR service run digest for digest — the
/// degenerate-tree contract holds through the streaming loop too.
#[test]
fn single_root_htb_service_matches_flat_drr() {
    let cfg = ServiceConfig::steady_demo(11);
    let flows = cfg.mix.flows();
    let htb_spec = format!(
        "htb:cap=1000;root,rate=1000,quantum=1518,flows=0-{}",
        flows - 1
    );
    let drr = run(&cfg);
    let htb = run_service(
        &cfg,
        1,
        |_| DynamicThreshold::new(2.0),
        move |_| from_spec(&htb_spec, flows).expect("static spec"),
    );
    assert_eq!(drr.epoch_digests, htb.epoch_digests);
    assert_eq!(drr.final_digest, htb.final_digest);
    assert_eq!(drr.aggregate.delivered_pkts, htb.aggregate.delivered_pkts);
    assert_eq!(drr.aggregate.dropped_pkts, htb.aggregate.dropped_pkts);
}
