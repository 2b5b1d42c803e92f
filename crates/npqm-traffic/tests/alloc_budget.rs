//! Allocation budget of the three harnesses that feed the engine: the
//! scale experiment's round loop, the closed-loop pipeline and the
//! streaming service.
//!
//! The paper's §5.3 / Table 3 finding is that the copy, not the pointer
//! work, is what a software queue manager pays for; the host-side twin of
//! that finding is that a harness which allocates per packet costs more
//! than the engine it feeds. Allocation counts repeat exactly from run to
//! run, so they can be budgeted in tier-1 where host time cannot.
//!
//! This file is its own crate, so the counting allocator's `unsafe impl`
//! stays out of the `#![forbid(unsafe_code)]` libraries, and it holds ONE
//! test, so no other test thread allocates while it counts.

use npqm_core::policy::{DynamicThreshold, LongestQueueDrop};
use npqm_core::sched::DeficitRoundRobin;
use npqm_core::QmConfig;
use npqm_sim::time::Picos;
use npqm_traffic::scale::{run_shard_scale, ShardScaleConfig};
use npqm_traffic::service::{run_service, ServiceConfig};
use npqm_traffic::{ArrivalProcess, FlowMix, PipelineBuilder, PipelineConfig, SizeDistribution};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus a call counter.
struct Counting;

// A statistic: nothing else is published through it, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` asks for memory as surely as a fresh one does.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its value with the allocator calls it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Allocator calls per item between a short and a long run of one
/// workload: construction, warm-up and buffer high-water marks are in
/// both and cancel.
fn marginal(short: (u64, u64), long: (u64, u64)) -> f64 {
    let (items_short, allocs_short) = short;
    let (items_long, allocs_long) = long;
    assert!(items_long > items_short, "the long run must do more work");
    allocs_long.saturating_sub(allocs_short) as f64 / (items_long - items_short) as f64
}

#[test]
fn harnesses_allocate_per_round_not_per_packet() {
    // The scale experiment, `table7` shape. Before the round loop kept one
    // arena and drained through a lending batch: 1.48 allocations per
    // offered packet at 1 shard, 1.83 at 4; with both but per-command
    // result slots rebuilt every round, 0.013 and 0.036. With per-shard
    // round state kept for the run, a round allocates nothing on one
    // worker.
    for shards in [1usize, 4] {
        let run = |rounds: u32| {
            let cfg = ShardScaleConfig {
                rounds,
                ..ShardScaleConfig::table7()
            };
            let (row, allocs) = counted(|| run_shard_scale(&cfg, shards, 1));
            assert!(row.conserved && row.torn_frames == 0);
            (row.offered_pkts, allocs)
        };
        let per_pkt = marginal(run(16), run(48));
        assert!(
            per_pkt < 0.001,
            "{shards} shard(s): {per_pkt:.3} allocations per offered packet"
        );
    }

    // The dense closed loop under `DynamicThreshold` + DRR (the default
    // egress). Before deliveries dequeued into the loop's frame buffer:
    // one `Vec` per delivered packet.
    let run = |micros: u64| {
        let cfg = PipelineConfig {
            duration: Picos::from_micros(micros),
            ..PipelineConfig::bursty_overload(42)
        };
        let (report, allocs) = counted(|| {
            PipelineBuilder::new(&cfg)
                .admission(|_| DynamicThreshold::new(2.0))
                .run()
                .aggregate
        });
        assert_eq!(report.integrity_violations, 0);
        (report.delivered_pkts, allocs)
    };
    let per_pkt = marginal(run(2_000), run(6_000));
    assert!(
        per_pkt < 0.05,
        "dense loop: {per_pkt:.3} allocations per delivered packet"
    );

    // The dense loop under LQD, `loop_min64`'s shape on a 512-segment
    // buffer: 64 B every 50 ns into 5 Gbit/s, so once the buffer is full
    // every other arrival pushes a packet out. Before the victims went
    // into a buffer the loop lends: 0.51 allocations per offered packet,
    // one victim list per push-out; since, 0.0005 (per-flow ledgers
    // still reaching new high-water marks).
    let run = |micros: u64| {
        let cfg = PipelineConfig {
            qm: QmConfig::builder()
                .num_flows(256)
                .num_segments(512)
                .segment_bytes(64)
                .build()
                .expect("256 flows, 512 segments of 64 B pass every check of build"),
            arrivals: ArrivalProcess::Cbr {
                interval: Picos::from_nanos(50),
            },
            sizes: SizeDistribution::Fixed(64),
            mix: FlowMix::uniform(256),
            egress_gbps: 5.0,
            duration: Picos::from_micros(micros),
            ..PipelineConfig::small_demo(42)
        };
        let (report, allocs) = counted(|| {
            PipelineBuilder::new(&cfg)
                .admission(|_| LongestQueueDrop::new(0))
                .run()
                .aggregate
        });
        assert_eq!(report.integrity_violations, 0);
        assert!(
            report.evicted_pkts * 3 > report.offered_pkts,
            "push-outs ran"
        );
        (report.offered_pkts, allocs)
    };
    let per_pkt = marginal(run(2_000), run(6_000));
    assert!(
        per_pkt < 0.001,
        "dense LQD loop: {per_pkt:.3} allocations per offered packet"
    );

    // The streaming service under `DynamicThreshold` + DRR, ten epochs
    // at either length, so the per-epoch windows and snapshots cancel.
    // Before the round driver kept its generators' closed flags for the
    // run: 0.0057 allocations per offered packet, one per round; since,
    // 0.0002.
    let run = |micros: u64| {
        let cfg = ServiceConfig {
            duration: Picos::from_micros(micros),
            epoch: Picos::from_micros(micros / 10),
            ..ServiceConfig::steady_demo(42)
        };
        let (report, allocs) = counted(|| {
            run_service(
                &cfg,
                1,
                |_| DynamicThreshold::new(2.0),
                |_| DeficitRoundRobin::new(vec![1518; 8]),
            )
        });
        assert_eq!(report.aggregate.integrity_violations, 0);
        (report.aggregate.offered_pkts, allocs)
    };
    let per_pkt = marginal(run(4_000), run(16_000));
    assert!(
        per_pkt < 0.001,
        "service: {per_pkt:.3} allocations per offered packet"
    );
}
