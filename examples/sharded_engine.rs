//! The sharded queue engine: flows partitioned across independent
//! engines, each engine's work run and timed through `for_each_shard`.
//!
//! Run with: `cargo run --release --example sharded_engine`
//!
//! The demo routes a Zipf-skewed packet mix into a 4-shard
//! [`ShardedQueueManager`] through shard-local Choudhury–Hahne admission,
//! drains some of it, and prints the per-shard load split plus the
//! critical path versus the serialized cost — the gap is what
//! partitioning flows across engines would buy engines running side by
//! side (the shards here run one after another; the composite is
//! modelled from their busy times). It then lets a global
//! Longest-Queue-Drop admit traffic over all shards at once: the arrival
//! lands on one partition, the push-out victim falls on another.

use npqm::core::policy::{DropPolicy, DynamicThreshold, GlobalLqd};
use npqm::core::shard::ShardedQueueManager;
use npqm::core::{FlowId, QmConfig};
use npqm::sim::rng::Xoshiro256pp;
use npqm::traffic::flows::FlowMix;
use npqm::traffic::size::SizeDistribution;

const SHARDS: usize = 4;
const FLOWS: u32 = 32;

/// One shard's work: its admission policy, the arrivals routed to it,
/// the flows it owns and what it admitted and served.
struct ShardWork {
    policy: DynamicThreshold,
    arrivals: Vec<(FlowId, Vec<u8>)>,
    flows: Vec<FlowId>,
    admitted: usize,
    served: usize,
}

fn main() {
    let cfg = QmConfig::builder()
        .num_flows(FLOWS)
        .num_segments(4096)
        .segment_bytes(64)
        .build()
        .expect("static configuration is valid");
    let mut engine =
        ShardedQueueManager::partitioned(cfg, SHARDS).expect("per-shard buffer is non-empty");
    let mut work: Vec<ShardWork> = (0..SHARDS)
        .map(|s| ShardWork {
            policy: DynamicThreshold::new(2.0),
            arrivals: Vec::new(),
            flows: (0..FLOWS)
                .map(FlowId::new)
                .filter(|&f| engine.shard_of(f) == s)
                .collect(),
            admitted: 0,
            served: 0,
        })
        .collect();

    // A Zipf-skewed IMIX burst, routed to each flow's home shard.
    let mix = FlowMix::zipf(FLOWS, 1.2);
    let sizes = SizeDistribution::Imix;
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    for i in 0..4096 {
        let flow = mix.sample(&mut rng);
        let packet = vec![i as u8; sizes.sample(&mut rng) as usize];
        work[engine.shard_of(flow)].arrivals.push((flow, packet));
    }

    // Each shard offers its arrivals through its own C-H threshold, then
    // drains eight dequeues per flow it owns; every call is timed into
    // that shard's busy time.
    engine.for_each_shard(
        &mut work,
        |_| true,
        |qm, w| {
            for (flow, packet) in &w.arrivals {
                w.admitted += usize::from(w.policy.offer(qm, *flow, packet).is_ok());
            }
            for _ in 0..8 {
                for &flow in &w.flows {
                    w.served += usize::from(qm.dequeue(flow).is_ok());
                }
            }
        },
    );
    let offered: usize = work.iter().map(|w| w.arrivals.len()).sum();
    let admitted: usize = work.iter().map(|w| w.admitted).sum();
    let served: usize = work.iter().map(|w| w.served).sum();
    println!("offered {offered} packets, admitted {admitted} under shard-local C-H thresholds");
    println!("drained {served} segments, 8 dequeues per flow");

    println!("\nper-shard load (independent engines):");
    for s in 0..SHARDS {
        let qm = engine.shard(s);
        let queued: u64 = (0..FLOWS).map(|f| qm.queue_len_bytes(FlowId::new(f))).sum();
        println!(
            "  shard {s}: {:>6} enqueued segs, {:>7} bytes queued, busy {:?}",
            qm.stats().enqueues,
            queued,
            engine.busy_times()[s],
        );
    }
    println!(
        "\ncritical path {:?} vs serialized {:?} — the modelled parallel-engine gap",
        engine.critical_path(),
        engine.serial_time()
    );

    let report = engine.verify().expect("invariants hold");
    println!(
        "verified: {} segments in use across {} shards, {} bytes queued, every shard \
         independently consistent",
        report.segments_used, SHARDS, report.payload_bytes
    );

    // --- global LQD: the shared buffer across partitions -------------
    let small = QmConfig::builder()
        .num_flows(FLOWS)
        .num_segments(32)
        .segment_bytes(64)
        .build()
        .expect("static configuration is valid");
    let mut engine = ShardedQueueManager::new(small, SHARDS);
    let mut lqd = GlobalLqd::shared(&engine, 0);
    let hog = FlowId::new(0);
    // The hog fills the whole shared budget from its home shard (once
    // full, LQD keeps admitting by pushing out the hog's own oldest
    // packet — occupancy stays pinned at the budget).
    for _ in 0..lqd.budget_segments() {
        lqd.offer(&mut engine, hog, &[0u8; 64])
            .expect("the hog always fits by evicting itself");
    }
    let other = (1..FLOWS)
        .map(FlowId::new)
        .find(|&f| engine.shard_of(f) != engine.shard_of(hog))
        .expect("32 flows straddle 4 shards");
    // ...and an arrival homed on another shard still gets in: the
    // globally longest queue pays, across the partition boundary.
    let adm = lqd
        .offer(&mut engine, other, &[1u8; 64])
        .expect("global push-out makes room");
    println!(
        "\nglobal LQD over a {}-segment shared buffer:",
        lqd.budget_segments()
    );
    println!(
        "  arrival on shard {} admitted by evicting {:?} from shard {}",
        engine.shard_of(other),
        adm.evicted,
        engine.shard_of(adm.evicted[0].0),
    );
    engine.verify().expect("invariants hold");
    println!("  verified: every shard consistent, budget respected");
}
