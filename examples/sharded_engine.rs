//! The sharded batched queue engine: flows partitioned across
//! independent engines, commands executed in per-shard batches.
//!
//! Run with: `cargo run --release --example sharded_engine`
//!
//! The demo routes a Zipf-skewed packet mix into a 4-shard
//! [`ShardedQueueManager`] through shard-local Choudhury–Hahne admission,
//! drains it with a batch of dequeues, and prints the per-shard load
//! split plus the batch-execution critical path versus the serialized
//! cost — the gap is what partitioning flows across engines would buy
//! engines running side by side (the shards here run one after another;
//! the composite is modelled from their busy times). It then lets a
//! global Longest-Queue-Drop admit traffic over all shards at once: the
//! arrival lands on one partition, the push-out victim falls on another.

use npqm::core::policy::{DynamicThreshold, GlobalLqd};
use npqm::core::shard::{ShardedAdmission, ShardedQueueManager};
use npqm::core::{Command, FlowId, QmConfig};
use npqm::sim::rng::Xoshiro256pp;
use npqm::traffic::flows::FlowMix;
use npqm::traffic::size::SizeDistribution;

const SHARDS: usize = 4;
const FLOWS: u32 = 32;

fn main() {
    let cfg = QmConfig::builder()
        .num_flows(FLOWS)
        .num_segments(4096)
        .segment_bytes(64)
        .build()
        .expect("static configuration is valid");
    let mut engine =
        ShardedQueueManager::partitioned(cfg, SHARDS).expect("per-shard buffer is non-empty");
    let mut adm = ShardedAdmission::from_fn(SHARDS, |_| DynamicThreshold::new(2.0));

    // A Zipf-skewed IMIX burst, offered through shard-local admission.
    let mix = FlowMix::zipf(FLOWS, 1.2);
    let sizes = SizeDistribution::Imix;
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    let arrivals_owned: Vec<(FlowId, Vec<u8>)> = (0..4096)
        .map(|i| {
            (
                mix.sample(&mut rng),
                vec![i as u8; sizes.sample(&mut rng) as usize],
            )
        })
        .collect();
    let arrivals: Vec<(FlowId, &[u8])> = arrivals_owned
        .iter()
        .map(|(f, d)| (*f, d.as_slice()))
        .collect();
    let admitted = adm
        .offer_batch(&mut engine, &arrivals)
        .iter()
        .filter(|r| r.is_ok())
        .count();
    println!(
        "offered {} packets, admitted {admitted} under shard-local C-H thresholds",
        arrivals.len()
    );

    // Drain some of the backlog with a dequeue batch: grouped per shard,
    // executed back-to-back per engine.
    let drain: Vec<Command> = (0..8)
        .flat_map(|_| {
            (0..FLOWS).map(|f| Command::Dequeue {
                flow: FlowId::new(f),
            })
        })
        .collect();
    let served = engine
        .execute_batch(&drain)
        .iter()
        .filter(|r| r.is_ok())
        .count();
    println!("drained {served} segments in one batch of {}", drain.len());

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
