//! Thread-parallel sharded execution with work stealing, plus the
//! global LQD over a shared buffer.
//!
//! Run with: `cargo run --release --example parallel_sharded`
//! (set `NPQM_THREADS` to pick the worker count; default 4)
//!
//! The demo builds a deliberately *skewed* batch — one shard's command
//! group an order of magnitude longer than the others — and executes it
//! serially and then on worker threads. The results are byte-identical
//! (that is the executor's determinism contract; the end-state
//! fingerprints printed below prove it), while the steal counter shows
//! idle workers claiming whole groups off the loaded shard's backlog.
//! It then lets a global Longest-Queue-Drop admit traffic over all
//! shards at once: the arrival lands on one partition, the push-out
//! victim falls on another.

use npqm::core::manager::SegmentPosition;
use npqm::core::policy::GlobalLqd;
use npqm::core::shard::ShardedQueueManager;
use npqm::core::{Command, FlowId, QmConfig};

const SHARDS: usize = 4;
const FLOWS: u32 = 32;

fn skewed_batch(engine: &ShardedQueueManager) -> Vec<Command> {
    // Pick the shard that owns flow 0 and hammer it; every other flow
    // contributes a couple of commands to its own shard's group.
    let hog = FlowId::new(0);
    let mut cmds = Vec::new();
    for i in 0..4000u32 {
        cmds.push(Command::Enqueue {
            flow: hog,
            data: vec![i as u8; 64],
            pos: SegmentPosition::Only,
        });
        cmds.push(Command::Dequeue { flow: hog });
    }
    for f in 1..FLOWS {
        cmds.push(Command::Enqueue {
            flow: FlowId::new(f),
            data: vec![f as u8; 128],
            pos: SegmentPosition::Only,
        });
    }
    eprintln!(
        "hog flow 0 lives on shard {}; its group is ~{}x the others",
        engine.shard_of(hog),
        8000 / (FLOWS as usize - 1),
    );
    cmds
}

fn main() {
    let threads = std::env::var("NPQM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let cfg = QmConfig::builder()
        .num_flows(FLOWS)
        .num_segments(4096)
        .segment_bytes(64)
        .build()
        .expect("static configuration is valid");

    let mut serial = ShardedQueueManager::new(cfg, SHARDS);
    let batch = skewed_batch(&serial);
    let serial_results = serial.execute_batch(&batch);

    let mut parallel = ShardedQueueManager::new(cfg, SHARDS);
    let parallel_results = parallel.execute_batch_parallel(&batch, threads);

    assert_eq!(serial_results, parallel_results);
    assert_eq!(serial.state_digest(), parallel.state_digest());
    let ps = parallel.parallel_stats();
    println!(
        "{} commands over {SHARDS} shards, {threads} worker threads ({} cores):",
        batch.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "  {} groups in {} phase(s), {} stolen by idle workers",
        ps.groups, ps.phases, ps.steals
    );
    println!(
        "  byte-identical to serial replay: fingerprint {:#018x} both ways",
        parallel.state_digest()
    );
    println!(
        "  busiest engine {:?} vs serialized total {:?}",
        parallel.critical_path(),
        parallel.serial_time()
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
