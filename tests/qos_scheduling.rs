//! Integration: egress scheduling disciplines over the queue engine,
//! driven by generated traffic.

use npqm::core::limits::{BufferManager, FlowLimits};
use npqm::core::sched::{
    drain_next, DeficitRoundRobin, FlowScheduler, StrictPriority, WeightedRoundRobin,
};
use npqm::core::{FlowId, QmConfig, QueueManager};
use npqm::sim::rng::Xoshiro256pp;
use npqm::traffic::{PipelineBuilder, PipelineConfig};

fn engine(flows: u32) -> QueueManager {
    QueueManager::new(
        QmConfig::builder()
            .num_flows(flows)
            .num_segments(8 * 1024)
            .segment_bytes(64)
            .build()
            .unwrap(),
    )
}

/// A one-byte DRR quantum once gave up after 64 rounds over a backlog, and
/// the closed loop, which re-arms service only on arrivals and
/// completions, stranded 54 packets.
#[test]
fn drr_small_quantum_strands_nothing_in_the_closed_loop() {
    let cfg = PipelineConfig::bursty_overload(7);
    let r = PipelineBuilder::new(&cfg)
        .egress_spec("drr:1")
        .run()
        .aggregate;
    assert_eq!(
        r.offered_pkts,
        r.delivered_pkts + r.dropped_pkts + r.evicted_pkts
    );
}

/// Buffer management + scheduling compose: caps bound the backlog, the
/// scheduler drains what was admitted, nothing leaks.
#[test]
fn policer_plus_scheduler_pipeline() {
    let mut qm = engine(8);
    let bm = BufferManager::new(
        FlowLimits {
            max_bytes: 4096,
            max_packets: 16,
        },
        8,
    );
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let (mut admitted, mut dropped) = (0u64, 0u64);
    for i in 0..2000u32 {
        let flow = FlowId::new(rng.next_below(8) as u32);
        let len = 1 + rng.next_below(1500) as usize;
        match bm.try_enqueue(&mut qm, flow, &vec![(i % 251) as u8; len]) {
            Ok(()) => admitted += 1,
            Err(_) => dropped += 1,
        }
        // Periodically drain two packets via WRR.
        if i % 4 == 0 {
            let mut wrr = WeightedRoundRobin::new(vec![1; 8]);
            for _ in 0..2 {
                let _ = drain_next(&mut qm, &mut wrr);
            }
        }
        // Caps hold at every instant.
        for f in 0..8u32 {
            assert!(qm.queue_len_bytes(FlowId::new(f)) <= 4096);
            assert!(qm.queue_len_packets(FlowId::new(f)) <= 16);
        }
    }
    assert!(
        admitted > 0 && dropped > 0,
        "{admitted} in, {dropped} refused"
    );
    // Drain fully; no leaks.
    let mut sp = StrictPriority::new(8);
    while drain_next(&mut qm, &mut sp).is_some() {}
    let report = qm.verify().unwrap();
    assert_eq!(report.segments_used, 0);
}

/// Strict priority + per-class policing reproduces an 802.1p egress port:
/// high classes get through unconditionally, low classes absorb the loss.
#[test]
fn strict_priority_with_shared_buffer_pressure() {
    let cfg = QmConfig::builder()
        .num_flows(8)
        .num_segments(64) // deliberately tiny shared buffer
        .segment_bytes(64)
        .build()
        .unwrap();
    let mut qm = QueueManager::new(cfg);
    // Premium class 0 gets a guaranteed share via per-flow caps on others.
    let premium = BufferManager::new(FlowLimits::UNLIMITED, 0);
    let capped = BufferManager::new(
        FlowLimits {
            max_bytes: 64 * 4,
            max_packets: 4,
        },
        0,
    );
    let mut rng = Xoshiro256pp::seed_from_u64(4);
    let mut admitted_high = 0;
    let mut offered_high = 0;
    for _ in 0..300 {
        let f = FlowId::new(rng.next_below(8) as u32);
        let bm = if f.index() == 0 { &premium } else { &capped };
        let ok = bm.try_enqueue(&mut qm, f, &[0u8; 64]).is_ok();
        if f.index() == 0 {
            offered_high += 1;
            if ok {
                admitted_high += 1;
            }
        }
        // Keep the high class flowing out.
        let mut sp = StrictPriority::new(8);
        if qm.complete_packets(FlowId::new(0)) > 2 {
            let (f, _) = drain_next(&mut qm, &mut sp).unwrap();
            assert_eq!(f.index(), 0, "strict priority serves class 0 first");
        }
    }
    // Class 0 is effectively lossless: the others' caps reserve room.
    assert!(
        admitted_high as f64 / offered_high as f64 > 0.95,
        "{admitted_high}/{offered_high}"
    );
    qm.verify().unwrap();
}

/// Scheduler trait objects compose (C-OBJECT): disciplines are swappable
/// at runtime, and the `from_spec` registry builds every one of them
/// from a string.
#[test]
fn disciplines_as_trait_objects() {
    use npqm::core::sched::from_spec;

    let mut qm = engine(4);
    for f in 0..4u32 {
        qm.enqueue_packet(FlowId::new(f), &[f as u8; 64]).unwrap();
    }
    let mut disciplines: Vec<Box<dyn FlowScheduler>> = [
        "sp",
        "wrr",
        "drr:64",
        "htb:cap=100;root,rate=100;t,parent=root,rate=25,ceil=100,flows=0-3",
    ]
    .iter()
    .map(|spec| from_spec(spec, 4).expect("registry builds every discipline"))
    .collect();
    for d in &mut disciplines {
        let flow = d.next_flow(&qm).expect("backlog exists");
        assert!(qm.complete_packets(flow) > 0);
    }
}

/// An HTB tree with a single root class and one leaf per flow replays
/// flat DRR byte-for-byte: identical service order and `state_digest`
/// on the same trace, in the direct drain and through the 4-shard
/// closed loop.
#[test]
fn single_root_htb_is_digest_identical_to_flat_drr() {
    use npqm::core::check::state_digest;
    use npqm::core::policy::DynamicThreshold;
    use npqm::core::sched::HtbScheduler;

    // Direct engine drain: one interleaved trace into two engines.
    let mut qm_drr = engine(4);
    let mut qm_htb = engine(4);
    let mut drr = DeficitRoundRobin::new(vec![1518; 4]);
    let mut htb = HtbScheduler::single_root(4, 1518);
    let mut rng = Xoshiro256pp::seed_from_u64(2005);
    for step in 0..400u32 {
        let flow = FlowId::new(rng.next_below(4) as u32);
        let len = 1 + rng.next_below(1500) as usize;
        let _ = qm_drr.enqueue_packet(flow, &vec![step as u8; len]);
        let _ = qm_htb.enqueue_packet(flow, &vec![step as u8; len]);
        if step % 3 == 0 {
            assert_eq!(
                drain_next(&mut qm_drr, &mut drr),
                drain_next(&mut qm_htb, &mut htb),
                "service order diverged at step {step}"
            );
        }
    }
    loop {
        let a = drain_next(&mut qm_drr, &mut drr);
        let b = drain_next(&mut qm_htb, &mut htb);
        assert_eq!(a, b, "service order diverged in the final drain");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(state_digest(&qm_drr), state_digest(&qm_htb));

    // Closed loop: the equivalence survives sharding (4 shards).
    let cfg = PipelineConfig::bursty_overload(2005);
    let report = |htb: bool| {
        let b = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission(|_| DynamicThreshold::new(2.0));
        let b = if htb {
            b.egress(|_| HtbScheduler::single_root(16, 1518))
        } else {
            b.egress_spec("drr:1518")
        };
        format!("{:?}", b.run())
    };
    assert_eq!(
        report(true),
        report(false),
        "htb != drr through the closed loop"
    );
}
