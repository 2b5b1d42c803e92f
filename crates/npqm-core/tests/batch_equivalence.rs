//! Property tests: the sharded engine on one shard is the plain engine,
//! and global LQD is a pure function of its arrivals.
//!
//! Over random command vectors (including error paths: empty queues,
//! SAR-protocol violations, cross-queue moves and copies), a
//! **single-shard** [`ShardedQueueManager`] yields byte-identical
//! outcomes *and counters* to the same commands on a plain
//! [`QueueManager`].
//!
//! And two at the policy layer, over random arrival sequences:
//! [`GlobalLqd`] admission over the shared buffer is a pure function of
//! the arrival sequence (identical twice over, conserving the global
//! budget) — and on one shard it *is* [`LongestQueueDrop`] on one engine,
//! decision for decision, open tails and mid-service heads included.

use npqm_core::check::state_digest;
use npqm_core::manager::SegmentPosition;
use npqm_core::policy::{DropPolicy, GlobalLqd};
use npqm_core::shard::ShardedQueueManager;
use npqm_core::{Command, FlowId, LongestQueueDrop, QmConfig, QueueManager};
use proptest::prelude::*;

const FLOWS: u32 = 8;

/// Abstract operation, materialized into one or more [`Command`]s.
#[derive(Debug, Clone)]
enum Op {
    EnqueueOnly { flow: u32, len: usize },
    EnqueuePacket { flow: u32, len: usize },
    StrayMiddle { flow: u32 },
    Dequeue { flow: u32 },
    Read { flow: u32 },
    Overwrite { flow: u32, len: usize },
    OverwriteLen { flow: u32, len: u16 },
    DeleteSegment { flow: u32 },
    DeletePacket { flow: u32 },
    AppendHead { flow: u32, len: usize },
    AppendTail { flow: u32, len: usize },
    Move { src: u32, dst: u32 },
    Copy { src: u32, dst: u32 },
    OverwriteAndMove { src: u32, dst: u32, len: usize },
    OverwriteLenAndMove { src: u32, dst: u32, len: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FLOWS, 1usize..64).prop_map(|(flow, len)| Op::EnqueueOnly { flow, len }),
        (0..FLOWS, 1usize..200).prop_map(|(flow, len)| Op::EnqueuePacket { flow, len }),
        (0..FLOWS).prop_map(|flow| Op::StrayMiddle { flow }),
        (0..FLOWS).prop_map(|flow| Op::Dequeue { flow }),
        (0..FLOWS).prop_map(|flow| Op::Read { flow }),
        (0..FLOWS, 1usize..64).prop_map(|(flow, len)| Op::Overwrite { flow, len }),
        (0..FLOWS, 1u16..80).prop_map(|(flow, len)| Op::OverwriteLen { flow, len }),
        (0..FLOWS).prop_map(|flow| Op::DeleteSegment { flow }),
        (0..FLOWS).prop_map(|flow| Op::DeletePacket { flow }),
        (0..FLOWS, 1usize..32).prop_map(|(flow, len)| Op::AppendHead { flow, len }),
        (0..FLOWS, 1usize..32).prop_map(|(flow, len)| Op::AppendTail { flow, len }),
        (0..FLOWS, 0..FLOWS).prop_map(|(src, dst)| Op::Move { src, dst }),
        (0..FLOWS, 0..FLOWS).prop_map(|(src, dst)| Op::Copy { src, dst }),
        (0..FLOWS, 0..FLOWS, 1usize..64).prop_map(|(src, dst, len)| Op::OverwriteAndMove {
            src,
            dst,
            len
        }),
        (0..FLOWS, 0..FLOWS, 1u16..80).prop_map(|(src, dst, len)| Op::OverwriteLenAndMove {
            src,
            dst,
            len
        }),
    ]
}

fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tag as usize).wrapping_add(i) as u8)
        .collect()
}

/// Expands abstract ops into concrete commands with tagged payloads.
fn materialize(ops: &[Op]) -> Vec<Command> {
    let mut cmds = Vec::new();
    let mut tag = 0u64;
    for op in ops {
        tag += 1;
        match *op {
            Op::EnqueueOnly { flow, len } => cmds.push(Command::Enqueue {
                flow: FlowId::new(flow),
                data: payload(tag, len),
                pos: SegmentPosition::Only,
            }),
            Op::EnqueuePacket { flow, len } => {
                let data = payload(tag, len);
                let n = data.len().div_ceil(64);
                for (i, chunk) in data.chunks(64).enumerate() {
                    cmds.push(Command::Enqueue {
                        flow: FlowId::new(flow),
                        data: chunk.to_vec(),
                        pos: SegmentPosition::from_flags(i == 0, i == n - 1),
                    });
                }
            }
            Op::StrayMiddle { flow } => cmds.push(Command::Enqueue {
                flow: FlowId::new(flow),
                data: payload(tag, 16),
                pos: SegmentPosition::Middle,
            }),
            Op::Dequeue { flow } => cmds.push(Command::Dequeue {
                flow: FlowId::new(flow),
            }),
            Op::Read { flow } => cmds.push(Command::Read {
                flow: FlowId::new(flow),
            }),
            Op::Overwrite { flow, len } => cmds.push(Command::Overwrite {
                flow: FlowId::new(flow),
                data: payload(tag, len),
            }),
            Op::OverwriteLen { flow, len } => cmds.push(Command::OverwriteLen {
                flow: FlowId::new(flow),
                new_len: len,
            }),
            Op::DeleteSegment { flow } => cmds.push(Command::DeleteSegment {
                flow: FlowId::new(flow),
            }),
            Op::DeletePacket { flow } => cmds.push(Command::DeletePacket {
                flow: FlowId::new(flow),
            }),
            Op::AppendHead { flow, len } => cmds.push(Command::AppendHead {
                flow: FlowId::new(flow),
                data: payload(tag, len),
            }),
            Op::AppendTail { flow, len } => cmds.push(Command::AppendTail {
                flow: FlowId::new(flow),
                data: payload(tag, len),
            }),
            Op::Move { src, dst } => cmds.push(Command::Move {
                src: FlowId::new(src),
                dst: FlowId::new(dst),
            }),
            Op::Copy { src, dst } => cmds.push(Command::Copy {
                src: FlowId::new(src),
                dst: FlowId::new(dst),
            }),
            Op::OverwriteAndMove { src, dst, len } => cmds.push(Command::OverwriteAndMove {
                src: FlowId::new(src),
                dst: FlowId::new(dst),
                data: payload(tag, len),
            }),
            Op::OverwriteLenAndMove { src, dst, len } => cmds.push(Command::OverwriteLenAndMove {
                src: FlowId::new(src),
                dst: FlowId::new(dst),
                new_len: len,
            }),
        }
    }
    cmds
}

fn small_cfg() -> QmConfig {
    QmConfig::builder()
        .num_flows(FLOWS)
        .num_segments(128)
        .segment_bytes(64)
        .build()
        .unwrap()
}

/// One step of the 1-shard differential between [`GlobalLqd`] and
/// [`LongestQueueDrop`]: a whole packet through the policy, or a raw
/// segment command behind its back — `First`/`Middle` leave open tails, a
/// single dequeue leaves a mid-service head — so the longest queue is
/// regularly one that may not be evicted.
#[derive(Debug, Clone)]
enum Step {
    Offer { flow: u32, len: usize },
    Raw { flow: u32, pos: SegmentPosition },
    Dequeue { flow: u32 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..FLOWS, 1usize..200).prop_map(|(flow, len)| Step::Offer { flow, len }),
        (0..FLOWS, 1usize..200).prop_map(|(flow, len)| Step::Offer { flow, len }),
        // Whole segments: queues of equal byte length, so victims tie.
        (0..FLOWS, 1usize..4).prop_map(|(flow, n)| Step::Offer { flow, len: 64 * n }),
        (0..FLOWS).prop_map(|flow| Step::Raw {
            flow,
            pos: SegmentPosition::First
        }),
        (0..FLOWS).prop_map(|flow| Step::Raw {
            flow,
            pos: SegmentPosition::Middle
        }),
        (0..FLOWS).prop_map(|flow| Step::Dequeue { flow }),
        (0..FLOWS).prop_map(|flow| Step::Dequeue { flow }),
    ]
}

/// Compares every externally observable queue dimension of two engines.
fn assert_same_queues(a: &QueueManager, b: &QueueManager) {
    for f in 0..FLOWS {
        let flow = FlowId::new(f);
        assert_eq!(a.queue_len_segments(flow), b.queue_len_segments(flow));
        assert_eq!(a.queue_len_packets(flow), b.queue_len_packets(flow));
        assert_eq!(a.queue_len_bytes(flow), b.queue_len_bytes(flow));
        assert_eq!(a.complete_packets(flow), b.complete_packets(flow));
        assert_eq!(a.head_packet_bytes(flow), b.head_packet_bytes(flow));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A 1-shard engine is the plain engine: identical outcomes (every
    /// dequeued byte), identical counters, identical final state.
    #[test]
    fn single_shard_batch_equals_plain_replay(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let cmds = materialize(&ops);
        let mut sharded = ShardedQueueManager::new(small_cfg(), 1);
        let mut plain = QueueManager::new(small_cfg());

        let batch: Vec<_> = cmds.iter().map(|c| sharded.execute(c.clone())).collect();
        let serial: Vec<_> = cmds.iter().map(|c| plain.execute(c.clone())).collect();

        prop_assert_eq!(&batch, &serial, "outcomes must be byte-identical");
        prop_assert_eq!(&sharded.stats(), plain.stats(), "counters must match");
        assert_same_queues(sharded.shard(0), &plain);
        sharded.verify().unwrap();
        plain.verify().unwrap();

        // The drained remainder is identical too: dequeue everything.
        for f in 0..FLOWS {
            let flow = FlowId::new(f);
            loop {
                let x = sharded.shard_mut(0).dequeue(flow);
                let y = plain.dequeue(flow);
                prop_assert_eq!(&x, &y);
                if x.is_err() {
                    break;
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Global LQD over the shared buffer: a pure function of the arrival
    /// sequence (bit-identical on a second run), conserving the global
    /// budget and passing full verification throughout.
    #[test]
    fn global_lqd_is_deterministic_and_budget_bounded(
        arrivals in proptest::collection::vec(
            (0..FLOWS, 1usize..200),
            1..80,
        ),
    ) {
        let budget = 24u32;
        let run = || {
            let mut engine = ShardedQueueManager::new(
                QmConfig::builder()
                    .num_flows(FLOWS)
                    .num_segments(budget)
                    .segment_bytes(64)
                    .build()
                    .unwrap(),
                4,
            );
            let mut lqd = GlobalLqd::new(budget, 0);
            let outcomes: Vec<_> = arrivals
                .iter()
                .enumerate()
                .map(|(i, &(f, len))| {
                    let data = payload(i as u64, len);
                    let r = lqd.offer(&mut engine, FlowId::new(f), &data);
                    assert!(
                        engine.used_segments() <= budget,
                        "global budget exceeded: {} > {budget}",
                        engine.used_segments()
                    );
                    r
                })
                .collect();
            engine.verify().unwrap();
            (outcomes, engine.state_digest())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a, b, "global LQD must be a pure function of the arrivals");
    }

    /// The independent oracle for global LQD: over ONE shard it must be
    /// [`LongestQueueDrop`] on one engine — same decisions (admission or
    /// refusal reason, and the evicted lists), same state — also when the
    /// longest queue is an open tail or a mid-service head and the victim
    /// comes from the fallback scan, byte ties included.
    #[test]
    fn global_lqd_on_one_shard_is_lqd(
        steps in proptest::collection::vec(step_strategy(), 1..160),
    ) {
        let budget = 24u32;
        let cfg = QmConfig::builder()
            .num_flows(FLOWS)
            .num_segments(budget)
            .segment_bytes(64)
            .build()
            .unwrap();
        for reserve in [0u32, 2] {
            let mut engine = ShardedQueueManager::new(cfg, 1);
            let mut global = GlobalLqd::new(budget, reserve);
            let mut qm = QueueManager::new(cfg);
            let mut lqd = LongestQueueDrop::new(reserve);
            for (i, step) in steps.iter().enumerate() {
                match *step {
                    Step::Offer { flow, len } => {
                        let data = payload(i as u64, len);
                        prop_assert_eq!(
                            global.offer(&mut engine, FlowId::new(flow), &data),
                            lqd.offer(&mut qm, FlowId::new(flow), &data),
                            "step {} (reserve {}): {:?}", i, reserve, step
                        );
                    }
                    Step::Raw { flow, pos } => {
                        let data = payload(i as u64, 64);
                        prop_assert_eq!(
                            engine.shard_mut(0).enqueue(FlowId::new(flow), &data, pos),
                            qm.enqueue(FlowId::new(flow), &data, pos)
                        );
                    }
                    Step::Dequeue { flow } => {
                        prop_assert_eq!(
                            engine.shard_mut(0).dequeue(FlowId::new(flow)),
                            qm.dequeue(FlowId::new(flow))
                        );
                    }
                }
                prop_assert_eq!(state_digest(engine.shard(0)), state_digest(&qm));
            }
            engine.verify().unwrap();
            qm.verify().unwrap();
        }
    }
}
