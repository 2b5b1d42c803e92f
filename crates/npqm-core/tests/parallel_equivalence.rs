//! Property tests: batch execution at any worker count is behaviourally
//! identical to replaying the batch one command (one arrival) at a time
//! — the determinism contract of `shard::parallel`. The serial batch
//! entry points are the one-worker instance of the body under test, so
//! the independent oracle is the one-by-one replay, as in
//! `batch_equivalence.rs`.
//!
//! Three equivalences are checked over random command vectors (including
//! error paths and cross-shard moves/copies, which act as phase
//! barriers):
//!
//! 1. [`ShardedQueueManager::execute_batch_parallel`] at 1, 2, 3, 4 and
//!    8 workers yields byte-identical outcomes, counters and full
//!    engine-state digests to one-by-one
//!    [`ShardedQueueManager::execute`] — and so does the lending drain
//!    [`ShardedQueueManager::dequeue_batch_into`] run on the state the
//!    batch left, against one-by-one `Command::Dequeue`;
//! 2. a batch with a **pathologically long group** on one shard still
//!    matches the replay, *and* the work-stealing path demonstrably
//!    ran (steal counter > 0) — idle workers claimed whole groups off
//!    the loaded backlog;
//! 3. [`ShardedAdmission::offer_batch_parallel`] matches one-by-one
//!    [`ShardedAdmission::offer`] decision for decision, and
//!    [`GlobalLqd`] admission over the shared buffer is a pure function
//!    of the arrival sequence (identical twice over, conserving the
//!    global budget and never evicting an unevictable head) — and on one
//!    shard it *is* [`LongestQueueDrop`] on one engine, decision for
//!    decision, open tails and mid-service heads included.

use npqm_core::check::state_digest;
use npqm_core::manager::SegmentPosition;
use npqm_core::policy::{DropPolicy, GlobalLqd};
use npqm_core::shard::parallel::BatchDrain;
use npqm_core::shard::{ShardedAdmission, ShardedQueueManager};
use npqm_core::{
    Command, DequeuedSegment, DynamicThreshold, FlowId, LongestQueueDrop, Outcome, QmConfig,
    QueueError, QueueManager,
};
use proptest::prelude::*;

const FLOWS: u32 = 8;

/// Abstract operation, materialized into one or more [`Command`]s.
/// Single-queue ops plus the two-queue barriers the parallel executor
/// must sequence correctly.
#[derive(Debug, Clone)]
enum Op {
    EnqueuePacket { flow: u32, len: usize },
    OpenTail { flow: u32 },
    Dequeue { flow: u32 },
    Read { flow: u32 },
    DeletePacket { flow: u32 },
    AppendTail { flow: u32, len: usize },
    Move { src: u32, dst: u32 },
    Copy { src: u32, dst: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FLOWS, 1usize..200).prop_map(|(flow, len)| Op::EnqueuePacket { flow, len }),
        (0..FLOWS, 1usize..200).prop_map(|(flow, len)| Op::EnqueuePacket { flow, len }),
        (0..FLOWS).prop_map(|flow| Op::OpenTail { flow }),
        (0..FLOWS).prop_map(|flow| Op::Dequeue { flow }),
        (0..FLOWS).prop_map(|flow| Op::Dequeue { flow }),
        (0..FLOWS).prop_map(|flow| Op::Read { flow }),
        (0..FLOWS).prop_map(|flow| Op::DeletePacket { flow }),
        (0..FLOWS, 1usize..32).prop_map(|(flow, len)| Op::AppendTail { flow, len }),
        (0..FLOWS, 0..FLOWS).prop_map(|(src, dst)| Op::Move { src, dst }),
        (0..FLOWS, 0..FLOWS).prop_map(|(src, dst)| Op::Copy { src, dst }),
    ]
}

fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (tag as usize).wrapping_add(i) as u8)
        .collect()
}

fn materialize(ops: &[Op]) -> Vec<Command> {
    let mut cmds = Vec::new();
    let mut tag = 0u64;
    for op in ops {
        tag += 1;
        match *op {
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
            Op::OpenTail { flow } => cmds.push(Command::Enqueue {
                flow: FlowId::new(flow),
                data: payload(tag, 24),
                pos: SegmentPosition::First,
            }),
            Op::Dequeue { flow } => cmds.push(Command::Dequeue {
                flow: FlowId::new(flow),
            }),
            Op::Read { flow } => cmds.push(Command::Read {
                flow: FlowId::new(flow),
            }),
            Op::DeletePacket { flow } => cmds.push(Command::DeletePacket {
                flow: FlowId::new(flow),
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

/// Worker counts every equivalence is checked at.
const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

/// The oracle: a fresh engine fed the batch one command at a time.
fn replay(cmds: &[Command]) -> (ShardedQueueManager, Vec<Result<Outcome, QueueError>>) {
    let mut engine = ShardedQueueManager::new(small_cfg(), 4);
    let results = cmds.iter().map(|c| engine.execute(c.clone())).collect();
    (engine, results)
}

/// Full engine equality: aggregate counters, the engine digest and
/// per-shard state digests (payload bytes, queue structure, free lists,
/// operation counters), on an engine that verifies.
fn assert_same_engines(a: &ShardedQueueManager, b: &ShardedQueueManager) {
    assert_eq!(a.num_shards(), b.num_shards());
    assert_eq!(a.stats(), b.stats(), "counters must match");
    assert_eq!(a.state_digest(), b.state_digest());
    a.verify().unwrap();
    for s in 0..a.num_shards() {
        assert_eq!(
            state_digest(a.shard(s)),
            state_digest(b.shard(s)),
            "shard {s} diverged"
        );
    }
}

/// Pointer-memory traffic is part of the determinism contract: the
/// per-shard access counters (and therefore any memory-derived cost) must
/// match the replay exactly, shard by shard, and the verify pass must
/// prove their aggregate is conserved.
fn assert_same_ptr_traffic(parallel: &ShardedQueueManager, serial: &ShardedQueueManager) {
    for s in 0..parallel.num_shards() {
        assert_eq!(
            parallel.shard(s).ptr_counters(),
            serial.shard(s).ptr_counters(),
            "shard {s} pointer traffic diverged"
        );
    }
    assert_eq!(parallel.ptr_counters(), serial.ptr_counters());
    let report = parallel.verify().unwrap();
    assert_eq!(report.ptr, parallel.ptr_counters());
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The core determinism contract, over random batches including
    /// cross-shard barriers, at every worker count.
    #[test]
    fn parallel_batch_equals_serial_replay(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        drain in proptest::collection::vec(0..FLOWS + 1, 0..60),
    ) {
        let cmds = materialize(&ops);
        let (serial, expected) = replay(&cmds);
        // The lending drain that follows the batch: random flows, then
        // every flow once and the one past the table, so idle flows
        // (`QueueEmpty`), the mid-service heads and open tails the batch
        // left behind, and `UnknownFlow` are in every script. Its oracle is
        // the replay engine fed one `Dequeue` command per position.
        let drain: Vec<FlowId> = drain.into_iter().chain(0..=FLOWS).map(FlowId::new).collect();
        let mut drained = serial.clone();
        let expected_drain: Vec<_> = drain
            .iter()
            .map(|&flow| drained.execute(Command::Dequeue { flow }))
            .collect();
        // One drain for every worker count: reuse is part of its contract.
        let mut lent = BatchDrain::new();
        for threads in THREADS {
            let mut parallel = ShardedQueueManager::new(small_cfg(), 4);
            let got = parallel.execute_batch_parallel(&cmds, threads);

            prop_assert_eq!(&got, &expected, "outcomes must be byte-identical");
            assert_same_engines(&parallel, &serial);
            assert_same_ptr_traffic(&parallel, &serial);

            parallel.dequeue_batch_into(&drain, threads, &mut lent);
            prop_assert_eq!(lent.len(), drain.len());
            for (i, (got, want)) in lent.iter().zip(&expected_drain).enumerate() {
                let got = got.map(|seg| {
                    Outcome::Segment(DequeuedSegment {
                        data: seg.data.to_vec(),
                        sop: seg.sop,
                        eop: seg.eop,
                    })
                });
                prop_assert_eq!(&got, want, "drain position {} on {}", i, drain[i]);
            }
            assert_same_engines(&parallel, &drained);
            assert_same_ptr_traffic(&parallel, &drained);
        }
    }

    /// The work-stealing satellite: one shard gets a pathologically long
    /// command group (a hog flow with hundreds of enqueue/dequeue
    /// round-trips prepended to the random tail), run on 2 workers.
    /// (a) stealing occurred — the claim counter handed whole groups to
    /// a worker that had already drained its first; (b) the results
    /// still equal the one-by-one replay exactly.
    #[test]
    fn pathological_group_steals_and_stays_equal(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        hog_round_trips in 100usize..250,
    ) {
        // Flows 0, 1 and 2 live on three different shards (see
        // `routing_is_stable_and_total` in npqm-core); flow 0 is the hog.
        let mut cmds = Vec::new();
        for i in 0..hog_round_trips {
            cmds.push(Command::Enqueue {
                flow: FlowId::new(0),
                data: payload(i as u64, 64),
                pos: SegmentPosition::Only,
            });
            cmds.push(Command::Dequeue { flow: FlowId::new(0) });
        }
        for f in [1u32, 2] {
            cmds.push(Command::Enqueue {
                flow: FlowId::new(f),
                data: payload(f as u64, 64),
                pos: SegmentPosition::Only,
            });
        }
        // Random single-queue tail (drop the two-queue ops so the batch
        // stays one phase — the steal guarantee is per phase).
        cmds.extend(
            materialize(&ops)
                .into_iter()
                .filter(|c| c.secondary_flow().is_none()),
        );

        let (serial, expected) = replay(&cmds);

        let mut parallel = ShardedQueueManager::new(small_cfg(), 4);
        let got = parallel.execute_batch_parallel(&cmds, 2);

        let ps = parallel.parallel_stats();
        prop_assert!(ps.groups >= 3, "flows 0..3 span three shards: {ps:?}");
        prop_assert!(
            ps.steals > 0,
            "2 workers over {} groups must steal at least once: {ps:?}",
            ps.groups
        );
        prop_assert_eq!(&got, &expected, "stolen groups must not reorder results");
        assert_same_engines(&parallel, &serial);
    }

    /// Batched admission matches one-by-one admission decision for
    /// decision, across shard-local Choudhury–Hahne policies.
    #[test]
    fn parallel_admission_equals_serial(
        arrivals in proptest::collection::vec(
            (0..FLOWS, 1usize..180),
            1..120,
        ),
    ) {
        let payloads: Vec<(FlowId, Vec<u8>)> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(f, len))| (FlowId::new(f), payload(i as u64, len)))
            .collect();
        let refs: Vec<(FlowId, &[u8])> =
            payloads.iter().map(|(f, p)| (*f, p.as_slice())).collect();

        let mut e1 = ShardedQueueManager::new(small_cfg(), 4);
        let mut adm1 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.5));
        let expected: Vec<_> = refs.iter().map(|&(f, p)| adm1.offer(&mut e1, f, p)).collect();

        for threads in THREADS {
            let mut e2 = ShardedQueueManager::new(small_cfg(), 4);
            let mut adm2 = ShardedAdmission::from_fn(4, |_| DynamicThreshold::new(1.5));
            let got = adm2.offer_batch_parallel(&mut e2, &refs, threads);

            prop_assert_eq!(&got, &expected);
            assert_same_engines(&e2, &e1);
        }
    }

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
