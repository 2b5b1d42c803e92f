//! Property-based tests on the queue engine's invariants.
//!
//! Strategy: generate random operation sequences against a small engine and
//! check (a) the engine's own structural invariants after every step, and
//! (b) behavioural equivalence against a simple oracle built from
//! `VecDeque<Vec<u8>>` per flow.

use npqm_core::config::FreeListDiscipline;
use npqm_core::manager::SegmentPosition;
use npqm_core::{FlowId, QmConfig, QueueError, QueueManager};
use proptest::prelude::*;
use std::collections::VecDeque;

const FLOWS: u32 = 4;

/// Abstract operation for the oracle comparison.
#[derive(Debug, Clone)]
enum Op {
    EnqueuePacket { flow: u32, len: usize },
    DequeuePacket { flow: u32 },
    DeletePacket { flow: u32 },
    MovePacket { src: u32, dst: u32 },
    AppendHead { flow: u32, len: usize },
    AppendTail { flow: u32, len: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..FLOWS, 1usize..200).prop_map(|(flow, len)| Op::EnqueuePacket { flow, len }),
        (0..FLOWS).prop_map(|flow| Op::DequeuePacket { flow }),
        (0..FLOWS).prop_map(|flow| Op::DeletePacket { flow }),
        (0..FLOWS, 0..FLOWS).prop_map(|(src, dst)| Op::MovePacket { src, dst }),
        (0..FLOWS, 1usize..64).prop_map(|(flow, len)| Op::AppendHead { flow, len }),
        (0..FLOWS, 1usize..64).prop_map(|(flow, len)| Op::AppendTail { flow, len }),
    ]
}

fn payload(tag: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (tag as usize + i) as u8).collect()
}

/// Oracle: per-flow packet queues as plain vectors.
#[derive(Default)]
struct Oracle {
    queues: Vec<VecDeque<Vec<u8>>>,
}

impl Oracle {
    fn new(flows: u32) -> Self {
        Oracle {
            queues: (0..flows).map(|_| VecDeque::new()).collect(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random packet-level operation sequences keep the engine equivalent
    /// to a trivial oracle and never violate structural invariants.
    #[test]
    fn engine_matches_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let cfg = QmConfig::builder()
            .num_flows(FLOWS)
            .num_segments(256)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        let mut oracle = Oracle::new(FLOWS);
        let mut tag = 0u64;

        for op in &ops {
            match *op {
                Op::EnqueuePacket { flow, len } => {
                    tag += 1;
                    let f = FlowId::new(flow);
                    let data = payload(tag, len);
                    match qm.enqueue_packet(f, &data) {
                        Ok(()) => oracle.queues[flow as usize].push_back(data),
                        Err(QueueError::OutOfSegments | QueueError::OutOfPacketRecords) => {
                            // Oracle has unbounded memory: ignore overflow.
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::DequeuePacket { flow } => {
                    let f = FlowId::new(flow);
                    match qm.dequeue_packet(f) {
                        Ok(pkt) => {
                            let expect = oracle.queues[flow as usize].pop_front();
                            prop_assert_eq!(Some(pkt), expect);
                        }
                        Err(QueueError::QueueEmpty { .. }) => {
                            prop_assert!(oracle.queues[flow as usize].is_empty());
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::DeletePacket { flow } => {
                    let f = FlowId::new(flow);
                    match qm.delete_packet(f) {
                        Ok((_segs, bytes)) => {
                            let dropped = oracle.queues[flow as usize].pop_front();
                            prop_assert_eq!(
                                dropped.map(|p| p.len() as u32),
                                Some(bytes)
                            );
                        }
                        Err(QueueError::QueueEmpty { .. }) => {
                            prop_assert!(oracle.queues[flow as usize].is_empty());
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::MovePacket { src, dst } => {
                    match qm.move_packet(FlowId::new(src), FlowId::new(dst)) {
                        Ok(()) => {
                            if src == dst {
                                if oracle.queues[src as usize].len() > 1 {
                                    let p = oracle.queues[src as usize].pop_front().unwrap();
                                    oracle.queues[src as usize].push_back(p);
                                }
                            } else {
                                let p = oracle.queues[src as usize].pop_front().unwrap();
                                oracle.queues[dst as usize].push_back(p);
                            }
                        }
                        Err(QueueError::QueueEmpty { .. }) => {
                            prop_assert!(oracle.queues[src as usize].is_empty());
                        }
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::AppendHead { flow, len } => {
                    tag += 1;
                    let f = FlowId::new(flow);
                    let data = payload(tag, len);
                    match qm.append_head(f, &data) {
                        Ok(_) => {
                            let q = &mut oracle.queues[flow as usize];
                            prop_assert!(!q.is_empty());
                            let head = q.front_mut().unwrap();
                            let mut new = data;
                            new.extend_from_slice(head);
                            *head = new;
                        }
                        Err(QueueError::QueueEmpty { .. }) => {
                            prop_assert!(oracle.queues[flow as usize].is_empty());
                        }
                        Err(QueueError::OutOfSegments) => {}
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
                Op::AppendTail { flow, len } => {
                    tag += 1;
                    let f = FlowId::new(flow);
                    let data = payload(tag, len);
                    match qm.append_tail(f, &data) {
                        Ok(_) => {
                            let q = &mut oracle.queues[flow as usize];
                            prop_assert!(!q.is_empty());
                            q.back_mut().unwrap().extend_from_slice(&data);
                        }
                        Err(QueueError::QueueEmpty { .. }) => {
                            prop_assert!(oracle.queues[flow as usize].is_empty());
                        }
                        Err(QueueError::OutOfSegments) => {}
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
            }
            qm.verify().map_err(|v| {
                TestCaseError::fail(format!("invariant violation after {op:?}: {v}"))
            })?;
        }

        // Drain everything and confirm full equivalence at the end.
        for flow in 0..FLOWS {
            let f = FlowId::new(flow);
            while let Some(expect) = oracle.queues[flow as usize].pop_front() {
                let got = qm.dequeue_packet(f).unwrap();
                prop_assert_eq!(got, expect);
            }
            prop_assert!(qm.is_empty(f));
        }
        let report = qm.verify().unwrap();
        prop_assert_eq!(report.segments_used, 0);
        prop_assert_eq!(report.segments_free, 256);
    }

    /// Enqueue/dequeue round-trips preserve payloads byte-for-byte for any
    /// packet size, under both free-list disciplines.
    #[test]
    fn roundtrip_any_size(
        len in 1usize..2048,
        fifo in any::<bool>(),
        seed in any::<u8>(),
    ) {
        let cfg = QmConfig::builder()
            .num_flows(2)
            .num_segments(64)
            .segment_bytes(64)
            .freelist_discipline(if fifo {
                FreeListDiscipline::Fifo
            } else {
                FreeListDiscipline::Lifo
            })
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        let f = FlowId::new(1);
        let pkt: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed)).collect();
        qm.enqueue_packet(f, &pkt).unwrap();
        prop_assert_eq!(qm.dequeue_packet(f).unwrap(), pkt);
        qm.verify().unwrap();
    }

    /// The free list never double-allocates: alloc/release sequences keep
    /// the live set distinct (checked by verify()'s partition invariant).
    #[test]
    fn freelist_partition_holds(steps in proptest::collection::vec(any::<bool>(), 1..200)) {
        let cfg = QmConfig::builder()
            .num_flows(1)
            .num_segments(16)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        let f = FlowId::new(0);
        for enqueue in steps {
            if enqueue {
                let _ = qm.enqueue(f, &[0xAB; 64], SegmentPosition::Only);
            } else {
                let _ = qm.dequeue(f);
            }
            qm.verify().unwrap();
        }
    }

    /// Byte accounting equals the sum of queued payloads at all times.
    #[test]
    fn byte_accounting(ops in proptest::collection::vec((0..FLOWS, 1usize..150), 1..60)) {
        let cfg = QmConfig::builder()
            .num_flows(FLOWS)
            .num_segments(512)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        let mut expected = vec![0u64; FLOWS as usize];
        for (flow, len) in ops {
            let f = FlowId::new(flow);
            if qm.enqueue_packet(f, &vec![1u8; len]).is_ok() {
                expected[flow as usize] += len as u64;
            }
            prop_assert_eq!(qm.queue_len_bytes(f), expected[flow as usize]);
        }
    }
}

mod open_tail_props {
    //! Packet boundaries survive any interleaving of segment-level SAR
    //! traffic with the structural operations (move / append_tail /
    //! dequeue). This is the property the open-tail corruption bugs
    //! violated: pre-fix, a `move_packet` into an open destination (or a
    //! rotation past an open tail, or an `append_tail` on one) produced
    //! torn frames that dequeued "successfully" with the wrong bytes.

    use npqm_core::manager::SegmentPosition;
    use npqm_core::{FlowId, QmConfig, QueueError, QueueManager};
    use proptest::prelude::*;
    use std::collections::VecDeque;

    const FLOWS: u32 = 3;

    #[derive(Debug, Clone)]
    enum SarOp {
        /// `First` segment: opens a packet (SAR error if one is open).
        Begin {
            flow: u32,
            len: usize,
        },
        /// `Middle` segment: extends the open packet.
        Continue {
            flow: u32,
            len: usize,
        },
        /// `Last` segment: completes the open packet.
        End {
            flow: u32,
            len: usize,
        },
        /// Whole-packet enqueue (SAR error while the flow is open).
        EnqueuePacket {
            flow: u32,
            len: usize,
        },
        MovePacket {
            src: u32,
            dst: u32,
        },
        AppendTail {
            flow: u32,
            len: usize,
        },
        DequeuePacket {
            flow: u32,
        },
    }

    fn op_strategy() -> impl Strategy<Value = SarOp> {
        prop_oneof![
            (0..FLOWS, 1usize..65).prop_map(|(flow, len)| SarOp::Begin { flow, len }),
            (0..FLOWS, 1usize..65).prop_map(|(flow, len)| SarOp::Continue { flow, len }),
            (0..FLOWS, 1usize..65).prop_map(|(flow, len)| SarOp::End { flow, len }),
            (0..FLOWS, 1usize..150).prop_map(|(flow, len)| SarOp::EnqueuePacket { flow, len }),
            (0..FLOWS, 0..FLOWS).prop_map(|(src, dst)| SarOp::MovePacket { src, dst }),
            (0..FLOWS, 1usize..65).prop_map(|(flow, len)| SarOp::AppendTail { flow, len }),
            (0..FLOWS).prop_map(|flow| SarOp::DequeuePacket { flow }),
        ]
    }

    /// Oracle: complete packets per flow, plus the open (mid-SAR) one.
    #[derive(Default)]
    struct Flow {
        complete: VecDeque<Vec<u8>>,
        open: Option<Vec<u8>>,
    }

    fn payload(tag: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (tag as usize + i) as u8).collect()
    }

    fn is_sar(e: &QueueError) -> bool {
        matches!(e, QueueError::SarProtocol { .. })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packet_boundaries_survive_open_tail_interleavings(
            ops in proptest::collection::vec(op_strategy(), 1..150),
        ) {
            let cfg = QmConfig::builder()
                .num_flows(FLOWS)
                .num_segments(1024)
                .segment_bytes(64)
                .build()
                .unwrap();
            let mut qm = QueueManager::new(cfg);
            let mut oracle: Vec<Flow> = (0..FLOWS).map(|_| Flow::default()).collect();
            let mut tag = 0u64;

            for op in &ops {
                match *op {
                    SarOp::Begin { flow, len } => {
                        tag += 1;
                        let data = payload(tag, len);
                        let r = qm.enqueue(FlowId::new(flow), &data, SegmentPosition::First);
                        let o = &mut oracle[flow as usize];
                        if o.open.is_some() {
                            prop_assert!(r.as_ref().is_err_and(is_sar), "{r:?}");
                        } else {
                            prop_assert!(r.is_ok());
                            o.open = Some(data);
                        }
                    }
                    SarOp::Continue { flow, len } => {
                        tag += 1;
                        let data = payload(tag, len);
                        let r = qm.enqueue(FlowId::new(flow), &data, SegmentPosition::Middle);
                        let o = &mut oracle[flow as usize];
                        match &mut o.open {
                            Some(buf) => {
                                prop_assert!(r.is_ok());
                                buf.extend_from_slice(&data);
                            }
                            None => prop_assert!(r.as_ref().is_err_and(is_sar), "{r:?}"),
                        }
                    }
                    SarOp::End { flow, len } => {
                        tag += 1;
                        let data = payload(tag, len);
                        let r = qm.enqueue(FlowId::new(flow), &data, SegmentPosition::Last);
                        let o = &mut oracle[flow as usize];
                        match o.open.take() {
                            Some(mut buf) => {
                                prop_assert!(r.is_ok());
                                buf.extend_from_slice(&data);
                                o.complete.push_back(buf);
                            }
                            None => prop_assert!(r.as_ref().is_err_and(is_sar), "{r:?}"),
                        }
                    }
                    SarOp::EnqueuePacket { flow, len } => {
                        tag += 1;
                        let data = payload(tag, len);
                        let r = qm.enqueue_packet(FlowId::new(flow), &data);
                        let o = &mut oracle[flow as usize];
                        if o.open.is_some() {
                            prop_assert!(r.as_ref().is_err_and(is_sar), "{r:?}");
                        } else {
                            prop_assert!(r.is_ok());
                            o.complete.push_back(data);
                        }
                    }
                    SarOp::MovePacket { src, dst } => {
                        let r = qm.move_packet(FlowId::new(src), FlowId::new(dst));
                        // Engine check order: src emptiness, then dst open.
                        if oracle[src as usize].complete.is_empty() {
                            prop_assert_eq!(
                                r,
                                Err(QueueError::QueueEmpty { flow: FlowId::new(src) })
                            );
                        } else if oracle[dst as usize].open.is_some() {
                            prop_assert!(r.as_ref().is_err_and(is_sar), "{r:?}");
                        } else {
                            prop_assert!(r.is_ok());
                            if src == dst {
                                if oracle[src as usize].complete.len() > 1 {
                                    let p =
                                        oracle[src as usize].complete.pop_front().unwrap();
                                    oracle[src as usize].complete.push_back(p);
                                }
                            } else {
                                let p = oracle[src as usize].complete.pop_front().unwrap();
                                oracle[dst as usize].complete.push_back(p);
                            }
                        }
                    }
                    SarOp::AppendTail { flow, len } => {
                        tag += 1;
                        let data = payload(tag, len);
                        let r = qm.append_tail(FlowId::new(flow), &data);
                        let o = &mut oracle[flow as usize];
                        if o.complete.is_empty() && o.open.is_none() {
                            prop_assert_eq!(
                                r,
                                Err(QueueError::QueueEmpty { flow: FlowId::new(flow) })
                            );
                        } else if o.open.is_some() {
                            prop_assert!(r.as_ref().is_err_and(is_sar), "{r:?}");
                        } else {
                            prop_assert!(r.is_ok());
                            o.complete.back_mut().unwrap().extend_from_slice(&data);
                        }
                    }
                    SarOp::DequeuePacket { flow } => {
                        let r = qm.dequeue_packet(FlowId::new(flow));
                        let o = &mut oracle[flow as usize];
                        match o.complete.pop_front() {
                            Some(expect) => prop_assert_eq!(r.unwrap(), expect),
                            None => prop_assert!(matches!(
                                r,
                                Err(QueueError::QueueEmpty { .. })
                            )),
                        }
                    }
                }
                qm.verify().map_err(|v| {
                    TestCaseError::fail(format!("invariant violation after {op:?}: {v}"))
                })?;
            }

            // Drain: every remaining complete packet comes out intact and
            // in order; the open packets finish and come out intact too.
            for flow in 0..FLOWS {
                let f = FlowId::new(flow);
                if let Some(mut buf) = oracle[flow as usize].open.take() {
                    qm.enqueue(f, &[0xEE], SegmentPosition::Last).unwrap();
                    buf.push(0xEE);
                    oracle[flow as usize].complete.push_back(buf);
                }
                while let Some(expect) = oracle[flow as usize].complete.pop_front() {
                    prop_assert_eq!(qm.dequeue_packet(f).unwrap(), expect);
                }
                prop_assert!(qm.is_empty(f));
            }
            qm.verify().unwrap();
        }
    }
}

mod sched_props {
    use npqm_core::limits::{BufferManager, FlowLimits};
    use npqm_core::sched::{drain_next, from_spec, WeightedRoundRobin};
    use npqm_core::{FlowId, QmConfig, QueueManager};
    use proptest::prelude::*;

    fn engine() -> QueueManager {
        QueueManager::new(
            QmConfig::builder()
                .num_flows(4)
                .num_segments(1024)
                .segment_bytes(64)
                .build()
                .unwrap(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every discipline is work-conserving: as long as any flow has a
        /// complete packet, drain_next serves something, and the union of
        /// everything served equals the union of everything enqueued.
        #[test]
        fn schedulers_are_work_conserving(
            pkts in proptest::collection::vec((0u32..4, 1usize..300), 1..40),
            which in 0u8..4,
        ) {
            let mut qm = engine();
            let mut enqueued: Vec<(u32, usize)> = Vec::new();
            for (flow, len) in pkts {
                if qm.enqueue_packet(FlowId::new(flow), &vec![0u8; len]).is_ok() {
                    enqueued.push((flow, len));
                }
            }
            let spec = match which {
                0 => "sp",
                1 => "wrr:3,1,2,1",
                2 => "drr:64,640,128,1518",
                _ => "htb:cap=100;root,rate=100;t,parent=root,rate=25,ceil=100,flows=0-3",
            };
            let mut sched = from_spec(spec, 4).unwrap();
            let mut served: Vec<(u32, usize)> = Vec::new();
            while let Some((f, pkt)) = drain_next(&mut qm, sched.as_mut()) {
                served.push((f.index(), pkt.len()));
                prop_assert!(served.len() <= enqueued.len(), "served more than offered");
            }
            let mut a = enqueued.clone();
            let mut b = served.clone();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b, "conservation");
            qm.verify().unwrap();
        }

        /// Buffer-manager caps hold at every instant for any interleaving
        /// of policed enqueues and dequeues.
        #[test]
        fn policer_caps_always_hold(
            ops in proptest::collection::vec((0u32..4, 1usize..300, any::<bool>()), 1..120),
            max_bytes in 256u64..2048,
            max_packets in 1u32..12,
        ) {
            let mut qm = engine();
            let bm = BufferManager::new(
                FlowLimits { max_bytes, max_packets },
                0,
            );
            for (flow, len, drain) in ops {
                let f = FlowId::new(flow);
                if drain {
                    let _ = qm.dequeue_packet(f);
                } else {
                    let _ = bm.try_enqueue(&mut qm, f, &vec![1u8; len]);
                }
                for g in 0..4u32 {
                    let g = FlowId::new(g);
                    prop_assert!(qm.queue_len_bytes(g) <= max_bytes);
                    prop_assert!(qm.queue_len_packets(g) <= max_packets);
                }
            }
            qm.verify().unwrap();
        }

        /// Under saturated backlog, WRR packet shares match the weights.
        #[test]
        fn wrr_shares_match_weights(w0 in 1u32..5, w1 in 1u32..5) {
            let mut qm = engine();
            let rounds = 20;
            let total = (w0 + w1) * rounds;
            for _ in 0..total {
                qm.enqueue_packet(FlowId::new(0), &[0; 64]).unwrap();
                qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
            }
            let mut wrr = WeightedRoundRobin::new(vec![w0, w1]);
            let mut counts = [0u32; 2];
            for _ in 0..total {
                let (f, _) = drain_next(&mut qm, &mut wrr).unwrap();
                counts[f.as_usize()] += 1;
            }
            // Both flows stayed backlogged for the whole measurement.
            prop_assert_eq!(counts[0], w0 * rounds, "w0 {} w1 {}", w0, w1);
            prop_assert_eq!(counts[1], w1 * rounds, "w0 {} w1 {}", w0, w1);
        }
    }
}
