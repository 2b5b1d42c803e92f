//! Property-based tests on the engine's payloads, free list and byte
//! counts, and on the schedulers, over random packet mixes on a small
//! engine. The engine's commands themselves, and every drop policy's
//! offer (the buffer manager's caps among them), are held to a model of
//! them by the crate's `model` unit tests (random scripts, and the
//! committed corpus in `tests/corpus/`).

use npqm_core::config::FreeListDiscipline::{Fifo, Lifo};
use npqm_core::manager::SegmentPosition;
use npqm_core::{FlowId, QmConfig, QueueManager};
use proptest::prelude::*;

fn engine(flows: u32, segments: u32, fifo: bool) -> QueueManager {
    let cfg = QmConfig::builder()
        .num_flows(flows)
        .num_segments(segments)
        .segment_bytes(64)
        .freelist_discipline(if fifo { Fifo } else { Lifo })
        .build()
        .unwrap();
    QueueManager::new(cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Enqueue/dequeue round-trips preserve payloads byte-for-byte for any
    /// packet size, under both free-list disciplines.
    #[test]
    fn roundtrip_any_size(len in 1usize..2048, fifo in any::<bool>(), seed in any::<u8>()) {
        let mut qm = engine(2, 64, fifo);
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
        let mut qm = engine(1, 16, false);
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
    fn byte_accounting(ops in proptest::collection::vec((0..4u32, 1usize..150), 1..60)) {
        let mut qm = engine(4, 512, false);
        let mut expected = [0u64; 4];
        for (flow, len) in ops {
            let f = FlowId::new(flow);
            if qm.enqueue_packet(f, &vec![1u8; len]).is_ok() {
                expected[flow as usize] += len as u64;
            }
            prop_assert_eq!(qm.queue_len_bytes(f), expected[flow as usize]);
        }
    }
}

mod sched_props {
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
