//! Property-based tests on the engine's payloads, free list and byte
//! counts over random packet mixes on a small engine. The engine's
//! commands themselves, every drop policy's offer (the buffer manager's
//! caps among them) and every `from_spec` scheduler's pick are held to a
//! model of them by the crate's `model` unit tests (random scripts, and
//! the committed corpus in `tests/corpus/`).

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
