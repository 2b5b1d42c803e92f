//! Criterion micro-benchmarks of the host-speed queue engine, including
//! the free-list-discipline ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use npqm_core::config::FreeListDiscipline;
use npqm_core::{FlowId, QmConfig, QueueManager, SegmentPosition};
use std::hint::black_box;

fn engine(discipline: FreeListDiscipline) -> QueueManager {
    let cfg = QmConfig::builder()
        .num_flows(1024)
        .num_segments(64 * 1024)
        .segment_bytes(64)
        .freelist_discipline(discipline)
        .build()
        .unwrap();
    QueueManager::new(cfg)
}

/// The paper's geometry: 32 K queues over 2^20 segments, with a 1518-byte
/// frame standing on every queue. The queues are visited `STRIDE` apart,
/// so consecutive calls touch neither neighbouring queue records nor
/// neighbouring segments, and the 64 MB pool does not fit any cache.
const PAPER_FLOWS: u32 = QmConfig::PAPER_NUM_FLOWS;
const STRIDE: u32 = 12_289; // odd: the walk is a permutation of the queues

fn strided(i: u32) -> FlowId {
    FlowId::new(i.wrapping_mul(STRIDE) % PAPER_FLOWS)
}

fn loaded_paper_engine(frame: &[u8]) -> QueueManager {
    let cfg = QmConfig::builder()
        .num_flows(PAPER_FLOWS)
        .num_segments(1 << 20)
        .build()
        .unwrap();
    let mut qm = QueueManager::new(cfg);
    for i in 0..PAPER_FLOWS {
        qm.enqueue_packet(strided(i), frame).unwrap();
    }
    qm
}

fn bench_enqueue_dequeue(c: &mut Criterion) {
    let mut group = c.benchmark_group("enqueue_dequeue_64B");
    group.throughput(Throughput::Elements(1));
    for (name, d) in [
        ("lifo_freelist", FreeListDiscipline::Lifo),
        ("fifo_freelist", FreeListDiscipline::Fifo),
    ] {
        group.bench_function(name, |b| {
            let mut qm = engine(d);
            let payload = [0xA5u8; 64];
            let mut i = 0u32;
            b.iter(|| {
                let flow = FlowId::new(i % 1024);
                i = i.wrapping_add(1);
                qm.enqueue(flow, black_box(&payload), SegmentPosition::Only)
                    .unwrap();
                black_box(qm.dequeue(flow).unwrap());
            });
        });
    }
    group.finish();
}

fn bench_packet_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_round_trip");
    for size in [64usize, 594, 1518] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            let mut qm = engine(FreeListDiscipline::Lifo);
            let pkt = vec![1u8; size];
            let flow = FlowId::new(7);
            b.iter(|| {
                qm.enqueue_packet(flow, black_box(&pkt)).unwrap();
                black_box(qm.dequeue_packet(flow).unwrap());
            });
        });
    }
    // Each call takes the oldest standing frame (written a lap of 32 K
    // calls ago) and queues a new one behind the walk.
    group.throughput(Throughput::Bytes(1518));
    group.bench_function("1518B_32kq_stride", |b| {
        let pkt = vec![1u8; 1518];
        let mut qm = loaded_paper_engine(&pkt);
        let mut i = 0u32;
        b.iter(|| {
            let flow = strided(i);
            i = i.wrapping_add(1);
            black_box(qm.dequeue_packet(flow).unwrap());
            qm.enqueue_packet(flow, black_box(&pkt)).unwrap();
        });
    });
    group.finish();
}

fn bench_verify(c: &mut Criterion) {
    c.bench_function("verify_32kq_1Mseg_loaded", |b| {
        let qm = loaded_paper_engine(&[1u8; 1518]);
        b.iter(|| black_box(qm.verify().unwrap()));
    });
}

fn bench_move_packet(c: &mut Criterion) {
    c.bench_function("move_packet_o1", |b| {
        let mut qm = engine(FreeListDiscipline::Lifo);
        // A large packet: the move must still be O(1).
        qm.enqueue_packet(FlowId::new(0), &vec![3u8; 4096]).unwrap();
        let mut src = 0u32;
        b.iter(|| {
            let dst = (src + 1) % 8;
            qm.move_packet(FlowId::new(src), FlowId::new(dst)).unwrap();
            src = dst;
        });
    });
}

fn bench_header_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("in_place_ops");
    group.bench_function("overwrite_head", |b| {
        let mut qm = engine(FreeListDiscipline::Lifo);
        let flow = FlowId::new(1);
        qm.enqueue_packet(flow, &[0u8; 64]).unwrap();
        let hdr = [0x42u8; 64];
        b.iter(|| qm.overwrite_head(flow, black_box(&hdr)).unwrap());
    });
    group.bench_function("append_head_then_delete", |b| {
        let mut qm = engine(FreeListDiscipline::Lifo);
        let flow = FlowId::new(1);
        qm.enqueue_packet(flow, &[0u8; 64]).unwrap();
        b.iter_batched(
            || (),
            |()| {
                qm.append_head(flow, black_box(b"HDR")).unwrap();
                qm.delete_segment(flow).unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_schedulers(c: &mut Criterion) {
    use npqm_core::sched::{drain_next, DeficitRoundRobin, StrictPriority, WeightedRoundRobin};
    let mut group = c.benchmark_group("egress_schedulers");
    group.throughput(Throughput::Elements(64));
    group.bench_function("strict_priority_drain_64", |b| {
        b.iter_batched(
            || {
                let mut qm = engine(FreeListDiscipline::Lifo);
                for i in 0..64u32 {
                    qm.enqueue_packet(FlowId::new(i % 8), &[0; 64]).unwrap();
                }
                (qm, StrictPriority::new(8))
            },
            |(mut qm, mut s)| while drain_next(&mut qm, &mut s).is_some() {},
            BatchSize::SmallInput,
        );
    });
    group.bench_function("wrr_drain_64", |b| {
        b.iter_batched(
            || {
                let mut qm = engine(FreeListDiscipline::Lifo);
                for i in 0..64u32 {
                    qm.enqueue_packet(FlowId::new(i % 8), &[0; 64]).unwrap();
                }
                (qm, WeightedRoundRobin::new(vec![4, 3, 3, 2, 2, 1, 1, 1]))
            },
            |(mut qm, mut s)| while drain_next(&mut qm, &mut s).is_some() {},
            BatchSize::SmallInput,
        );
    });
    group.bench_function("drr_drain_64", |b| {
        b.iter_batched(
            || {
                let mut qm = engine(FreeListDiscipline::Lifo);
                for i in 0..64u32 {
                    qm.enqueue_packet(FlowId::new(i % 8), &[0; 64]).unwrap();
                }
                (qm, DeficitRoundRobin::new(vec![1518; 8]))
            },
            |(mut qm, mut s)| while drain_next(&mut qm, &mut s).is_some() {},
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(25)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_enqueue_dequeue,
    bench_packet_sizes,
    bench_verify,
    bench_move_packet,
    bench_header_ops,
    bench_schedulers
}
criterion_main!(benches);
