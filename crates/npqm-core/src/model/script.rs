//! What the model and the engine are stepped through: the [`Step`] vocabulary,
//! [`apply`], the one script generator ([`Scripts`]) and the committed
//! [`CORPUS`]. It reaches the engine only through its public API, so the
//! integration tests replay the same corpus (`tests/open_tail_regressions.rs`
//! includes this file).

use npqm_core::command::{Command, Outcome};
use npqm_core::config::{FreeListDiscipline, QmConfig};
use npqm_core::error::QueueError;
use npqm_core::id::FlowId;
use npqm_core::manager::{DequeuedSegment, SegmentPosition};
use npqm_core::shard::ShardedQueueManager;
use npqm_sim::rng::Xoshiro256pp;
use proptest::Strategy;
use FreeListDiscipline::{Fifo, Lifo};
use SegmentPosition::{First, Last, Middle, Only};
use Step::*;

pub(crate) type Res<T> = Result<T, QueueError>;

/// One public engine call, named after the `QueueManager` method. The
/// fields are the flow (`src`, `dst` for two queues), then a payload
/// length, a `work`, a [`SegmentPosition`] or a lending buffer: the payload
/// is `len` bytes counting up from the step's index in its script, and
/// `Some(n)` makes the lending (`_into`) call into a buffer that already
/// holds `n` bytes. A call that is a [`Command`] goes through
/// [`ShardedQueueManager::execute`], any other to the flow's home shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Enqueue(u32, usize, SegmentPosition),
    /// `enqueue_packet_with_work`, which at `work` 0 is `enqueue_packet`.
    EnqueuePacket(u32, usize, u32),
    SetTailWork(u32, u32),
    Dequeue(u32, Option<usize>),
    DequeuePacket(u32, Option<usize>),
    PeekPacket(u32, Option<usize>),
    ReadHead(u32),
    OverwriteHead(u32, usize),
    OverwriteHeadLen(u32, usize),
    DeleteSegment(u32),
    DeletePacket(u32),
    AppendHead(u32, usize),
    AppendTail(u32, usize),
    MovePacket(u32, u32),
    CopyPacket(u32, u32),
    OverwriteAndMove(u32, u32, usize),
    OverwriteLenAndMove(u32, u32, usize),
    /// `longest_queue` on the flow's home shard.
    LongestQueue(u32),
}

impl Step {
    /// The step's flow, or its `src` and `dst`, and its payload length.
    pub(crate) fn parts(self) -> (FlowId, FlowId, usize) {
        let (src, dst, len) = match self {
            Enqueue(flow, len, _) | EnqueuePacket(flow, len, _) => (flow, flow, len),
            OverwriteHead(flow, len) | OverwriteHeadLen(flow, len) => (flow, flow, len),
            AppendHead(flow, len) | AppendTail(flow, len) => (flow, flow, len),
            SetTailWork(flow, _) | Dequeue(flow, _) | DequeuePacket(flow, _) => (flow, flow, 0),
            PeekPacket(flow, _) | ReadHead(flow) | LongestQueue(flow) => (flow, flow, 0),
            DeleteSegment(flow) | DeletePacket(flow) => (flow, flow, 0),
            MovePacket(src, dst) | CopyPacket(src, dst) => (src, dst, 0),
            OverwriteAndMove(src, dst, len) | OverwriteLenAndMove(src, dst, len) => (src, dst, len),
        };
        (FlowId::new(src), FlowId::new(dst), len)
    }

    /// The step's payload length, for the minimiser to halve.
    pub(crate) fn len_mut(&mut self) -> Option<&mut usize> {
        match self {
            Enqueue(_, len, _) | EnqueuePacket(_, len, _) | OverwriteHead(_, len) => Some(len),
            OverwriteHeadLen(_, len) | AppendHead(_, len) | AppendTail(_, len) => Some(len),
            OverwriteAndMove(_, _, len) | OverwriteLenAndMove(_, _, len) => Some(len),
            _ => None,
        }
    }

    /// The [`Command`] this step makes, if it is one.
    fn command(self, tag: u8) -> Option<Command> {
        let (src, dst, len) = self.parts();
        let (flow, data, new_len) = (src, payload(tag, len), len as u16);
        Some(match self {
            Enqueue(.., pos) => Command::Enqueue { flow, data, pos },
            Dequeue(_, None) => Command::Dequeue { flow },
            ReadHead(_) => Command::Read { flow },
            OverwriteHead(..) => Command::Overwrite { flow, data },
            OverwriteHeadLen(..) => Command::OverwriteLen { flow, new_len },
            DeleteSegment(_) => Command::DeleteSegment { flow },
            DeletePacket(_) => Command::DeletePacket { flow },
            AppendHead(..) => Command::AppendHead { flow, data },
            AppendTail(..) => Command::AppendTail { flow, data },
            MovePacket(..) => Command::Move { src, dst },
            CopyPacket(..) => Command::Copy { src, dst },
            OverwriteAndMove(..) => Command::OverwriteAndMove { src, dst, data },
            OverwriteLenAndMove(..) => Command::OverwriteLenAndMove { src, dst, new_len },
            _ => return None,
        })
    }
}

/// The `len` payload bytes of the step with index `tag`.
pub(crate) fn payload(tag: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

/// An engine geometry: `shards` engines, each of `flows` queues over
/// `segments` segments of `seg_bytes`, with a `freelist` discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) flows: u32,
    pub(crate) segments: u32,
    pub(crate) seg_bytes: u32,
    pub(crate) freelist: FreeListDiscipline,
    pub(crate) shards: usize,
}

impl Shape {
    pub(crate) fn config(&self) -> QmConfig {
        QmConfig::builder()
            .num_flows(self.flows)
            .num_segments(self.segments)
            .segment_bytes(self.seg_bytes)
            .freelist_discipline(self.freelist)
            .build()
            .expect("a legal shape")
    }

    /// A fresh engine of this shape.
    pub(crate) fn engine(&self) -> ShardedQueueManager {
        ShardedQueueManager::new(self.config(), self.shards)
    }
}

/// What a step returns: a command's [`Outcome`], a whole packet, or the
/// longest queue and its bytes.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Reply {
    Outcome(Outcome),
    Packet(Vec<u8>),
    Longest(Option<(FlowId, u64)>),
}

pub(crate) const DONE: Reply = Reply::Outcome(Outcome::Done);

/// Runs a lending call on a buffer that already holds `held` bytes and
/// returns the call's value with what it appended. The held bytes must
/// survive, and a refused call must leave the buffer as it was.
fn lent<T>(held: usize, call: impl FnOnce(&mut Vec<u8>) -> Res<T>) -> Res<(T, Vec<u8>)> {
    let mut out = vec![0xEE; held];
    let result = call(&mut out);
    let kept = out[..held].iter().all(|&b| b == 0xEE) && (result.is_ok() || out.len() == held);
    assert!(kept, "the held bytes changed, or a refused call appended");
    result.map(|value| (value, out.split_off(held)))
}

/// Makes `step`'s call on `engine`: a command through `execute`, anything
/// else on the flow's home shard.
pub(crate) fn apply(engine: &mut ShardedQueueManager, step: Step, tag: u8) -> Res<Reply> {
    if let Some(cmd) = step.command(tag) {
        return engine.execute(cmd).map(Reply::Outcome);
    }
    let (flow, _, len) = step.parts();
    let (qm, data) = (engine.shard_for_mut(flow), payload(tag, len));
    // The length returned is the length appended.
    let packet = |(n, bytes): (usize, Vec<u8>)| {
        assert_eq!(n, bytes.len());
        Reply::Packet(bytes)
    };
    match step {
        EnqueuePacket(.., work) => qm
            .enqueue_packet_with_work(flow, &data, work)
            .map(|()| DONE),
        SetTailWork(_, work) => qm.set_tail_work(flow, work).map(|()| DONE),
        DequeuePacket(_, None) => qm.dequeue_packet(flow).map(Reply::Packet),
        DequeuePacket(_, Some(n)) => lent(n, |out| qm.dequeue_packet_into(flow, out)).map(packet),
        PeekPacket(_, None) => qm.peek_packet(flow).map(Reply::Packet),
        PeekPacket(_, Some(n)) => lent(n, |out| qm.peek_packet_into(flow, out)).map(packet),
        Dequeue(_, Some(n)) => lent(n, |out| qm.dequeue_into(flow, out)).map(|(info, data)| {
            assert_eq!(info.len, data.len());
            let (sop, eop) = (info.sop, info.eop);
            Reply::Outcome(Outcome::Segment(DequeuedSegment { data, sop, eop }))
        }),
        LongestQueue(_) => Ok(Reply::Longest(qm.longest_queue())),
        _ => unreachable!("{step:?} is a command"),
    }
}

/// The one script generator, through `npqm_prop`'s [`Strategy`]: a
/// [`Shape`], unless one is given, and up to 160 steps for it.
pub(crate) struct Scripts(pub(crate) Option<Shape>);

impl Strategy for Scripts {
    type Value = (Shape, Vec<Step>);

    fn generate(&self, rng: &mut Xoshiro256pp) -> (Shape, Vec<Step>) {
        let mut pick = |xs: &[u32]| xs[rng.next_below(xs.len() as u64) as usize];
        // One engine, or four that two-queue commands cross; one-segment
        // pools, single queues and one-byte segments among the rest.
        let shape = self.0.unwrap_or_else(|| {
            let shards = pick(&[1, 1, 4]) as usize;
            Shape {
                flows: pick(if shards == 1 { &[1, 2, 3, 4] } else { &[4, 6] }),
                segments: pick(&[1, 2, 3, 6, 14, 24]),
                seg_bytes: pick(&[1, 2, 16, 64]),
                freelist: [Lifo, Fifo][pick(&[0, 1]) as usize],
                shards,
            }
        });
        let len = 1 + rng.next_below(160) as usize;
        (shape, (0..len).map(|_| draw(&shape, rng)).collect())
    }
}

/// One step for `shape`, weighted toward what breaks engines: open tails,
/// full pools, out-of-range flows, and packets that run the pool dry
/// midway and roll back.
fn draw(shape: &Shape, rng: &mut Xoshiro256pp) -> Step {
    let mut below = |n: u32| rng.next_below(n.into()) as u32;
    let bytes = shape.seg_bytes;
    // One flow in twelve is out of range.
    let mut flow = || match below(12) {
        0 => shape.flows,
        _ => below(shape.flows),
    };
    let (flow, src, dst) = (flow(), flow(), flow());
    // One segment payload in ten is empty, and one too long.
    let len = match below(10) {
        0 => 0,
        1 => bytes + 1,
        _ => 1 + below(bytes),
    } as usize;
    // Whole segments, or up to half the pool and two segments more.
    let pkt = match below(3) {
        0 => bytes * (1 + below(4)),
        _ => 1 + below(bytes * (shape.segments / 2 + 2)),
    } as usize;
    let lend = (below(2) == 0).then(|| below(40) as usize);
    let work = [0, 0, 3, 9][below(4) as usize];
    let pos = [First, First, Middle, Last, Last, Only][below(6) as usize];
    // One step in 64 asks for the longest queue, so most scripts commit
    // many times before their first query wakes the occupancy index.
    if below(64) == 0 {
        return LongestQueue(flow);
    }
    // A third of the steps enqueue, so that tails are open and pools full.
    match below(32) {
        0..=5 => Enqueue(flow, len, pos),
        6..=10 => EnqueuePacket(flow, pkt, work),
        11 => SetTailWork(flow, work),
        12..=13 => Dequeue(flow, lend),
        14..=16 => DequeuePacket(flow, lend),
        17 => PeekPacket(flow, lend),
        18 => ReadHead(flow),
        19 => OverwriteHead(flow, len),
        20 => OverwriteHeadLen(flow, len),
        21 => DeleteSegment(flow),
        22 => DeletePacket(flow),
        23 => AppendHead(flow, len),
        24 => AppendTail(flow, len),
        25..=27 => MovePacket(src, dst),
        28..=29 => CopyPacket(src, dst),
        30 => OverwriteAndMove(src, dst, len),
        _ => OverwriteLenAndMove(src, dst, len),
    }
}

/// A committed script, and the digest its engine ends at.
pub(crate) struct Script {
    pub(crate) name: &'static str,
    pub(crate) shape: Shape,
    pub(crate) steps: &'static [Step],
    pub(crate) digest: u64,
}

pub(crate) const CORPUS: &[Script] = &include!("../../tests/corpus/scripts.rs");
