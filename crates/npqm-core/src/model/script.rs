//! What the model and the engine are stepped through: the [`Step`] vocabulary,
//! the drop [`POLICIES`] an offer and the [`SCHEDULERS`] a drain go through,
//! [`apply`], the one script
//! generator ([`Scripts`]) and the committed [`CORPUS`]. It reaches the
//! engine only through its public API, so the integration tests replay the
//! same corpus (`tests/open_tail_regressions.rs` includes this file).

use npqm_core::command::{Command, Outcome};
use npqm_core::config::{FreeListDiscipline, QmConfig};
use npqm_core::error::QueueError;
use npqm_core::id::FlowId;
use npqm_core::limits::{BufferManager, FlowLimits};
use npqm_core::manager::{DequeuedSegment, SegmentPosition};
use npqm_core::policy::{self, Admission, DropPolicy, Refusal};
use npqm_core::sched::{drain_next, from_spec, FlowScheduler};
use npqm_core::shard::ShardedQueueManager;
use npqm_sim::rng::Xoshiro256pp;
use proptest::Strategy;
use FreeListDiscipline::{Fifo, Lifo};
use SegmentPosition::{First, Last, Middle, Only};
use Step::*;

pub(crate) type Res<T> = Result<T, QueueError>;

/// One public engine call, named after the `QueueManager` method. The
/// fields are the flow (`src`, `dst` for two queues), then a payload
/// length, a `work`, a [`SegmentPosition`], a lending buffer or a
/// [`POLICIES`] or [`SCHEDULERS`] index: the payload is `len` bytes
/// counting up from the step's index in its script, and `Some(n)` makes
/// the lending (`_into`) call into a buffer that already holds `n` bytes. A call that is a
/// [`Command`] goes through [`ShardedQueueManager::execute`], any other to
/// the flow's home shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Enqueue(u32, usize, SegmentPosition),
    /// `enqueue_packet`, then `set_tail_work` unless `work` is 0.
    EnqueuePacket(u32, usize, u32),
    SetTailWork(u32, u32),
    Dequeue(u32, Option<usize>),
    DequeuePacket(u32, Option<usize>),
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
    /// A `len`-byte packet of `work` offered to the policy
    /// `POLICIES[policy]`: `DropPolicy::offer_work` on the flow's home
    /// shard, or `GlobalLqd::offer` on the engine.
    Offer(u32, usize, u32, usize),
    /// `drain_next` through the flow's home shard's instance of the
    /// scheduler `SCHEDULERS[sched]`.
    Drain(u32, usize),
}

impl Step {
    /// The step's flow, or its `src` and `dst`, and its payload length.
    pub(crate) fn parts(self) -> (FlowId, FlowId, usize) {
        let (src, dst, len) = match self {
            Enqueue(flow, len, _) | EnqueuePacket(flow, len, _) => (flow, flow, len),
            Offer(flow, len, ..) => (flow, flow, len),
            OverwriteHead(flow, len) | OverwriteHeadLen(flow, len) => (flow, flow, len),
            AppendHead(flow, len) | AppendTail(flow, len) => (flow, flow, len),
            SetTailWork(flow, _) | Dequeue(flow, _) | DequeuePacket(flow, _) => (flow, flow, 0),
            ReadHead(flow) | LongestQueue(flow) | Drain(flow, _) => (flow, flow, 0),
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
            Offer(_, len, ..) => Some(len),
            _ => None,
        }
    }

    /// The [`Command`] this step makes, if it is one.
    pub(crate) fn command(self, tag: u8) -> Option<Command> {
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

/// A drop policy as an [`Step::Offer`] names it, with its parameters.
/// Policies keep no state, so each offer builds the one it goes through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Policy {
    /// `BufferManager`: static per-flow caps and a reserve.
    TailDrop(FlowLimits, u32),
    /// `LongestQueueDrop` with a reserve.
    Lqd(u32),
    /// `DynamicThreshold` with its `alpha`.
    Dt(f64),
    /// `PushOutLargestWork` with a reserve.
    PoWork(u32),
    /// `WorkSizeBalance` with a reserve.
    WorkBalance(u32),
    /// `GlobalLqd::shared` over the whole engine, with a reserve.
    GlobalLqd(u32),
}

/// Every policy an offer may go through. The caps bind on the drawn
/// shapes: a pool holds up to 24 segments of up to 64 bytes.
pub(crate) const POLICIES: [Policy; 10] = {
    use Policy::*;
    const fn caps(max_bytes: u64, max_packets: u32) -> FlowLimits {
        FlowLimits {
            max_bytes,
            max_packets,
        }
    }
    [
        TailDrop(caps(100, 3), 0),
        TailDrop(caps(40, 5), 1),
        Lqd(0),
        Lqd(2),
        Dt(0.5),
        Dt(2.0),
        PoWork(1),
        WorkBalance(0),
        GlobalLqd(0),
        GlobalLqd(2),
    ]
};

/// The schedulers a [`Step::Drain`] goes through, as `from_spec` strings
/// for six flows, the most a drawn shape has ([`sized`] cuts one to a
/// shape's): strict priority; WRR with unequal weights; DRR at a
/// minimum-frame quantum (half on odd flows) and at quantum 1; HTB with a
/// single root (flat DRR at 1518), with two tenants that borrow up to their
/// ceils under a root short of the link, with priorities (two quantum-1
/// leaves), with a zero-rate subtree beside two leaves at 250 and 750 that
/// cannot borrow, and with a bucket of `MAX_BUCKET`'s depth beside a
/// 64-byte one; two that `from_spec` refuses: a ceil below its rate, and a
/// bucket one burst byte too deep; and two tenants guaranteed half the link
/// each, with ceils of all of it, beside four leaves guaranteed nothing.
pub(crate) const SCHEDULERS: [&str; 12] = [
    "sp",
    "wrr:3,1,2,1,4,2",
    "drr:64,32,64,32,64,32",
    "drr:1",
    "htb:cap=1000;r;l0,parent=r,flow=0;l1,parent=r,flow=1;l2,parent=r,flow=2;l3,parent=r,flow=3;\
     l4,parent=r,flow=4;l5,parent=r,flow=5",
    "htb:cap=1000;r,rate=900,burst=3000;a,parent=r,rate=600,ceil=900,burst=640;\
     b,parent=r,rate=300,ceil=500,burst=640;a0,parent=a,rate=300,ceil=900,burst=256,flow=0;\
     b1,parent=b,rate=200,burst=256,flow=1;a2,parent=a,rate=100,burst=128,flow=2;\
     b3,parent=b,rate=100,ceil=300,burst=128,quantum=64,flow=3;\
     a4,parent=a,rate=200,burst=64,flow=4;b5,parent=b,rate=0,ceil=500,burst=64,flow=5",
    "htb:cap=1000;p;z,parent=p,rate=100,burst=64,flow=0;\
     q,parent=p,rate=100,ceil=1000,quantum=1,burst=128,flow=1;\
     v,parent=p,rate=300,ceil=600,prio=0,burst=256,flow=2;\
     w,parent=p,rate=200,ceil=1000,quantum=64,burst=128,flow=3;\
     x,parent=p,rate=100,prio=7,burst=64,flow=4;\
     y,parent=p,rate=200,ceil=500,prio=0,burst=128,quantum=1,flow=5",
    "htb:cap=1000;b,rate=250,burst=16,quantum=64,flow=0;a,rate=750,burst=640,quantum=64,flow=1;\
     z,rate=0,ceil=600,burst=256;z2,parent=z,rate=0,ceil=600,burst=64,flow=2;\
     z3,parent=z,rate=0,burst=64,flow=3;b4,rate=250,burst=640,flow=4;\
     z5,parent=z,rate=0,burst=64,flow=5",
    "htb:cap=18446744073709551615;r;\
     d,parent=r,rate=9223372036854775807,burst=4611686018427387904,flow=0;\
     s,parent=r,rate=4611686018427387904,burst=64,flow=1;\
     d2,parent=r,burst=4611686018427387904,flow=2;s3,parent=r,rate=1,burst=64,flow=3;\
     s4,parent=r,rate=0,ceil=1,burst=1,flow=4;d5,parent=r,burst=4611686018427387904,flow=5",
    "htb:cap=1000;r,rate=500,ceil=400;l0,parent=r,flow=0;l1,parent=r,flow=1;l2,parent=r,flow=2;\
     l3,parent=r,flow=3;l4,parent=r,flow=4;l5,parent=r,flow=5",
    "htb:cap=18446744073709551615;r,burst=4611686018427387905;l0,parent=r,flow=0;\
     l1,parent=r,flow=1;l2,parent=r,flow=2;l3,parent=r,flow=3;l4,parent=r,flow=4;\
     l5,parent=r,flow=5",
    "htb:cap=1000;t;a,parent=t,rate=500,ceil=1000,burst=1280,flow=0;\
     b,parent=t,rate=500,ceil=1000,burst=1280,flow=1;c2,parent=t,rate=0,ceil=1000,burst=64,flow=2;\
     c3,parent=t,rate=0,ceil=1000,burst=64,flow=3;c4,parent=t,rate=0,ceil=1000,burst=64,flow=4;\
     c5,parent=t,rate=0,ceil=1000,burst=64,flow=5",
];

/// `spec` for `flows` flows: a list keeps its first `flows` values, a tree
/// its leaves of the flows below `flows`.
pub(crate) fn sized(spec: &str, flows: u32) -> String {
    let kept = |leaf: &&str| {
        let flow = leaf.split(',').find_map(|kv| kv.strip_prefix("flow="));
        flow.is_none_or(|f| f.parse::<u32>().expect("a flow") < flows)
    };
    match spec.split_once(':') {
        Some(("htb", tree)) => format!(
            "htb:{}",
            tree.split(';').filter(kept).collect::<Vec<_>>().join(";")
        ),
        Some((kind, list)) => {
            let list: Vec<_> = list.split(',').take(flows as usize).collect();
            format!("{kind}:{}", list.join(","))
        }
        None => spec.into(),
    }
}

/// One live scheduler per shard and [`SCHEDULERS`] entry, shard-major, as
/// `from_spec` builds it for the shape, or `None` where it refuses.
pub(crate) type Schedulers = Vec<Option<Box<dyn FlowScheduler>>>;

impl Policy {
    /// A policy of this kind for one engine.
    fn one_engine(self) -> Box<dyn DropPolicy> {
        match self {
            Policy::TailDrop(caps, reserve) => Box::new(BufferManager::new(caps, reserve)),
            Policy::Lqd(reserve) => Box::new(policy::LongestQueueDrop::new(reserve)),
            Policy::Dt(alpha) => Box::new(policy::DynamicThreshold::new(alpha)),
            Policy::PoWork(reserve) => Box::new(policy::PushOutLargestWork::new(reserve)),
            Policy::WorkBalance(reserve) => Box::new(policy::WorkSizeBalance::new(reserve)),
            Policy::GlobalLqd(_) => unreachable!("global LQD admits over every engine"),
        }
    }
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

    pub(crate) fn schedulers(&self) -> Schedulers {
        let build = |spec| from_spec(&sized(spec, self.flows), self.flows).ok();
        (0..self.shards)
            .flat_map(|_| SCHEDULERS.map(build))
            .collect()
    }
}

/// What a step returns: a command's [`Outcome`], a whole packet, the
/// longest queue and its bytes, a policy's answer to an offer, or the
/// flow and packet a drain served (`Unbuilt`: `from_spec` refused the
/// scheduler).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Reply {
    Outcome(Outcome),
    Packet(Vec<u8>),
    Longest(Option<(FlowId, u64)>),
    Offered(Result<Admission, Refusal>),
    Drained(Option<(FlowId, Vec<u8>)>),
    Unbuilt,
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

/// Makes `step`'s call on `engine`: a command through `execute`, a global
/// LQD offer on the engine, a drain through `scheds`, anything else on the
/// flow's home shard.
pub(crate) fn apply(
    engine: &mut ShardedQueueManager,
    scheds: &mut Schedulers,
    step: Step,
    tag: u8,
) -> Res<Reply> {
    if let Some(cmd) = step.command(tag) {
        return engine.execute(cmd).map(Reply::Outcome);
    }
    let (flow, _, len) = step.parts();
    let data = payload(tag, len);
    if let Offer(.., work, policy) = step {
        let offered = match POLICIES[policy] {
            Policy::GlobalLqd(r) => policy::GlobalLqd::shared(engine, r).offer(engine, flow, &data),
            p => p
                .one_engine()
                .offer_work(engine.shard_for_mut(flow), flow, &data, work),
        };
        return Ok(Reply::Offered(offered));
    }
    if let Drain(_, sched) = step {
        let Some(sched) = &mut scheds[engine.shard_of(flow) * SCHEDULERS.len() + sched] else {
            return Ok(Reply::Unbuilt);
        };
        return Ok(Reply::Drained(drain_next(
            engine.shard_for_mut(flow),
            sched,
        )));
    }
    let qm = engine.shard_for_mut(flow);
    // The length returned is the length appended.
    let packet = |(n, bytes): (usize, Vec<u8>)| {
        assert_eq!(n, bytes.len());
        Reply::Packet(bytes)
    };
    match step {
        EnqueuePacket(.., work) => {
            qm.enqueue_packet(flow, &data)?;
            if work != 0 {
                qm.set_tail_work(flow, work)?;
            }
            Ok(DONE)
        }
        SetTailWork(_, work) => qm.set_tail_work(flow, work).map(|()| DONE),
        DequeuePacket(_, None) => qm.dequeue_packet(flow).map(Reply::Packet),
        DequeuePacket(_, Some(n)) => lent(n, |out| qm.dequeue_packet_into(flow, out)).map(packet),
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
        let sched = rng.next_below(SCHEDULERS.len() as u64) as usize;
        (shape, (0..len).map(|_| draw(&shape, sched, rng)).collect())
    }
}

/// One step for `shape`, weighted toward what breaks engines: open tails,
/// full pools, out-of-range flows, and packets that run the pool dry
/// midway and roll back; most drains go through the script's `sched`.
fn draw(shape: &Shape, sched: usize, rng: &mut Xoshiro256pp) -> Step {
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
    // One in eight offers a packet to a drop policy; its lengths are
    // `EnqueuePacket`'s, so arrivals both push out and are hopeless.
    if below(8) == 0 {
        return Offer(flow, pkt, work, below(POLICIES.len() as u32) as usize);
    }
    // One in four drains a packet, seven in eight through `sched`, so that
    // its state lives across many picks.
    if below(4) == 0 {
        let other = below(SCHEDULERS.len() as u32) as usize;
        return Drain(flow, if below(8) == 0 { other } else { sched });
    }
    // A third of the commands enqueue, so that tails are open and pools full.
    match below(32) {
        0..=5 => Enqueue(flow, len, pos),
        6..=10 => EnqueuePacket(flow, pkt, work),
        11 => SetTailWork(flow, work),
        12..=13 => Dequeue(flow, lend),
        14..=16 => DequeuePacket(flow, lend),
        17..=18 => ReadHead(flow),
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
