//! The engine's command set as a plain [`Model`] — per-flow queues of
//! packets of segments, free space per shard, and for every public call
//! the exact reply or [`QueueError`] and the [`QmStats`] it counts, drop
//! policies' offers and schedulers' picks included — and the
//! differential fuzzer that holds a [`ShardedQueueManager`] to it after
//! every [`Step`] of a script ([`Run`]). Scripts come from [`Scripts`] under
//! `NPQM_PROP_SEED`; a failing one is cut down by [`minimise`] and printed
//! for the corpus, `tests/corpus/scripts.rs`, which every test run replays.
//! Memory traffic is not modelled: the segment-command references in
//! `manager`'s tests hold the whole-packet calls to theirs.

mod script;

pub(crate) use script::*;

use crate::command::Outcome;
use crate::error::QueueError::{self, *};
use crate::id::FlowId;
use crate::limits::DropReason::{self, FlowBytes, FlowPackets, GlobalReserve};
use crate::manager::{DequeuedSegment, QueueManager, SegmentPosition};
use crate::policy::{Admission, Refusal};
use crate::shard::ShardedQueueManager;
use crate::stats::QmStats;
use proptest::Strategy;
use std::cmp::Reverse;
use std::ops::Range;
use Step::*;

/// A drop policy's answer to an offer, and the victims of a push-out that
/// has not yet enqueued.
type Offered = Result<Admission, Refusal>;
type Evicted = Result<Vec<(FlowId, u32)>, Refusal>;

/// A packet as the model keeps it, and as [`queued`] reads it back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Packet {
    /// The bytes of its segments, the head segment first.
    segs: Vec<Vec<u8>>,
    work: u32,
    /// Some of its segments were dequeued already.
    started: bool,
    /// Its EOP has not arrived: the flow is mid-SAR.
    open: bool,
}

/// The engine's contract (see the module documentation). A refusal
/// counts one error on the shard of the flow it names.
pub(crate) struct Model {
    seg_bytes: usize,
    segments: u32,
    /// Each flow's shard, the out-of-range flow (`flows`) last.
    home: Vec<usize>,
    queues: Vec<Vec<Packet>>,
    stats: Vec<QmStats>,
    /// Each shard's [`SCHEDULERS`], shard-major; `None` where `from_spec`
    /// refuses.
    egress: Vec<Option<Discipline>>,
}

impl Model {
    fn new(shape: &Shape, engine: &ShardedQueueManager) -> Self {
        Model {
            seg_bytes: shape.seg_bytes as usize,
            segments: shape.segments,
            home: (0..=shape.flows)
                .map(|f| engine.shard_of(FlowId::new(f)))
                .collect(),
            queues: vec![Vec::new(); shape.flows as usize],
            stats: vec![QmStats::default(); shape.shards],
            egress: (0..shape.shards)
                .flat_map(|_| {
                    SCHEDULERS.map(|spec| Discipline::new(&sized(spec, shape.flows), shape.flows))
                })
                .collect(),
        }
    }

    /// Free segments and packet records of shard `shard`: one record per
    /// segment, and a packet holds at least one, so records never run out
    /// before segments do.
    fn free(&self, shard: usize) -> (u32, u32) {
        let packets = self.on_shard(shard).flat_map(|(_, q)| q);
        let (segs, pkts) = packets.fold((0, 0), |(n, k), p| (n + p.segs.len() as u32, k + 1));
        (self.segments - segs, self.segments - pkts)
    }

    /// The flows homed on `shard`, with their queues.
    fn on_shard(&self, shard: usize) -> impl Iterator<Item = (u32, &[Packet])> {
        let queues = self.queues.iter().zip(&self.home).enumerate();
        let homed = queues.filter(move |&(_, (_, &s))| s == shard);
        homed.map(|(f, (q, _))| (f as u32, q.as_slice()))
    }

    fn stats(&mut self, flow: FlowId) -> &mut QmStats {
        &mut self.stats[self.home[flow.as_usize()]]
    }

    fn queue(&mut self, flow: FlowId) -> &mut Vec<Packet> {
        &mut self.queues[flow.as_usize()]
    }

    fn across(&self, src: FlowId, dst: FlowId) -> bool {
        self.home[src.as_usize()] != self.home[dst.as_usize()]
    }

    fn check(&mut self, flow: FlowId, refuse: bool, e: QueueError) -> Res<()> {
        if refuse {
            self.stats(flow).errors += 1;
            return Err(e);
        }
        Ok(())
    }

    fn known(&mut self, flow: FlowId) -> Res<()> {
        let num_flows = self.queues.len() as u32;
        let unknown = flow.index() >= num_flows;
        self.check(flow, unknown, UnknownFlow { flow, num_flows })
    }

    fn segment_len(&mut self, flow: FlowId, len: usize) -> Res<()> {
        let (long, segment_bytes) = (len > self.seg_bytes, self.seg_bytes as u32);
        self.check(flow, len == 0, EmptyPayload)?;
        self.check(flow, long, SegmentOverflow { len, segment_bytes })
    }

    /// A known flow with a packet, whose head segment exists even mid-SAR.
    fn nonempty(&mut self, flow: FlowId) -> Res<()> {
        self.known(flow)?;
        let empty = self.queue(flow).is_empty();
        self.check(flow, empty, QueueEmpty { flow })
    }

    /// A known flow whose head packet is complete: only complete packets
    /// are served, deleted, moved or copied.
    fn complete_head(&mut self, flow: FlowId) -> Res<()> {
        self.known(flow)?;
        let open = self.queue(flow).first().is_none_or(|p| p.open);
        self.check(flow, open, QueueEmpty { flow })
    }

    /// Only an open tail packet grows by a segment (else the engine
    /// expected a start), and nothing goes behind one.
    fn tail(&mut self, flow: FlowId, open: bool) -> Res<()> {
        let wrong = tail_open(self.queue(flow)) != open;
        let e = SarProtocol {
            flow,
            expected_start: open,
        };
        self.check(flow, wrong, e)
    }

    fn reserve(&mut self, flow: FlowId, segs: usize) -> Res<()> {
        let (free_segs, _) = self.free(self.home[flow.as_usize()]);
        self.check(flow, (free_segs as usize) < segs, OutOfSegments)
    }

    /// The reply the engine owes `step`.
    pub(crate) fn step(&mut self, step: Step, tag: u8) -> Res<Reply> {
        let (src, dst, len) = step.parts();
        let (flow, data) = (src, payload(tag, len));
        let done = |r: Res<()>| r.map(|()| DONE);
        let segment = |r: Res<DequeuedSegment>| r.map(|s| Reply::Outcome(Outcome::Segment(s)));
        let dropped = |segs: &[Vec<u8>]| {
            let (segs, bytes) = (segs.len() as u32, segs.concat().len() as u32);
            Reply::Outcome(Outcome::Dropped { segs, bytes })
        };
        if self.across(src, dst) {
            // Shards share nothing: a two-queue command across two checks
            // its flows, then is refused on the source's shard, and no
            // queue changes.
            self.known(src)?;
            self.known(dst)?;
            return done(self.check(src, true, CrossShard { src, dst }));
        }
        match step {
            Enqueue(.., pos) => done(self.enqueue(flow, &data, pos)),
            EnqueuePacket(.., work) => done(self.enqueue_packet(flow, &data, work)),
            SetTailWork(_, work) => done(self.set_tail_work(flow, work)),
            Dequeue(..) => segment(self.pop(flow, true)),
            DequeuePacket(..) => self
                .take(flow, true)
                .map(|p| Reply::Packet(p.segs.concat())),
            ReadHead(_) => segment(self.read_head(flow)),
            OverwriteHead(..) => done(self.overwrite(flow, len, Some(data))),
            OverwriteHeadLen(..) => done(self.overwrite(flow, len, None)),
            DeleteSegment(_) => self.pop(flow, false).map(|s| dropped(&[s.data])),
            DeletePacket(_) => self.take(flow, false).map(|p| dropped(&p.segs)),
            AppendHead(..) => done(self.append(flow, data, true)),
            AppendTail(..) => done(self.append(flow, data, false)),
            MovePacket(..) => done(self.move_packet(src, dst)),
            CopyPacket(..) => done(self.copy_packet(src, dst)),
            OverwriteAndMove(..) | OverwriteLenAndMove(..) => {
                // The overwrite stays when the move is refused.
                let data = matches!(step, OverwriteAndMove(..)).then_some(data);
                let overwrite = self.overwrite(src, len, data);
                done(overwrite.and_then(|()| self.move_packet(src, dst)))
            }
            LongestQueue(_) => Ok(Reply::Longest(self.longest_queue(flow))),
            Offer(.., work, p) => Ok(Reply::Offered(self.offer(flow, &data, work, POLICIES[p]))),
            Drain(_, sched) => Ok(self.drain(flow, sched)),
        }
    }

    /// What `drain_next` through scheduler `sched` of `flow`'s shard
    /// serves: its discipline's pick among the complete head packets
    /// there, dequeued whole.
    fn drain(&mut self, flow: FlowId, sched: usize) -> Reply {
        let (shard, mut heads) = (self.home[flow.as_usize()], vec![None; self.queues.len()]);
        for (f, q) in self.on_shard(shard) {
            heads[f as usize] = q.first().is_some_and(|p| !p.open).then(|| bytes(&q[..1]));
        }
        let Some(egress) = &mut self.egress[shard * SCHEDULERS.len() + sched] else {
            return Reply::Unbuilt;
        };
        let Some(f) = egress.serve(&heads) else {
            return Reply::Drained(None);
        };
        let flow = FlowId::new(f as u32);
        let p = self.take(flow, true).expect("a complete head");
        Reply::Drained(Some((flow, p.segs.concat())))
    }

    /// The non-empty flow with the most bytes on `flow`'s shard, ties to
    /// the higher index: a function of the queues alone, however long the
    /// engine's occupancy index slept.
    fn longest_queue(&self, flow: FlowId) -> Option<(FlowId, u64)> {
        self.longest(self.home[flow.as_usize()], |q| !q.is_empty())
    }

    /// The flow with the most bytes among those on `shard` that `keep`
    /// admits, ties to the higher index.
    fn longest(&self, shard: usize, keep: fn(&[Packet]) -> bool) -> Option<(FlowId, u64)> {
        let kept = self.on_shard(shard).filter(|&(_, q)| keep(q));
        let (n, f) = kept.map(|(f, q)| (bytes(q), f)).max()?;
        Some((FlowId::new(f), n))
    }

    /// The evictable head packets on `shard`, as `(flow, work, bytes)`.
    fn heads(&self, shard: usize) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        let kept = self.on_shard(shard).filter(|&(_, q)| evictable(q));
        kept.map(|(f, q)| (f, q[0].work.into(), bytes(&q[..1])))
    }

    /// What `policy` answers an offer of `data` carrying `work` on `flow`:
    /// tail drop and dynamic thresholds check, a push-out evicts, then the
    /// engine enqueues, and may still refuse.
    fn offer(&mut self, flow: FlowId, data: &[u8], work: u32, policy: Policy) -> Offered {
        let (home, none) = (self.home[flow.as_usize()], Vec::new());
        let queued = self.queues.get(flow.as_usize()).unwrap_or(&none);
        let (packets, held) = (queued.len() as u32, bytes(queued) + data.len() as u64);
        let free = u64::from(self.free(home).0);
        let needed = data.len().div_ceil(self.seg_bytes) as u64;
        let refused = match policy {
            Policy::TailDrop(caps, _) if held > caps.max_bytes => Some(FlowBytes),
            Policy::TailDrop(caps, _) if packets + 1 > caps.max_packets => Some(FlowPackets),
            Policy::TailDrop(_, reserve) => {
                (free < needed + u64::from(reserve)).then_some(GlobalReserve)
            }
            // The engine's threshold, in the engine's `f64`s.
            Policy::Dt(alpha) => {
                (held as f64 > alpha * (free * self.seg_bytes as u64) as f64).then_some(FlowBytes)
            }
            _ => None,
        };
        if let Some(reason) = refused {
            return Err(Refusal::from(reason));
        }
        let evicted = match policy {
            Policy::TailDrop(..) | Policy::Dt(_) => Vec::new(),
            _ => self.push_out(flow, data, work, policy)?,
        };
        // Global LQD's offer carries no work.
        let work = match policy {
            Policy::GlobalLqd(_) => 0,
            _ => work,
        };
        match self.enqueue_packet(flow, data, work) {
            Ok(()) => Ok(Admission { evicted }),
            Err(e) => Err(Refusal {
                reason: DropReason::Engine(e),
                evicted,
            }),
        }
    }

    /// `policy::push_out`: an arrival that could not fit an empty budget
    /// is refused, a doomed one goes straight to the engine, and any other
    /// evicts `policy`'s victims until it fits, or is refused when none is
    /// left.
    fn push_out(&mut self, flow: FlowId, data: &[u8], work: u32, policy: Policy) -> Evicted {
        let (home, needed) = (
            self.home[flow.as_usize()],
            data.len().div_ceil(self.seg_bytes),
        );
        let (reserve, shards) = match policy {
            Policy::GlobalLqd(reserve) => (reserve, 0..self.stats.len()),
            Policy::Lqd(reserve) | Policy::PoWork(reserve) | Policy::WorkBalance(reserve) => {
                (reserve, home..home + 1)
            }
            _ => unreachable!("{policy:?} pushes nothing out"),
        };
        let (budget, claim) = (u64::from(self.segments), needed as u64 + u64::from(reserve));
        if claim > budget {
            return Err(Refusal::from(GlobalReserve));
        }
        // Empty, out of range or behind an open tail: the engine refuses
        // it however much is evicted.
        let queued = self.queues.get(flow.as_usize());
        let doomed = data.is_empty() || queued.is_none_or(|q| tail_open(q));
        let (len, mut evicted) = (data.len() as u64, Vec::new());
        while !doomed && self.used(shards.clone()) + claim > budget {
            let victim = match policy {
                Policy::Lqd(_) => self.longest(home, evictable).map(|(f, _)| f),
                // The largest shard's LQD victim, ties to the lowest shard.
                Policy::GlobalLqd(_) => (shards.clone())
                    .filter_map(|s| Some((self.longest(s, evictable)?, s)))
                    .max_by_key(|&((_, n), s)| (n, Reverse(s)))
                    .map(|((f, _), _)| f),
                // The most work, then bytes, ties to the lowest flow, while
                // it costs more than the arrival.
                Policy::PoWork(_) => (self.heads(home))
                    .max_by_key(|&(f, w, b)| (w, b, Reverse(f)))
                    .filter(|&(_, w, _)| w > work.into())
                    .map(|(f, ..)| FlowId::new(f)),
                // The densest, then the largest, ties to the lowest flow,
                // while it is denser than the arrival.
                _ => (self.heads(home))
                    .max_by(|&(f, w, b), &(g, v, c)| {
                        let density = (w * c).cmp(&(v * b));
                        density.then(b.cmp(&c)).then(g.cmp(&f))
                    })
                    .filter(|&(_, w, b)| w * len > u64::from(work) * b)
                    .map(|(f, ..)| FlowId::new(f)),
            };
            let Some(victim) = victim else {
                let reason = GlobalReserve;
                return Err(Refusal { reason, evicted });
            };
            let p = self.take(victim, false).expect("an evictable head");
            evicted.push((victim, bytes(&[p]) as u32));
        }
        Ok(evicted)
    }

    /// Segments queued on `shards`.
    fn used(&self, shards: Range<usize>) -> u64 {
        shards
            .map(|s| u64::from(self.segments - self.free(s).0))
            .sum()
    }

    fn enqueue(&mut self, flow: FlowId, data: &[u8], pos: SegmentPosition) -> Res<()> {
        self.known(flow)?;
        self.segment_len(flow, data.len())?;
        self.tail(flow, !pos.is_first())?;
        self.reserve(flow, 1)?;
        let q = self.queue(flow);
        if pos.is_first() {
            q.push(Packet::default());
        }
        let tail = q.last_mut().expect("an open tail");
        tail.segs.push(data.to_vec());
        tail.open = !pos.is_last();
        let st = self.stats(flow);
        st.enqueues += 1;
        st.bytes_in += data.len() as u64;
        Ok(())
    }

    /// The segment commands `enqueue_packet` stands for. A refusal midway
    /// takes the partial packet out again, but not what its segments
    /// counted.
    fn enqueue_packet(&mut self, flow: FlowId, data: &[u8], work: u32) -> Res<()> {
        self.check(flow, data.is_empty(), EmptyPayload)?;
        let n = data.len().div_ceil(self.seg_bytes);
        for (i, chunk) in data.chunks(self.seg_bytes).enumerate() {
            let pos = SegmentPosition::from_flags(i == 0, i + 1 == n);
            if let Err(e) = self.enqueue(flow, chunk, pos) {
                if i > 0 {
                    self.queue(flow).pop();
                }
                return Err(e);
            }
        }
        self.set_tail_work(flow, work)
    }

    fn set_tail_work(&mut self, flow: FlowId, work: u32) -> Res<()> {
        self.nonempty(flow)?;
        self.queue(flow).last_mut().expect("nonempty").work = work;
        Ok(())
    }

    /// Dequeues (`out`) or deletes the head segment of a complete packet.
    fn pop(&mut self, flow: FlowId, out: bool) -> Res<DequeuedSegment> {
        self.complete_head(flow)?;
        let q = self.queue(flow);
        let data = q[0].segs.remove(0);
        let (sop, eop) = (!q[0].started, q[0].segs.is_empty());
        q[0].started = true;
        if eop {
            q.remove(0);
        }
        let st = self.stats(flow);
        if out {
            st.dequeues += 1;
            st.bytes_out += data.len() as u64;
        } else {
            st.seg_deletes += 1;
        }
        Ok(DequeuedSegment { data, sop, eop })
    }

    /// Dequeues (`out`) or deletes the whole complete head packet.
    fn take(&mut self, flow: FlowId, out: bool) -> Res<Packet> {
        self.complete_head(flow)?;
        let p = self.queue(flow).remove(0);
        let st = self.stats(flow);
        if out {
            st.dequeues += p.segs.len() as u64;
            st.bytes_out += p.segs.concat().len() as u64;
        } else {
            st.pkt_deletes += 1;
        }
        Ok(p)
    }

    /// The head segment. Its `eop` says whether it ends its packet: the
    /// one segment of an open packet is not its end.
    fn read_head(&mut self, flow: FlowId) -> Res<DequeuedSegment> {
        self.nonempty(flow)?;
        self.stats(flow).reads += 1;
        let p = &self.queue(flow)[0];
        let eop = p.segs.len() == 1 && !p.open;
        let (data, sop) = (p.segs[0].clone(), !p.started);
        Ok(DequeuedSegment { data, sop, eop })
    }

    /// Rewrites the head segment with `new`, or without cuts it to `len`
    /// bytes: a length rewrite never grows a segment.
    fn overwrite(&mut self, flow: FlowId, len: usize, new: Option<Vec<u8>>) -> Res<()> {
        self.known(flow)?;
        self.segment_len(flow, len)?;
        self.nonempty(flow)?;
        let held = self.queue(flow)[0].segs[0].len();
        let segment_bytes = held as u32;
        let grows = new.is_none() && len > held;
        self.check(flow, grows, SegmentOverflow { len, segment_bytes })?;
        let seg = &mut self.queue(flow)[0].segs[0];
        let count = match new {
            Some(new) => {
                *seg = new;
                &mut self.stats(flow).overwrites
            }
            None => {
                seg.truncate(len);
                &mut self.stats(flow).len_overwrites
            }
        };
        *count += 1;
        Ok(())
    }

    fn append(&mut self, flow: FlowId, data: Vec<u8>, head: bool) -> Res<()> {
        self.known(flow)?;
        self.segment_len(flow, data.len())?;
        self.nonempty(flow)?;
        if !head {
            self.tail(flow, false)?;
        }
        self.reserve(flow, 1)?;
        let q = self.queue(flow);
        if head {
            // A fresh head segment: the packet is unstarted again.
            q[0].segs.insert(0, data);
            q[0].started = false;
            self.stats(flow).head_appends += 1;
        } else {
            q.last_mut().expect("nonempty").segs.push(data);
            self.stats(flow).tail_appends += 1;
        }
        Ok(())
    }

    /// A packet in service may only land at a queue's head.
    fn move_packet(&mut self, src: FlowId, dst: FlowId) -> Res<()> {
        self.known(src)?;
        self.known(dst)?;
        self.complete_head(src)?;
        self.tail(dst, false)?;
        let started = self.queue(src)[0].started;
        let lands_at_head = match src == dst {
            true => self.queue(src).len() == 1,
            false => self.queue(dst).is_empty(),
        };
        let in_service = PacketInService { flow: src };
        self.check(src, started && !lands_at_head, in_service)?;
        let p = self.queue(src).remove(0);
        self.queue(dst).push(p);
        self.stats(src).moves += 1;
        Ok(())
    }

    /// A copy is a fresh packet, so a head in service, whose remainder is
    /// no whole packet, is refused.
    fn copy_packet(&mut self, src: FlowId, dst: FlowId) -> Res<()> {
        self.known(src)?;
        self.known(dst)?;
        self.complete_head(src)?;
        let copy = self.queue(src)[0].clone();
        self.check(src, copy.started, PacketInService { flow: src })?;
        self.tail(dst, false)?;
        self.reserve(dst, copy.segs.len())?;
        let st = self.stats(dst);
        st.enqueues += copy.segs.len() as u64;
        st.bytes_in += copy.segs.concat().len() as u64;
        self.queue(dst).push(copy);
        Ok(())
    }
}

/// A `from_spec` discipline, written from its definition (nothing here
/// comes from `sched`). `serve` takes each flow's head-packet bytes
/// (`None`: no complete packet), picks a flow and charges it its head.
enum Discipline {
    /// Strict priority: the lowest backlogged flow.
    Sp,
    /// WRR (weights, credits, cursor): a flow spends a credit per packet;
    /// credits refill only when no backlogged flow has one left, and the
    /// round stays on a flow while its credits last.
    Wrr(Vec<u64>, Vec<u64>, usize),
    Drr(Drr),
    Htb(Htb),
}

impl Discipline {
    /// The discipline `spec` names for `flows` flows (as [`sized`] cuts
    /// it), or `None` where `from_spec` refuses it.
    fn new(spec: &str, flows: u32) -> Option<Self> {
        let list = |l: &str| {
            let v: Vec<u64> = l.split(',').map(|v| v.parse().expect("a number")).collect();
            // One value stands for every flow.
            v.repeat(if v.len() == 1 { flows as usize } else { 1 })
        };
        Some(match spec.split_once(':') {
            None => Discipline::Sp,
            Some(("wrr", w)) => Discipline::Wrr(list(w), list(w), 0),
            Some(("drr", q)) => Discipline::Drr(Drr::new(list(q))),
            Some((_, tree)) => Discipline::Htb(Htb::new(tree)?),
        })
    }

    fn serve(&mut self, heads: &[Option<u64>]) -> Option<usize> {
        match self {
            Discipline::Sp => heads.iter().position(Option::is_some),
            Discipline::Wrr(weights, credits, cursor) => {
                let n = heads.len();
                let ready = |credits: &[u64], f: usize| heads[f].is_some() && credits[f] > 0;
                if !(0..n).any(|f| ready(credits, f)) {
                    credits.clone_from(weights);
                }
                let f = (0..n)
                    .map(|i| (*cursor + i) % n)
                    .find(|&f| ready(credits, f))?;
                credits[f] -= 1;
                *cursor = if credits[f] == 0 { (f + 1) % n } else { f };
                Some(f)
            }
            Discipline::Drr(drr) => {
                let f = drr.pick(|f| heads[f], |f| heads[f].is_none())?;
                drr.deficit[f] -= heads[f]?;
                Some(f)
            }
            Discipline::Htb(htb) => htb.serve(heads),
        }
    }
}

/// Deficit round robin (Shreedhar and Varghese) over slots: a visit grants
/// a backlogged slot its quantum, the slot holding the round is served
/// while its head fits, and a queue that empties forfeits its deficit.
#[derive(Clone)]
struct Drr {
    quanta: Vec<u64>,
    deficit: Vec<u64>,
    cursor: usize,
    active: Option<usize>,
}

impl Drr {
    fn new(quanta: Vec<u64>) -> Self {
        let deficit = vec![0; quanta.len()];
        Drr {
            quanta,
            deficit,
            cursor: 0,
            active: None,
        }
    }

    /// The slot served next, by `head(slot)`, the head's bytes if the slot
    /// may send now, and `empty(slot)`, whether it has no complete packet.
    fn pick(
        &mut self,
        head: impl Fn(usize) -> Option<u64>,
        empty: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let n = self.quanta.len();
        if let Some(s) = self.active.take() {
            if head(s).is_some_and(|h| h <= self.deficit[s]) {
                self.active = Some(s);
                return Some(s);
            }
            if empty(s) {
                self.deficit[s] = 0;
            }
            self.cursor = (s + 1) % n;
        }
        (0..n).find_map(&head)?;
        loop {
            let s = self.cursor;
            if let Some(h) = head(s) {
                self.deficit[s] += self.quanta[s];
                if h <= self.deficit[s] {
                    self.active = Some(s);
                    return Some(s);
                }
            }
            self.cursor = (s + 1) % n;
        }
    }
}

/// A class of an [`Htb`] tree: its buckets hold bytes scaled by the link
/// capacity.
struct Class {
    parent: Option<usize>,
    rate: i128,
    ceil: i128,
    burst: i128,
    tokens: i128,
    ctokens: i128,
}

/// HTB on the byte clock: every served byte earns each class `rate`
/// (`ceil`) tokens, capped at its burst, and costs the serving chain
/// `capacity`. Three tiers in turn — green (in rate, every ceil on the
/// chain kept), borrow (every ceil kept, an ancestor in rate), over ceil
/// (any) — each priority level in turn, DRR among the leaves of a level.
struct Htb {
    capacity: i128,
    classes: Vec<Class>,
    /// Per leaf, in declaration order: its class, flow and priority.
    leaves: Vec<(usize, usize, i128)>,
    levels: Vec<i128>,
    /// One DRR per tier and level.
    rounds: Vec<Drr>,
}

impl Htb {
    /// The tree of an `htb:` spec's body, or `None` where `from_spec`
    /// refuses it: a ceil below its rate, or a bucket deeper than half the
    /// `i128` range.
    fn new(tree: &str) -> Option<Self> {
        let mut parts = tree.split(';');
        let capacity: i128 = parts.next()?.strip_prefix("cap=")?.parse().ok()?;
        let (mut names, mut classes, mut leaves, mut quanta) = (vec![], vec![], vec![], vec![]);
        for class in parts {
            let mut keys = class.split(',');
            names.push(keys.next()?);
            let (mut parent, mut rate, mut ceil, mut burst) = (None, capacity, None, 15180);
            let (mut prio, mut quantum, mut flow) = (4, 1518, None);
            for (k, v) in keys.map(|kv| kv.split_once('=').expect("key=value")) {
                let n = || v.parse::<i128>().expect("a number");
                match k {
                    "parent" => parent = names.iter().position(|&p| p == v),
                    "rate" => rate = n(),
                    "ceil" => ceil = Some(n()),
                    "burst" => burst = n(),
                    "prio" => prio = n(),
                    "quantum" => quantum = n(),
                    _ => flow = Some(n() as usize),
                }
            }
            let (ceil, burst) = (ceil.unwrap_or(rate), burst.checked_mul(capacity)?);
            if ceil < rate || burst > i128::MAX / 2 {
                return None;
            }
            if let Some(flow) = flow {
                leaves.push((classes.len(), flow, prio));
                quanta.push(quantum as u64);
            }
            let (tokens, ctokens) = (burst, burst);
            classes.push(Class {
                parent,
                rate,
                ceil,
                burst,
                tokens,
                ctokens,
            });
        }
        let mut levels: Vec<i128> = leaves.iter().map(|l| l.2).collect();
        levels.sort_unstable();
        levels.dedup();
        let rounds = vec![Drr::new(quanta); 3 * levels.len()];
        Some(Htb {
            capacity,
            classes,
            leaves,
            levels,
            rounds,
        })
    }

    fn serve(&mut self, heads: &[Option<u64>]) -> Option<usize> {
        let (classes, leaves, levels) = (&mut self.classes, &self.leaves, &self.levels);
        let mut tiers = (0..3).flat_map(|tier| (0..levels.len()).map(move |level| (tier, level)));
        let (slot, round) = tiers.find_map(|(tier, level)| {
            let head = |s: usize| {
                let (class, flow, prio) = leaves[s];
                let may = prio == levels[level] && eligible(classes, class, tier);
                heads[flow].filter(|_| may)
            };
            let round = tier * levels.len() + level;
            let slot = self.rounds[round].pick(head, |s| heads[leaves[s].1].is_none())?;
            Some((slot, round))
        })?;
        let (class, flow, _) = leaves[slot];
        let b = heads[flow]?;
        self.rounds[round].deficit[slot] -= b;
        let b = i128::from(b);
        for c in classes.iter_mut() {
            c.tokens = (c.tokens + b * c.rate).min(c.burst);
            c.ctokens = (c.ctokens + b * c.ceil).min(c.burst);
        }
        let mut at = Some(class);
        while let Some(c) = at {
            classes[c].tokens -= b * self.capacity;
            classes[c].ctokens -= b * self.capacity;
            at = classes[c].parent;
        }
        Some(flow)
    }
}

/// Whether leaf class `class` may send in `tier`.
fn eligible(classes: &[Class], class: usize, tier: usize) -> bool {
    let chain = std::iter::successors(Some(class), |&c| classes[c].parent);
    let within_ceils = chain.clone().all(|c| classes[c].ctokens >= 0);
    match tier {
        0 => within_ceils && classes[class].tokens >= 0,
        1 => within_ceils && chain.skip(1).any(|c| classes[c].tokens >= 0),
        _ => true,
    }
}

/// The bytes of `packets`.
fn bytes(packets: &[Packet]) -> u64 {
    packets
        .iter()
        .flat_map(|p| &p.segs)
        .map(Vec::len)
        .sum::<usize>() as u64
}

/// Whether a queue's tail packet is open: nothing may go behind it.
fn tail_open(q: &[Packet]) -> bool {
    q.last().is_some_and(|p| p.open)
}

/// Whether a push-out may evict the queue's head packet: it is complete
/// and not mid-service.
fn evictable(q: &[Packet]) -> bool {
    q.first().is_some_and(|p| !p.open && !p.started)
}

/// `flow`'s packets as `qm` holds them, read without counting.
fn queued(qm: &QueueManager, flow: usize) -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut pid = qm.ptr.queue_silent(FlowId::new(flow as u32)).head_pkt;
    while !pid.is_nil() {
        let pr = qm.ptr.pkt_silent(pid);
        let (mut segs, mut seg) = (Vec::new(), pr.first);
        for _ in 0..pr.segs {
            let rec = qm.ptr.seg_silent(seg);
            segs.push(qm.data.read_silent(seg, rec.len.into()).to_vec());
            seg = rec.next;
        }
        let (work, started, open) = (pr.work, pr.started, !pr.eop);
        packets.push(Packet {
            segs,
            work,
            started,
            open,
        });
        pid = pr.next_pkt;
    }
    packets
}

/// An engine of one shape and the model of it, stepped together.
pub(crate) struct Run {
    pub(crate) engine: ShardedQueueManager,
    pub(crate) scheds: Schedulers,
    pub(crate) model: Model,
    /// The next step's index, which tags its payload.
    tag: usize,
}

impl Run {
    pub(crate) fn new(shape: &Shape) -> Self {
        let (engine, scheds) = (shape.engine(), shape.schedulers());
        let (model, tag) = (Model::new(shape, &engine), 0);
        Run {
            engine,
            scheds,
            model,
            tag,
        }
    }

    /// Makes `step` on the engine and on the model and checks that they
    /// agree, in the reply and in everything [`Run::check`] reads; returns
    /// the engine's reply.
    pub(crate) fn step(&mut self, step: Step) -> Result<Res<Reply>, String> {
        let at = format!("step {} {step:?}", self.tag);
        let tag = self.tag as u8;
        self.tag += 1;
        let want = self.model.step(step, tag);
        let got = apply(&mut self.engine, &mut self.scheds, step, tag);
        if got != want {
            return Err(format!("{at}: engine {got:?}, model {want:?}"));
        }
        self.check().map_err(|e| format!("{at}: {e}"))?;
        Ok(got)
    }

    /// `verify`, then per shard the statistics and free counts and per
    /// flow the packets, against the model's.
    fn check(&self) -> Result<(), String> {
        self.engine.verify().map_err(|v| v.to_string())?;
        for s in 0..self.engine.num_shards() {
            let qm = self.engine.shard(s);
            qm.check_indexes().map_err(|e| format!("shard {s}: {e}"))?;
            let got = (*qm.stats(), (qm.free_segments(), qm.free_packet_records()));
            let want = (self.model.stats[s], self.model.free(s));
            if got != want {
                return Err(format!("shard {s}: engine {got:?}, model {want:?}"));
            }
        }
        for (f, want) in self.model.queues.iter().enumerate() {
            let got = queued(self.engine.shard(self.model.home[f]), f);
            if got != *want {
                return Err(format!("flow {f}: engine {got:?}, model {want:?}"));
            }
        }
        Ok(())
    }
}

/// The bytes each flow's drains served in the corpus script `name`, every
/// step checked against the model.
pub(crate) fn drained_bytes(name: &str) -> Vec<u64> {
    let script = CORPUS
        .iter()
        .find(|s| s.name == name)
        .expect("a corpus script");
    let (mut run, mut bytes) = (
        Run::new(&script.shape),
        vec![0; script.shape.flows as usize],
    );
    for &step in script.steps {
        let reply = run.step(step).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Ok(Reply::Drained(Some((flow, packet)))) = reply {
            bytes[flow.as_usize()] += packet.len() as u64;
        }
    }
    bytes
}

/// Runs `steps` on a fresh engine of `shape`, to the engine's final
/// digest, or to the first disagreement with the model or panic (whose
/// message the panic hook has printed).
fn replay(shape: &Shape, steps: &[Step]) -> Result<u64, String> {
    let run = || {
        let mut run = Run::new(shape);
        steps
            .iter()
            .try_for_each(|&step| run.step(step).map(drop))?;
        Ok(run.engine.state_digest())
    };
    std::panic::catch_unwind(run).unwrap_or_else(|_| Err("the engine panicked".into()))
}

/// Delta debugging: drops runs of steps, from half the script down to one
/// step at a time, then halves each step's length, while `fails` holds,
/// until neither shrinks the script.
fn minimise(mut steps: Vec<Step>, fails: impl Fn(&[Step]) -> bool) -> Vec<Step> {
    loop {
        let before = steps.clone();
        let mut run = steps.len().div_ceil(2);
        while run > 0 {
            let mut at = 0;
            while at < steps.len() {
                let mut fewer = steps.clone();
                fewer.drain(at..(at + run).min(steps.len()));
                if fails(&fewer) {
                    steps = fewer;
                } else {
                    at += run;
                }
            }
            run /= 2;
        }
        for i in 0..steps.len() {
            let mut shorter = steps.clone();
            while let Some(len) = shorter[i].len_mut().filter(|len| **len > 1) {
                *len /= 2;
                if !fails(&shorter) {
                    break;
                }
                steps = shorter.clone();
            }
        }
        if steps == before {
            return steps;
        }
    }
}

/// Every corpus script agrees with the model at every step and ends at
/// its digest — the same constant in debug and release builds.
#[test]
fn corpus_replays_to_its_digests() {
    for script in CORPUS {
        let name = script.name;
        let got = replay(&script.shape, script.steps).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(got, script.digest, "{name}: digest {got:#018x}");
    }
}

/// Random scripts on random shapes agree with the model at every step; a
/// failing one is minimised and printed for the corpus.
#[test]
fn engine_matches_the_model() {
    let seed = proptest::seed_for(concat!(module_path!(), "::engine_matches_the_model"));
    let mut rng = proptest::new_rng(seed);
    for case in 0..2000 {
        let (shape, steps) = Scripts(None).generate(&mut rng);
        if replay(&shape, &steps).is_ok() {
            continue;
        }
        let steps = minimise(steps, |steps| replay(&shape, steps).is_err());
        let error = replay(&shape, &steps).expect_err("minimised to a failure");
        let steps: String = steps.iter().map(|s| format!("    {s:?},\n")).collect();
        panic!("case {case} (seed {seed:#x}): {error}\n{shape:?}\n&[\n{steps}]");
    }
}

/// The minimiser keeps what a failure needs and drops the rest.
#[test]
fn minimise_keeps_only_what_fails() {
    let script = [ReadHead(0), EnqueuePacket(1, 40, 0), MovePacket(1, 0)];
    // Fails on a packet of at least 5 bytes on flow 1 that is then moved.
    let fails = |steps: &[Step]| {
        let big = |s: &Step| matches!(s, EnqueuePacket(1, len, _) if *len >= 5);
        let at = steps.iter().position(big);
        at.is_some_and(|at| steps[at..].contains(&MovePacket(1, 0)))
    };
    let minimised = minimise(script.to_vec(), fails);
    assert_eq!(minimised, [EnqueuePacket(1, 5, 0), MovePacket(1, 0)]);
}
