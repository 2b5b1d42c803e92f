//! The engine's command set as a plain [`Model`] — per-flow queues of
//! packets of segments, free space per shard, and for every public call
//! the exact reply or [`QueueError`] and the [`QmStats`] it counts — and the
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
use crate::manager::{DequeuedSegment, QueueManager, SegmentPosition};
use crate::shard::ShardedQueueManager;
use crate::stats::QmStats;
use proptest::Strategy;
use Step::*;

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
    /// Per shard, packet records taken outside the command set.
    pub(crate) held_records: Vec<u32>,
    stats: Vec<QmStats>,
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
            held_records: vec![0; shape.shards],
            stats: vec![QmStats::default(); shape.shards],
        }
    }

    /// Free segments and packet records of shard `shard`: one record per
    /// segment, so records run out only when taken from outside.
    fn free(&self, shard: usize) -> (u32, u32) {
        let packets = (self.queues.iter().zip(&self.home))
            .filter(|&(_, &s)| s == shard)
            .flat_map(|(q, _)| q);
        let (segs, pkts) = packets.fold((0, 0), |(n, k), p| (n + p.segs.len() as u32, k + 1));
        let records = self.segments - pkts - self.held_records[shard];
        (self.segments - segs, records)
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
    /// are served, deleted, moved, peeked or copied.
    fn complete_head(&mut self, flow: FlowId) -> Res<()> {
        self.known(flow)?;
        let open = self.queue(flow).first().is_none_or(|p| p.open);
        self.check(flow, open, QueueEmpty { flow })
    }

    /// Only an open tail packet grows by a segment (else the engine
    /// expected a start), and nothing goes behind one.
    fn tail(&mut self, flow: FlowId, open: bool) -> Res<()> {
        let wrong = self.queue(flow).last().is_some_and(|p| p.open) != open;
        let e = SarProtocol {
            flow,
            expected_start: open,
        };
        self.check(flow, wrong, e)
    }

    fn reserve(&mut self, flow: FlowId, segs: usize, record: bool) -> Res<()> {
        let (free_segs, free_records) = self.free(self.home[flow.as_usize()]);
        self.check(flow, (free_segs as usize) < segs, OutOfSegments)?;
        self.check(flow, record && free_records == 0, OutOfPacketRecords)
    }

    /// The reply the engine owes `step`. `stale` is what the head segment's
    /// slot holds past its length, which `overwrite_head_len` exposes.
    pub(crate) fn step(&mut self, step: Step, tag: u8, stale: &[u8]) -> Res<Reply> {
        let (src, dst, len) = step.parts();
        let (flow, data) = (src, payload(tag, len));
        let done = |r: Res<()>| r.map(|()| DONE);
        let segment = |r: Res<DequeuedSegment>| r.map(|s| Reply::Outcome(Outcome::Segment(s)));
        let dropped = |segs: &[Vec<u8>]| {
            let (segs, bytes) = (segs.len() as u32, segs.concat().len() as u32);
            Reply::Outcome(Outcome::Dropped { segs, bytes })
        };
        match step {
            Enqueue(.., pos) => done(self.enqueue(flow, &data, pos)),
            EnqueuePacket(.., work) => done(self.enqueue_packet(flow, &data, work)),
            SetTailWork(_, work) => done(self.set_tail_work(flow, work)),
            Dequeue(..) => segment(self.pop(flow, true)),
            DequeuePacket(..) => self
                .take(flow, true)
                .map(|p| Reply::Packet(p.segs.concat())),
            PeekPacket(..) => self.peek_packet(flow).map(Reply::Packet),
            ReadHead(_) => segment(self.read_head(flow)),
            OverwriteHead(..) => done(self.overwrite(flow, len, Some(data), stale)),
            OverwriteHeadLen(..) => done(self.overwrite(flow, len, None, stale)),
            DeleteSegment(_) => self.pop(flow, false).map(|s| dropped(&[s.data])),
            DeletePacket(_) => self.take(flow, false).map(|p| dropped(&p.segs)),
            AppendHead(..) => done(self.append(flow, data, true)),
            AppendTail(..) => done(self.append(flow, data, false)),
            MovePacket(..) => done(self.move_packet(src, dst)),
            CopyPacket(..) => done(self.copy_packet(src, dst)),
            OverwriteAndMove(..) | OverwriteLenAndMove(..) => {
                // The overwrite stays when the move is refused.
                let data = matches!(step, OverwriteAndMove(..)).then_some(data);
                let overwrite = self.overwrite(src, len, data, stale);
                done(overwrite.and_then(|()| self.move_packet(src, dst)))
            }
            LongestQueue(_) => Ok(Reply::Longest(self.longest_queue(flow))),
        }
    }

    /// The non-empty flow with the most bytes on `flow`'s shard, ties to
    /// the higher index: a function of the queues alone, however long the
    /// engine's occupancy index slept.
    fn longest_queue(&self, flow: FlowId) -> Option<(FlowId, u64)> {
        let shard = self.home[flow.as_usize()];
        let bytes = |q: &Vec<Packet>| q.iter().flat_map(|p| &p.segs).map(Vec::len).sum::<usize>();
        let queues = self.queues.iter().zip(&self.home).enumerate();
        let on_shard = queues.filter(|&(_, (_, &s))| s == shard);
        let (n, f) = on_shard
            .map(|(f, (q, _))| (bytes(q) as u64, f as u32))
            .max()?;
        (n > 0).then(|| (FlowId::new(f), n))
    }

    fn enqueue(&mut self, flow: FlowId, data: &[u8], pos: SegmentPosition) -> Res<()> {
        self.known(flow)?;
        self.segment_len(flow, data.len())?;
        self.tail(flow, !pos.is_first())?;
        self.reserve(flow, 1, pos.is_first())?;
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

    fn peek_packet(&mut self, flow: FlowId) -> Res<Vec<u8>> {
        self.complete_head(flow)?;
        self.stats(flow).reads += 1;
        Ok(self.queue(flow)[0].segs.concat())
    }

    /// The head segment. Its `eop` says whether it is its packet's last
    /// segment so far: the one segment of an open packet reads as `eop`.
    fn read_head(&mut self, flow: FlowId) -> Res<DequeuedSegment> {
        self.nonempty(flow)?;
        self.stats(flow).reads += 1;
        let p = &self.queue(flow)[0];
        let (data, sop, eop) = (p.segs[0].clone(), !p.started, p.segs.len() == 1);
        Ok(DequeuedSegment { data, sop, eop })
    }

    /// Rewrites the head segment with `new`, or without to `len` bytes,
    /// which past its old length are what its slot held (`old`).
    fn overwrite(&mut self, flow: FlowId, len: usize, new: Option<Vec<u8>>, old: &[u8]) -> Res<()> {
        self.known(flow)?;
        self.segment_len(flow, len)?;
        self.nonempty(flow)?;
        let seg = &mut self.queue(flow)[0].segs[0];
        let count = match new {
            Some(new) => {
                *seg = new;
                &mut self.stats(flow).overwrites
            }
            None => {
                seg.truncate(len);
                seg.extend_from_slice(old.get(seg.len()..len).unwrap_or_default());
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
        self.reserve(flow, 1, false)?;
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

    /// A packet in service may only land at a queue's head. Across shards
    /// a move is a dequeue and an enqueue, each counted by its engine, with
    /// room reserved first; the enqueued packet starts afresh, so a head in
    /// service is refused outright.
    fn move_packet(&mut self, src: FlowId, dst: FlowId) -> Res<()> {
        self.known(src)?;
        self.known(dst)?;
        self.complete_head(src)?;
        let (head, across) = (self.queue(src)[0].clone(), self.across(src, dst));
        let in_service = PacketInService { flow: src };
        self.check(src, across && head.started, in_service)?;
        self.tail(dst, false)?;
        if across {
            let segs = head.segs.concat().len().div_ceil(self.seg_bytes);
            self.reserve(dst, segs, true)?;
            let bytes = self.take(src, true)?.segs.concat();
            return self.enqueue_packet(dst, &bytes, head.work);
        }
        let lands_at_head = match src == dst {
            true => self.queue(src).len() == 1,
            false => self.queue(dst).is_empty(),
        };
        self.check(src, head.started && !lands_at_head, in_service)?;
        let p = self.queue(src).remove(0);
        self.queue(dst).push(p);
        self.stats(src).moves += 1;
        Ok(())
    }

    /// A copy is a fresh packet; across shards, a peek and an
    /// `enqueue_packet`, each counted by its engine.
    fn copy_packet(&mut self, src: FlowId, dst: FlowId) -> Res<()> {
        self.known(src)?;
        self.known(dst)?;
        if self.across(src, dst) {
            let bytes = self.peek_packet(src)?;
            let work = self.queue(src)[0].work;
            return self.enqueue_packet(dst, &bytes, work);
        }
        self.complete_head(src)?;
        self.tail(dst, false)?;
        let mut copy = self.queue(src)[0].clone();
        copy.started = false;
        self.reserve(dst, copy.segs.len(), true)?;
        let st = self.stats(dst);
        st.enqueues += copy.segs.len() as u64;
        st.bytes_in += copy.segs.concat().len() as u64;
        self.queue(dst).push(copy);
        Ok(())
    }
}

/// What the head segment's slot holds, all `seg_bytes` of it, for the
/// steps that rewrite a length: the one thing the model takes from the
/// engine, since a segment grown by `overwrite_head_len` shows whatever
/// its slot held before.
fn exposed(engine: &ShardedQueueManager, step: Step) -> Vec<u8> {
    let (flow, ..) = step.parts();
    let qm = engine.shard(engine.shard_of(flow));
    let grows = matches!(step, OverwriteHeadLen(..) | OverwriteLenAndMove(..));
    if !grows || qm.is_empty(flow) {
        return Vec::new();
    }
    let seg = qm.ptr.pkt_silent(qm.ptr.queue_silent(flow).head_pkt).first;
    let len = qm.config().segment_bytes() as usize;
    qm.data.read_silent(seg, len).to_vec()
}

/// `flow`'s packets as `qm` holds them, read without counting.
fn queued(qm: &QueueManager, flow: usize) -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut pid = qm.ptr.queue_silent(FlowId::new(flow as u32)).head_pkt;
    while !pid.is_nil() {
        let pr = qm.ptr.pkt_silent(pid);
        let segs = qm.ptr.chain(pr.first, pr.last);
        let segs = segs.map(|(seg, len)| qm.data.read_silent(seg, len.into()).to_vec());
        let (work, started, open) = (pr.work, pr.started, !pr.eop);
        let segs = segs.collect();
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
    pub(crate) model: Model,
    /// The next step's index, which tags its payload.
    tag: usize,
}

impl Run {
    pub(crate) fn new(shape: &Shape) -> Self {
        let engine = shape.engine();
        let (model, tag) = (Model::new(shape, &engine), 0);
        Run { engine, model, tag }
    }

    /// Makes `step` on the engine and on the model and checks that they
    /// agree, in the reply and in everything [`Run::check`] reads; returns
    /// the engine's reply.
    pub(crate) fn step(&mut self, step: Step) -> Result<Res<Reply>, String> {
        let at = format!("step {} {step:?}", self.tag);
        let tag = self.tag as u8;
        self.tag += 1;
        let want = self.model.step(step, tag, &exposed(&self.engine, step));
        let got = apply(&mut self.engine, step, tag);
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
    for case in 0..500 {
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
