//! The queue-management engine: the paper's MMS operation set in software.
//!
//! A [`QueueManager`] owns a pointer memory ([`PtrMem`]), a data memory
//! ([`SegmentPool`]) and the two free lists, and executes the operations the
//! paper's hardware offers (§6): enqueue, dequeue, read, overwrite, delete
//! segment / delete packet, append at the head or tail of a packet, move a
//! packet to a new queue, overwrite the segment length, and the fused
//! variants of Table 4.
//!
//! # Open-packet (mid-SAR) semantics
//!
//! While a flow's segmentation-and-reassembly is mid-packet (a `First`
//! segment arrived but its `Last` has not), the queue is *open*: its tail
//! packet is still growing and the next `Middle`/`Last` segment on that
//! flow appends to it. Every operation has a defined behaviour against an
//! open queue — getting this wrong silently tears packets, so the rules
//! are enforced with [`QueueError::SarProtocol`] where an operation would
//! interleave with the in-flight SAR:
//!
//! | operation | open-queue behaviour |
//! |---|---|
//! | [`enqueue`](QueueManager::enqueue) | `Middle`/`Last` extend the open tail; `First`/`Only` are a SAR-protocol error |
//! | [`dequeue`](QueueManager::dequeue), [`delete_segment`](QueueManager::delete_segment) | serve only *complete* packets: while the head packet is the open tail the call is refused with [`QueueError::QueueEmpty`] and nothing is consumed |
//! | [`dequeue_packet`](QueueManager::dequeue_packet), [`delete_packet`](QueueManager::delete_packet) | operate on the head packet only when it is complete; an open head is refused whole with [`QueueError::QueueEmpty`] and nothing is consumed |
//! | [`dequeue_with`](QueueManager::dequeue_with), [`dequeue_packet_with`](QueueManager::dequeue_packet_with) | the lending forms: the same rules, pointer traffic and statistics as [`dequeue`](QueueManager::dequeue) / [`dequeue_packet`](QueueManager::dequeue_packet); the payload is lent to the caller's visitor where the data memory keeps it, and on `Err` the visitor is not called |
//! | [`dequeue_into`](QueueManager::dequeue_into), [`dequeue_packet_into`](QueueManager::dequeue_packet_into) | the buffer-lending forms: the lending forms with a visitor that *appends* the payload to the caller's buffer (and [`dequeue`](QueueManager::dequeue) / [`dequeue_packet`](QueueManager::dequeue_packet) are `Vec::new()` plus these calls); on `Err` the buffer is unchanged |
//! | [`dequeue_packet`](QueueManager::dequeue_packet) on a mid-service head | a complete head packet some of whose segments were already taken by [`dequeue`](QueueManager::dequeue) yields its *remainder* — the segments still queued — in debug and release builds alike |
//! | [`read_head`](QueueManager::read_head), [`overwrite_head`](QueueManager::overwrite_head), [`overwrite_head_len`](QueueManager::overwrite_head_len), [`append_head`](QueueManager::append_head) | touch the head packet's first segment, which exists even mid-SAR |
//! | [`append_tail`](QueueManager::append_tail) | rejected while the tail is open: the trailer would splice into the middle of the unfinished frame |
//! | [`move_packet`](QueueManager::move_packet) | the *destination* tail must not be open (including same-queue rotation past an open tail): the moved complete packet would be linked after the open one and the flow's next `Last` segment would extend the wrong packet. A partially-served (mid-service) head packet may only move to the head of an empty destination |
//! | [`copy_packet`](QueueManager::copy_packet) | as `move_packet`: an open destination is rejected. A partially-served head packet is rejected wherever it would go: the copy is a fresh packet, and the remainder is no whole frame |

use crate::config::QmConfig;
use crate::error::QueueError;
use crate::freelist::{PktFreeList, SegFreeList};
use crate::id::{FlowId, PacketId, SegmentId};
use crate::pool::SegmentPool;
use crate::ptrmem::{PktRecord, PtrMem, PtrMemCounters, QueueRecord, SegRecord};
use crate::stats::QmStats;
use crate::timing::stream::OpStream;

/// Where a segment sits within its packet, from the SAR point of view.
///
/// Start-of-packet and end-of-packet markers drive the engine's packet
/// delimiting, exactly like the SOP/EOP flags on a hardware segment bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentPosition {
    /// The packet's only segment (SOP and EOP).
    Only,
    /// First of several segments (SOP).
    First,
    /// Interior segment.
    Middle,
    /// Final segment (EOP).
    Last,
}

impl SegmentPosition {
    /// Builds a position from SOP/EOP flags.
    pub const fn from_flags(sop: bool, eop: bool) -> Self {
        match (sop, eop) {
            (true, true) => SegmentPosition::Only,
            (true, false) => SegmentPosition::First,
            (false, false) => SegmentPosition::Middle,
            (false, true) => SegmentPosition::Last,
        }
    }

    /// Whether this segment starts a packet.
    pub const fn is_first(self) -> bool {
        matches!(self, SegmentPosition::Only | SegmentPosition::First)
    }

    /// Whether this segment ends a packet.
    pub const fn is_last(self) -> bool {
        matches!(self, SegmentPosition::Only | SegmentPosition::Last)
    }
}

/// A segment returned by [`QueueManager::dequeue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DequeuedSegment {
    /// The segment payload (up to the configured segment size).
    pub data: Vec<u8>,
    /// True if this was the first segment of its packet.
    pub sop: bool,
    /// True if this was the last segment of its packet.
    pub eop: bool,
}

/// What [`QueueManager::dequeue_with`] lent its visitor (and
/// [`QueueManager::dequeue_into`] appended to the caller's buffer): a
/// [`DequeuedSegment`] without the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Payload bytes lent (up to the configured segment size).
    pub len: usize,
    /// True if this was the first segment of its packet.
    pub sop: bool,
    /// True if this was the last segment of its packet.
    pub eop: bool,
}

/// Exact tournament tree over per-flow byte occupancy, for
/// [`QueueManager::longest_queue`].
///
/// `nodes[flows + f]` is flow `f`'s leaf, the key [`occupancy_key`] of its
/// byte count and index, and inner node `i` holds the larger of nodes `2i`
/// and `2i + 1`, so `nodes[1]` is the longest queue, ties to the higher
/// flow. Asleep (no nodes, no work per commit) until the first query
/// builds it from the queue table; from then on every commit rewrites the
/// flow's leaf and walks up only while a node's key changes. The key lives
/// in the node, so a compare reads no queue record and is one `u64`
/// compare: `2 × flows` nodes of 8 bytes. The key fits because
/// [`QmConfigBuilder::build`](crate::config::QmConfigBuilder::build) refuses a
/// configuration whose data memory, in bytes, needs more than
/// `64 − shift` bits.
#[derive(Debug, Clone, Default)]
struct OccupancyIndex {
    nodes: Vec<u64>,
    /// Bits of the highest flow index: the key's byte count sits above them.
    shift: u32,
}

/// A flow's key in the occupancy tree: its byte count shifted above its
/// index, `bytes << shift | flow`, which orders like the pair `(bytes,
/// flow)` while `flow < 2^shift` and `bytes < 2^(64 − shift)`, so equal
/// counts order by flow.
fn occupancy_key(flow: usize, bytes: u64, shift: u32) -> u64 {
    debug_assert!(bytes.leading_zeros() >= shift && (flow as u64) >> shift == 0);
    bytes << shift | flow as u64
}

impl OccupancyIndex {
    /// Builds the tree over `bytes`, one count per flow.
    fn build(bytes: impl ExactSizeIterator<Item = u64>) -> Self {
        let n = bytes.len();
        let shift = usize::BITS - n.saturating_sub(1).leading_zeros();
        let mut nodes = vec![0; 2 * n];
        for (f, b) in bytes.enumerate() {
            nodes[n + f] = occupancy_key(f, b, shift);
        }
        for i in (1..n).rev() {
            nodes[i] = nodes[2 * i].max(nodes[2 * i + 1]);
        }
        OccupancyIndex { nodes, shift }
    }

    /// Sets `flow`'s leaf to `bytes` and repairs the path to the root.
    fn update(&mut self, flow: FlowId, bytes: u64) {
        let mut i = self.nodes.len() / 2 + flow.as_usize();
        let mut key = occupancy_key(flow.as_usize(), bytes, self.shift);
        if self.nodes[i] == key {
            return;
        }
        self.nodes[i] = key;
        while i > 1 {
            key = key.max(self.nodes[i ^ 1]);
            i /= 2;
            if self.nodes[i] == key {
                return;
            }
            self.nodes[i] = key;
        }
    }

    /// The root: the longest queue and its byte count.
    fn top(&self) -> (u32, u64) {
        let (root, flow_mask) = (self.nodes[1], !(u64::MAX << self.shift));
        ((root & flow_mask) as u32, root >> self.shift)
    }
}

/// Unlinks the complete head packet, whose record is `pr`, from `q` and
/// takes it off `q`'s counts.
fn unlink_head(q: &mut QueueRecord, pr: &PktRecord) {
    q.head_pkt = pr.next_pkt;
    if q.head_pkt.is_nil() {
        q.tail_pkt = PacketId::NIL;
    }
    q.pkts -= 1;
    q.complete_pkts -= 1;
    q.segs -= pr.segs;
    q.bytes -= u64::from(pr.bytes);
}

/// Makes packet `pid`, whose record is `pr`, `q`'s tail packet and adds it
/// to `q`'s counts. The old tail's link is written apart, by
/// [`QueueManager::chain_behind`].
fn link_tail(q: &mut QueueRecord, pid: PacketId, pr: &PktRecord) {
    if q.tail_pkt.is_nil() {
        q.head_pkt = pid;
    }
    q.tail_pkt = pid;
    q.pkts += 1;
    q.complete_pkts += u32::from(pr.eop);
    q.open = !pr.eop;
    q.segs += pr.segs;
    q.bytes += u64::from(pr.bytes);
}

/// Per-flow queue-management engine over segment-aligned memory.
///
/// See the [crate-level documentation](crate) for an overview and the
/// paper mapping.
#[derive(Debug, Clone)]
pub struct QueueManager {
    pub(crate) cfg: QmConfig,
    pub(crate) ptr: PtrMem,
    pub(crate) data: SegmentPool,
    pub(crate) seg_fl: SegFreeList,
    pub(crate) pkt_fl: PktFreeList,
    pub(crate) stats: QmStats,
    occ: OccupancyIndex,
    /// One bit per flow, set while the flow has a complete packet ready.
    ready: Vec<u64>,
    /// Memory-access tracing (see [`QueueManager::set_tracing`]).
    tracing: bool,
    /// Pointer-counter snapshot at the last trace cut.
    ptr_mark: PtrMemCounters,
}

impl QueueManager {
    /// Creates an engine with the given configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use npqm_core::{QmConfig, QueueManager};
    /// let qm = QueueManager::new(QmConfig::small());
    /// assert_eq!(qm.free_segments(), 512);
    /// ```
    pub fn new(cfg: QmConfig) -> Self {
        // No record is written here: the free lists materialise each one
        // when they first hand its id out.
        let mut ptr = PtrMem::new(cfg.num_segments(), cfg.num_flows());
        let seg_fl = SegFreeList::init(&mut ptr, cfg.freelist_discipline());
        let pkt_fl = PktFreeList::init(&mut ptr);
        QueueManager {
            data: SegmentPool::new(cfg.num_segments(), cfg.segment_bytes()),
            cfg,
            ptr,
            seg_fl,
            pkt_fl,
            stats: QmStats::default(),
            occ: OccupancyIndex::default(),
            ready: vec![0; cfg.num_flows().div_ceil(64) as usize],
            tracing: false,
            ptr_mark: PtrMemCounters::default(),
        }
    }

    // --- memory-access tracing ----------------------------------------

    /// Enables or disables memory-access tracing for the timing
    /// subsystem ([`crate::timing`]).
    ///
    /// While tracing, every data-memory segment read/write is recorded
    /// (pointer traffic is counted by the always-on
    /// [`PtrMemCounters`]); [`QueueManager::cut_trace`] yields the
    /// traffic since the previous cut as an
    /// [`OpStream`]. Tracing records — it never
    /// changes behaviour, results or counters. Toggling discards any
    /// recorded-but-uncut traffic.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.data.set_tracing(on);
        self.ptr_mark = *self.ptr.counters();
    }

    /// Whether memory-access tracing is enabled.
    pub const fn tracing(&self) -> bool {
        self.tracing
    }

    /// Cuts the trace: returns all memory traffic since the previous cut
    /// (or since tracing was enabled), in execution order. With tracing
    /// off the pointer-counter delta is still exact but the data list is
    /// empty, so callers should enable tracing first.
    pub fn cut_trace(&mut self) -> OpStream {
        let counters = *self.ptr.counters();
        let ptr = counters.since(&self.ptr_mark);
        self.ptr_mark = counters;
        OpStream {
            ptr,
            data: self.data.take_accesses(),
        }
    }

    /// Edits `flow`'s queue record in place, one queue-table write, and
    /// derives the flow's ready bit and, once awake, its occupancy leaf
    /// from the result.
    ///
    /// All queue-table writes go through here so neither index misses a
    /// change. The record is edited where it lives, field by field, as the
    /// MMS writes its queue table: an edited copy handed in and stored
    /// whole was reloaded right after the caller's narrower field stores,
    /// a load the store buffer cannot forward.
    #[inline(always)]
    fn commit_queue(&mut self, flow: FlowId, edit: impl FnOnce(&mut QueueRecord)) {
        let q = self.ptr.queue_mut(flow);
        edit(q);
        let (complete, bytes) = (q.complete_pkts > 0, q.bytes);
        let (word, bit) = (flow.as_usize() / 64, flow.index() % 64);
        let ready = &mut self.ready[word];
        *ready = (*ready & !(1 << bit)) | (u64::from(complete) << bit);
        if !self.occ.nodes.is_empty() {
            self.occ.update(flow, bytes);
        }
    }

    /// The non-empty flow holding the most payload bytes, with that count.
    ///
    /// Reads the root of an exact tournament tree that every commit keeps
    /// current in `O(log flows)`; the first call builds the tree from the
    /// queue table. Each node is one 8-byte key, the byte count packed
    /// above the flow index, which the configuration's key-fit bound
    /// guarantees room for (see [`QmConfigBuilder::build`](crate::config::QmConfigBuilder::build)).
    /// Ties are broken toward the higher flow index. Returns
    /// `None` when every queue is empty. The query itself does not count as
    /// pointer-memory traffic (a hardware implementation would keep this
    /// register alongside the queue table).
    pub fn longest_queue(&mut self) -> Option<(FlowId, u64)> {
        if self.occ.nodes.is_empty() {
            let ptr = &self.ptr;
            let bytes = (0..self.cfg.num_flows()).map(|f| ptr.queue_silent(FlowId::new(f)).bytes);
            self.occ = OccupancyIndex::build(bytes);
        }
        let (flow, bytes) = self.occ.top();
        (bytes > 0).then(|| (FlowId::new(flow), bytes))
    }

    /// The first flow in `from..end` with a complete packet ready
    /// (`complete_packets > 0`), by flow index.
    ///
    /// A word scan of one ready bit per flow that every commit keeps
    /// current, so a scheduler visits only the flows it can serve. Flows
    /// past the engine's count are never ready. Like
    /// [`complete_packets`](Self::complete_packets), it is not
    /// pointer-memory traffic.
    pub fn next_ready(&self, from: usize, end: usize) -> Option<usize> {
        let end = end.min(self.cfg.num_flows() as usize);
        if from >= end {
            return None;
        }
        let mut word = from / 64;
        let mut bits = self.ready[word] & (!0 << (from % 64));
        while bits == 0 {
            word += 1;
            if word * 64 >= end {
                return None;
            }
            bits = self.ready[word];
        }
        let flow = word * 64 + bits.trailing_zeros() as usize;
        (flow < end).then_some(flow)
    }

    /// The engine's configuration.
    pub const fn config(&self) -> &QmConfig {
        &self.cfg
    }

    /// Operation statistics accumulated so far.
    pub const fn stats(&self) -> &QmStats {
        &self.stats
    }

    /// Pointer-memory access counters (ZBT SRAM traffic).
    pub fn ptr_counters(&self) -> crate::ptrmem::PtrMemCounters {
        *self.ptr.counters()
    }

    /// Number of free segments in the data memory.
    pub fn free_segments(&self) -> u32 {
        self.seg_fl.free_count()
    }

    /// Number of data-memory segments currently in use (buffer
    /// occupancy); the complement of [`free_segments`](Self::free_segments).
    pub fn occupied_segments(&self) -> u32 {
        self.cfg.num_segments() - self.seg_fl.free_count()
    }

    /// Lowest free-segment count ever observed.
    pub fn free_segments_low_watermark(&self) -> u32 {
        self.seg_fl.low_watermark()
    }

    /// Number of free packet records in the pointer memory: never fewer
    /// than [`free_segments`](Self::free_segments), since there is one
    /// record per segment and every queued packet holds a segment.
    pub fn free_packet_records(&self) -> u32 {
        self.pkt_fl.free_count()
    }

    fn fail<T>(&mut self, err: QueueError) -> Result<T, QueueError> {
        self.stats.errors += 1;
        Err(err)
    }

    // --- the steps the commands are built from ---------------------------
    //
    // A step makes and counts its own pointer-memory accesses and, when it
    // refuses, counts the refused command's one `stats.errors`; a command
    // is its steps, in the order its refusals are documented. The steps
    // that judge a queue record take the one the command read: handed back
    // inside a `Result`, the record cost every served command ≈3 ns.

    /// Refuses a flow outside the queue table.
    #[inline]
    fn known_flow(&mut self, flow: FlowId) -> Result<(), QueueError> {
        if flow.index() < self.cfg.num_flows() {
            return Ok(());
        }
        self.fail(QueueError::UnknownFlow {
            flow,
            num_flows: self.cfg.num_flows(),
        })
    }

    /// Refuses a payload of `len` bytes that is empty or does not fit a
    /// segment.
    fn segment_len(&mut self, len: usize) -> Result<u16, QueueError> {
        if len == 0 {
            return self.fail(QueueError::EmptyPayload);
        }
        if len > self.cfg.segment_bytes() as usize {
            return self.fail(QueueError::SegmentOverflow {
                len,
                segment_bytes: self.cfg.segment_bytes(),
            });
        }
        Ok(len as u16)
    }

    /// Refuses an empty queue, `q` being `flow`'s record.
    fn nonempty(&mut self, flow: FlowId, q: &QueueRecord) -> Result<(), QueueError> {
        if q.head_pkt.is_nil() {
            return self.fail(QueueError::QueueEmpty { flow });
        }
        Ok(())
    }

    /// Refuses unless `flow`'s head packet, by its record `q`, is complete:
    /// the segment pop and every whole-packet call serve, delete, move,
    /// read and copy complete packets only, never the open tail.
    #[inline]
    fn complete_head(&mut self, flow: FlowId, q: &QueueRecord) -> Result<(), QueueError> {
        if q.head_pkt.is_nil() || (q.open && q.head_pkt == q.tail_pkt) {
            return self.fail(QueueError::QueueEmpty { flow });
        }
        Ok(())
    }

    /// Refuses to put anything behind `flow`'s tail packet while that
    /// packet is open: it would be spliced into the unfinished frame, and
    /// the flow's next `Last` segment would extend the wrong packet.
    fn closed_tail(&mut self, flow: FlowId, q: &QueueRecord) -> Result<(), QueueError> {
        if q.open {
            return self.fail(QueueError::SarProtocol {
                flow,
                expected_start: false,
            });
        }
        Ok(())
    }

    /// Refuses unless `segs` segments are free — up front, so that no
    /// refusal leaves a partial change. A command that also takes a
    /// packet record reserves at least one segment, and that is enough:
    /// see [`PktFreeList::alloc`].
    fn reserve(&mut self, segs: u32) -> Result<(), QueueError> {
        if self.seg_fl.free_count() < segs {
            return self.fail(QueueError::OutOfSegments);
        }
        Ok(())
    }

    /// Takes a free segment, stores `data` in it and writes its record,
    /// linked to `next`.
    fn fresh_segment(&mut self, data: &[u8], next: SegmentId) -> SegmentId {
        let seg = self.seg_fl.alloc(&mut self.ptr).expect("caller reserved");
        self.data.write(seg, data);
        let len = data.len() as u16;
        self.ptr.set_seg(seg, SegRecord { next, len });
        seg
    }

    /// Puts a fresh segment holding `data` behind the last segment of
    /// `flow`'s tail packet `pid`, which with `eop` is complete from then
    /// on, and commits the queue.
    fn extend_tail(&mut self, flow: FlowId, pid: PacketId, data: &[u8], eop: bool) -> SegmentId {
        let seg = self.fresh_segment(data, SegmentId::NIL);
        let mut pr = self.ptr.pkt(pid);
        let mut last = self.ptr.seg(pr.last);
        last.next = seg;
        self.ptr.set_seg(pr.last, last);
        pr.last = seg;
        pr.segs += 1;
        pr.bytes += data.len() as u32;
        pr.eop = eop;
        self.ptr.set_pkt(pid, pr);
        let len = data.len() as u64;
        self.commit_queue(flow, |q| {
            q.segs += 1;
            q.bytes += len;
            if q.open && eop {
                q.open = false;
                q.complete_pkts += 1;
            }
        });
        seg
    }

    /// Takes a packet record (reading it, as the `First` command does),
    /// fills it with `pr`, links it behind `flow`'s tail packet `tail`
    /// and commits the queue.
    // This and `chain_behind` are under `enqueue_packet`: out of line
    // they cost a one-segment packet ≈3 ns, and `pr`, handed over through
    // the caller's stack, was reloaded whole right after its field stores.
    #[inline(always)]
    fn push_packet(&mut self, flow: FlowId, tail: PacketId, pr: PktRecord) {
        let pid = self.pkt_fl.alloc(&mut self.ptr);
        let _ = self.ptr.pkt(pid);
        self.ptr.set_pkt(pid, pr);
        self.chain_behind(tail, pid);
        self.commit_queue(flow, |q| link_tail(q, pid, &pr));
    }

    /// Links packet `pid` behind `tail`, a queue's tail packet; an empty
    /// queue's NIL tail has no record to write.
    #[inline]
    fn chain_behind(&mut self, tail: PacketId, pid: PacketId) {
        if !tail.is_nil() {
            let mut rec = self.ptr.pkt(tail);
            rec.next_pkt = pid;
            self.ptr.set_pkt(tail, rec);
        }
    }

    /// Takes the head segment off `flow`'s head packet and counts the
    /// command: "Dequeue" with `visit`, which is lent the payload where the
    /// data memory keeps it, "Delete one segment" without, where the data
    /// memory is not touched. The head packet must be complete, and the
    /// command reads the queue table twice: the readiness read and the
    /// working read.
    // Forced inline into its callers, and with `dequeue_with` into the
    // scale round's drain closure, so the returned `SegmentInfo` stays in
    // registers: merely `#[inline]`, it was called from that closure and
    // handed its result back through the stack, and the closure's 16-byte
    // copy of it was the drain's hottest load. Out of line, its frame cost
    // every `Command::Dequeue` ≈10 ns — refusals included, and a drain
    // batch over idle flows is mostly refusals. The statistics are counted
    // here so that `dequeue_with` returns this result as it is: unwrapped
    // and wrapped again, a refusal cost ≈5 ns more.
    #[inline(always)]
    fn pop_segment(
        &mut self,
        flow: FlowId,
        visit: Option<impl FnOnce(&[u8])>,
    ) -> Result<SegmentInfo, QueueError> {
        self.known_flow(flow)?;
        let ready = self.ptr.queue(flow);
        self.complete_head(flow, &ready)?;
        let pid = self.ptr.queue(flow).head_pkt;
        let mut pr = self.ptr.pkt(pid);
        let seg = pr.first;
        let rec = self.ptr.seg(seg);
        let info = SegmentInfo {
            len: rec.len as usize,
            sop: !pr.started,
            eop: seg == pr.last,
        };
        if let Some(visit) = visit {
            visit(self.data.read(seg, info.len));
            self.stats.dequeues += 1;
            self.stats.bytes_out += u64::from(rec.len);
        } else {
            self.stats.seg_deletes += 1;
        }
        self.seg_fl.release(&mut self.ptr, seg);
        if info.eop {
            self.pkt_fl.release(&mut self.ptr, pid);
        } else {
            pr.first = rec.next;
            pr.segs -= 1;
            pr.bytes -= u32::from(rec.len);
            pr.started = true;
            self.ptr.set_pkt(pid, pr);
        }
        self.commit_queue(flow, |q| {
            if info.eop {
                unlink_head(q, &pr);
            } else {
                q.segs -= 1;
                q.bytes -= u64::from(rec.len);
            }
        });
        Ok(info)
    }

    /// Gives the head segment of `flow`'s head packet (which exists even
    /// mid-SAR) the length `len` and returns the segment. Unless the
    /// caller `writes` `len` bytes into it, `len` may not exceed the
    /// segment's length: the slot's bytes past it are stale, possibly
    /// another flow's.
    fn resize_head(
        &mut self,
        flow: FlowId,
        len: usize,
        writes: bool,
    ) -> Result<SegmentId, QueueError> {
        self.known_flow(flow)?;
        let len = self.segment_len(len)?;
        let q = self.ptr.queue(flow);
        self.nonempty(flow, &q)?;
        let pid = q.head_pkt;
        let mut pr = self.ptr.pkt(pid);
        let seg = pr.first;
        let mut rec = self.ptr.seg(seg);
        if !writes && len > rec.len {
            return self.fail(QueueError::SegmentOverflow {
                len: usize::from(len),
                segment_bytes: u32::from(rec.len),
            });
        }
        pr.bytes = pr.bytes - u32::from(rec.len) + u32::from(len);
        let old = rec.len;
        rec.len = len;
        self.ptr.set_seg(seg, rec);
        self.ptr.set_pkt(pid, pr);
        self.commit_queue(flow, |q| {
            q.bytes = q.bytes - u64::from(old) + u64::from(len)
        });
        Ok(seg)
    }

    // --- enqueue -------------------------------------------------------

    /// Enqueues one segment on `flow` ("Enqueue one segment", §6).
    ///
    /// Segments of one packet must arrive contiguously per flow, delimited
    /// by the [`SegmentPosition`] SOP/EOP flags.
    ///
    /// Returns the segment id the payload was stored in.
    ///
    /// # Errors
    ///
    /// * [`QueueError::UnknownFlow`] — flow out of range.
    /// * [`QueueError::EmptyPayload`] / [`QueueError::SegmentOverflow`] —
    ///   bad payload size.
    /// * [`QueueError::SarProtocol`] — SOP/EOP sequencing violated.
    /// * [`QueueError::OutOfSegments`] — memory full (the caller should
    ///   drop or backpressure).
    pub fn enqueue(
        &mut self,
        flow: FlowId,
        data: &[u8],
        pos: SegmentPosition,
    ) -> Result<SegmentId, QueueError> {
        self.known_flow(flow)?;
        let len = self.segment_len(data.len())?;
        let q = self.ptr.queue(flow);
        if pos.is_first() {
            self.closed_tail(flow, &q)?;
        } else if !q.open {
            return self.fail(QueueError::SarProtocol {
                flow,
                expected_start: true,
            });
        }
        self.reserve(1)?;
        let seg = if pos.is_first() {
            let seg = self.fresh_segment(data, SegmentId::NIL);
            let pr = PktRecord {
                first: seg,
                last: seg,
                segs: 1,
                bytes: u32::from(len),
                eop: pos.is_last(),
                ..PktRecord::default()
            };
            self.push_packet(flow, q.tail_pkt, pr);
            seg
        } else {
            self.extend_tail(flow, q.tail_pkt, data, pos.is_last())
        };
        self.stats.enqueues += 1;
        self.stats.bytes_in += u64::from(len);
        Ok(seg)
    }

    /// Segments `packet` and enqueues all pieces on `flow`.
    ///
    /// The packet is admitted *as a unit* when nothing can stop it
    /// halfway: `flow` is in range, its queue is not open (no SAR in
    /// flight), and the free list holds the packet's `n` segments — all
    /// read up front without counting. The engine then
    /// keeps the queue record and the packet record in locals, writes each
    /// segment record once with its final link and commits the queue record
    /// once. The modelled pointer-memory traffic
    /// is still that of the `n` segment commands
    /// ([`enqueue`](Self::enqueue) with `First`, `Middle`…, `Last`): what
    /// the transaction did not do through the counting accessors is
    /// *charged* to [`PtrMemCounters`], not re-derived by replaying them.
    /// With `t = 1` if the queue already had a tail packet (else 0), an
    /// `n`-segment packet costs exactly
    ///
    /// | plane | reads | writes |
    /// |---|---|---|
    /// | segment records | 2n − 1 | 2n − 1 |
    /// | packet records | n + 1 + t | n + t |
    /// | queue table | n | n |
    ///
    /// and [`QmStats`] counts `n` enqueues. In every other case the packet
    /// goes through the segment commands one by one, which is also where
    /// the errors below come from.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::enqueue`]; on memory exhaustion midway the
    /// partial packet is deleted again so the queue never holds a torn
    /// packet.
    pub fn enqueue_packet(&mut self, flow: FlowId, packet: &[u8]) -> Result<(), QueueError> {
        if packet.is_empty() {
            return self.fail(QueueError::EmptyPayload);
        }
        let seg_bytes = self.cfg.segment_bytes() as usize;
        let n = self.cfg.segments_for(packet.len());
        let unit = (flow.index() < self.cfg.num_flows())
            .then(|| self.ptr.queue_silent(flow))
            .filter(|q| !q.open && n <= self.seg_fl.free_count() as usize);
        let Some(q) = unit else {
            return self.enqueue_packet_by_segments(flow, packet);
        };

        let (data, mut chunks) = (&mut self.data, packet.chunks(seg_bytes));
        // The `First` command's queue-table read, the uncounted one above.
        let mut owed = PtrMemCounters {
            qt_reads: 1,
            ..PtrMemCounters::default()
        };
        let chain = self
            .seg_fl
            .alloc_chain(&mut self.ptr, n as u32, &mut owed, |_, seg| {
                let chunk = chunks.next().expect("n chunks");
                data.chain_write(seg, chunk);
                chunk.len() as u16
            });
        self.data.count(0, n as u64);
        self.link_packet(flow, q.tail_pkt, chain, n as u32, packet.len() as u32, owed);
        Ok(())
    }

    /// The second half of a whole-packet enqueue: makes the filled chain a
    /// complete packet behind `flow`'s tail packet `tail` and commits the
    /// queue. It charges the command's uncounted accesses, `owed` so far
    /// and what the chain's `n` segment commands count beyond the chain
    /// call and the first command, in one call and ahead of its counted
    /// ones: after them, the charge's vector reload of counters they had
    /// just bumped one by one could not be forwarded from those stores.
    /// Forced inline so that `owed` stays in registers: passed through the
    /// stack, it was reloaded whole right after the caller's field stores.
    #[inline(always)]
    fn link_packet(
        &mut self,
        flow: FlowId,
        tail: PacketId,
        (first, last): (SegmentId, SegmentId),
        n: u32,
        bytes: u32,
        mut owed: PtrMemCounters,
    ) {
        // Not made below: for each of the n − 1 commands after the `First`,
        // its queue-table and packet-record read/write pair and the
        // read/write that links the previous last segment.
        let k = u64::from(n) - 1;
        owed.absorb(&PtrMemCounters {
            seg_reads: k,
            seg_writes: k,
            pkt_reads: k,
            pkt_writes: k,
            qt_reads: k,
            qt_writes: k,
        });
        self.ptr.charge(&owed);
        let pr = PktRecord {
            first,
            last,
            segs: n,
            bytes,
            eop: true,
            ..PktRecord::default()
        };
        self.push_packet(flow, tail, pr);
        self.stats.enqueues += u64::from(n);
        self.stats.bytes_in += u64::from(bytes);
    }

    /// [`enqueue_packet`](Self::enqueue_packet) one segment command at a
    /// time, for a packet that may be refused: protocol errors surface
    /// from the command that meets them and exhaustion midway rolls the
    /// partial packet back.
    fn enqueue_packet_by_segments(
        &mut self,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<(), QueueError> {
        let seg_bytes = self.cfg.segment_bytes() as usize;
        let n = self.cfg.segments_for(packet.len());
        for (i, chunk) in packet.chunks(seg_bytes).enumerate() {
            let pos = SegmentPosition::from_flags(i == 0, i == n - 1);
            if let Err(e) = self.enqueue(flow, chunk, pos) {
                if i > 0 {
                    self.abort_open_packet(flow);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Stamps the required-processing-work of `flow`'s newest (tail)
    /// packet.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] if the flow holds no packet, or
    /// [`QueueError::UnknownFlow`] for an invalid flow.
    pub fn set_tail_work(&mut self, flow: FlowId, work: u32) -> Result<(), QueueError> {
        self.known_flow(flow)?;
        let q = self.ptr.queue(flow);
        self.nonempty(flow, &q)?;
        let mut pr = self.ptr.pkt(q.tail_pkt);
        pr.work = work;
        self.ptr.set_pkt(q.tail_pkt, pr);
        Ok(())
    }

    /// The required-processing-work stamped on `flow`'s head packet, or
    /// `None` for an empty/invalid flow. Uncounted read (a policy query,
    /// like [`QueueManager::head_in_service`]).
    pub fn head_work(&self, flow: FlowId) -> Option<u32> {
        if flow.index() >= self.cfg.num_flows() {
            return None;
        }
        let q = self.ptr.queue_silent(flow);
        if q.head_pkt.is_nil() {
            return None;
        }
        Some(self.ptr.pkt_silent(q.head_pkt).work)
    }

    /// Drops the still-open tail packet of `flow` (rollback path).
    fn abort_open_packet(&mut self, flow: FlowId) {
        let q = self.ptr.queue(flow);
        if !q.open {
            return;
        }
        let pid = q.tail_pkt;
        let pr = self.ptr.pkt(pid);
        let mut owed = PtrMemCounters::default();
        self.seg_fl
            .release_chain(&mut self.ptr, pr.first, pr.last, &mut owed, |_, _| {});
        self.ptr.charge(&owed);
        // Unlink the tail packet: walk to find the predecessor, the new
        // tail (NIL when the packet was the queue's only one).
        let mut prev = PacketId::NIL;
        if q.head_pkt != pid {
            prev = q.head_pkt;
            loop {
                let prec = self.ptr.pkt(prev);
                if prec.next_pkt == pid {
                    let mut fixed = prec;
                    fixed.next_pkt = PacketId::NIL;
                    self.ptr.set_pkt(prev, fixed);
                    break;
                }
                prev = prec.next_pkt;
            }
        }
        self.commit_queue(flow, |q| {
            if prev.is_nil() {
                q.head_pkt = PacketId::NIL;
            }
            q.tail_pkt = prev;
            q.pkts -= 1;
            q.segs -= pr.segs;
            q.bytes -= u64::from(pr.bytes);
            q.open = false;
        });
        self.pkt_fl.release(&mut self.ptr, pid);
    }

    // --- dequeue -------------------------------------------------------

    /// Dequeues the head segment of the head packet ("Dequeue", Table 4).
    ///
    /// The owning form of [`dequeue_into`](Self::dequeue_into): a fresh
    /// `Vec` per segment.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::dequeue_into`].
    pub fn dequeue(&mut self, flow: FlowId) -> Result<DequeuedSegment, QueueError> {
        let mut data = Vec::new();
        let SegmentInfo { sop, eop, .. } = self.dequeue_into(flow, &mut data)?;
        Ok(DequeuedSegment { data, sop, eop })
    }

    /// Dequeues the head segment of the head packet and lends `visit` its
    /// payload where the data memory keeps it — the read side copies
    /// nothing the caller does not copy itself (the paper's §5.3 / Table
    /// 3: the copy, not the pointer work, is what a software queue manager
    /// pays for, so it should be the only per-segment byte cost, and only
    /// where it is wanted). `visit` runs once, before the segment is
    /// released.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] when no complete packet is available,
    /// and [`QueueError::UnknownFlow`]. On `Err` nothing was consumed and
    /// `visit` was not called.
    #[inline]
    pub fn dequeue_with(
        &mut self,
        flow: FlowId,
        visit: impl FnOnce(&[u8]),
    ) -> Result<SegmentInfo, QueueError> {
        self.pop_segment(flow, Some(visit))
    }

    /// Dequeues the head segment of the head packet, *appending* its
    /// payload to `out`: [`dequeue_with`](Self::dequeue_with) with a
    /// visitor that copies.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::dequeue_with`]; on `Err` `out` is unchanged.
    #[inline]
    pub fn dequeue_into(
        &mut self,
        flow: FlowId,
        out: &mut Vec<u8>,
    ) -> Result<SegmentInfo, QueueError> {
        self.dequeue_with(flow, |b| out.extend_from_slice(b))
    }

    /// Dequeues one whole packet, concatenating its segments.
    ///
    /// The owning form of
    /// [`dequeue_packet_into`](Self::dequeue_packet_into): one fresh `Vec`
    /// of the packet's size.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::dequeue_packet_into`].
    pub fn dequeue_packet(&mut self, flow: FlowId) -> Result<Vec<u8>, QueueError> {
        let mut out = Vec::new();
        self.dequeue_packet_into(flow, &mut out)?;
        Ok(out)
    }

    /// Dequeues one whole packet, *appending* its segments to `out` (grown
    /// once by the packet's size), and returns the number of bytes
    /// appended.
    ///
    /// The head packet must be *complete* (not the open tail) and is taken
    /// as a unit: the queue record and the packet record are read once,
    /// the payload is copied from the data memory straight into `out`,
    /// the segments are released in chain order and the queue table and
    /// the occupancy index are committed once. As for
    /// [`enqueue_packet`](Self::enqueue_packet), the modelled traffic is
    /// that of the `n` [`dequeue`](Self::dequeue) commands, charged rather
    /// than replayed — with a LIFO free list exactly
    ///
    /// | plane | reads | writes |
    /// |---|---|---|
    /// | segment records | n | n |
    /// | packet records | n + 1 | n |
    /// | queue table | 2n | n |
    ///
    /// (a FIFO free list adds its own tail read/write per released
    /// segment) — so a packet's enqueue and dequeue together cost
    /// `15n + 2t` accesses, 7.5 per segment operation. A mid-service head
    /// (some segments already dequeued) yields its remainder.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] when the head packet is missing or still
    /// open, and [`QueueError::UnknownFlow`]. A refusal costs what a
    /// refused [`dequeue`](Self::dequeue) command costs (its queue-table
    /// read and one counted error); nothing was consumed and `out` is
    /// unchanged.
    pub fn dequeue_packet_into(
        &mut self,
        flow: FlowId,
        out: &mut Vec<u8>,
    ) -> Result<usize, QueueError> {
        self.pop_packet(
            flow,
            out,
            |out, bytes| out.reserve(bytes),
            |out, b| out.extend_from_slice(b),
        )
    }

    /// Dequeues one whole packet as
    /// [`dequeue_packet_into`](Self::dequeue_packet_into) does — same
    /// charges, statistics and release order — but lends `visit` each
    /// segment's payload where the data memory keeps it, in chain order,
    /// instead of copying it; the slices it sees are the bytes the copy
    /// would append. Returns the packet's length.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::dequeue_packet_into`]; on `Err` `visit` was not
    /// called.
    #[inline]
    pub fn dequeue_packet_with(
        &mut self,
        flow: FlowId,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<usize, QueueError> {
        self.pop_packet(flow, &mut visit, |_, _| {}, |visit, b| visit(b))
    }

    /// The one whole-packet dequeue behind both forms: `start` is told the
    /// packet's length before its first segment, `visit` is lent every
    /// segment's payload in chain order; both get `sink` to write to.
    #[inline(always)]
    fn pop_packet<T: ?Sized>(
        &mut self,
        flow: FlowId,
        sink: &mut T,
        start: impl FnOnce(&mut T, usize),
        mut visit: impl FnMut(&mut T, &[u8]),
    ) -> Result<usize, QueueError> {
        self.known_flow(flow)?;
        let q = self.ptr.queue(flow);
        self.complete_head(flow, &q)?;
        let pid = q.head_pkt;
        let pr = self.ptr.pkt(pid);
        start(sink, pr.bytes as usize);
        let (data, mut owed) = (&mut self.data, PtrMemCounters::default());
        let (n, bytes) =
            self.seg_fl
                .release_chain(&mut self.ptr, pr.first, pr.last, &mut owed, |seg, len| {
                    visit(sink, data.chain_read(seg, len as usize));
                });
        self.data.count(u64::from(n), 0);
        // Not made here: each command's second queue-table read (the
        // readiness check), and for the n − 1 commands before the last
        // their queue-table read/write and packet-record read/write;
        // charged with the chain's accesses, ahead of the counted ones
        // below (see `link_packet`).
        let k = u64::from(n) - 1;
        owed.absorb(&PtrMemCounters {
            pkt_reads: k,
            pkt_writes: k,
            qt_reads: 2 * k + 1,
            qt_writes: k,
            ..PtrMemCounters::default()
        });
        self.ptr.charge(&owed);
        self.pkt_fl.release(&mut self.ptr, pid);
        self.commit_queue(flow, |q| unlink_head(q, &pr));
        self.stats.dequeues += u64::from(n);
        self.stats.bytes_out += u64::from(bytes);
        Ok(bytes as usize)
    }

    // --- in-place operations --------------------------------------------

    /// Reads the head segment without dequeuing it ("Read", Table 4).
    /// Its `eop` says whether it ends its packet: the one segment of a
    /// packet still mid-SAR reads `eop: false`.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] / [`QueueError::UnknownFlow`].
    pub fn read_head(&mut self, flow: FlowId) -> Result<DequeuedSegment, QueueError> {
        self.known_flow(flow)?;
        let q = self.ptr.queue(flow);
        self.nonempty(flow, &q)?;
        let pr = self.ptr.pkt(q.head_pkt);
        let rec = self.ptr.seg(pr.first);
        let payload = self.data.read(pr.first, rec.len as usize).to_vec();
        self.stats.reads += 1;
        Ok(DequeuedSegment {
            data: payload,
            sop: !pr.started,
            eop: pr.first == pr.last && pr.eop,
        })
    }

    /// Overwrites the head segment's payload in place ("Overwrite").
    ///
    /// The new payload may be shorter or longer than the old one (within
    /// the segment size); byte accounting is adjusted.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`], [`QueueError::UnknownFlow`],
    /// [`QueueError::EmptyPayload`], [`QueueError::SegmentOverflow`].
    pub fn overwrite_head(&mut self, flow: FlowId, data: &[u8]) -> Result<(), QueueError> {
        let seg = self.resize_head(flow, data.len(), true)?;
        self.data.write(seg, data);
        self.stats.overwrites += 1;
        Ok(())
    }

    /// Rewrites only the length field of the head segment
    /// ("Overwrite_Segment_length", Table 4) — e.g. trimming a header.
    /// The segment may shrink or keep its length, never grow: the bytes
    /// its slot holds past its length are stale, possibly another flow's.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`], [`QueueError::UnknownFlow`], and
    /// [`QueueError::SegmentOverflow`] when `new_len` exceeds the segment
    /// size or, with `segment_bytes` the head segment's length, that
    /// length; [`QueueError::EmptyPayload`] when `new_len` is zero.
    pub fn overwrite_head_len(&mut self, flow: FlowId, new_len: u16) -> Result<(), QueueError> {
        self.resize_head(flow, usize::from(new_len), false)?;
        self.stats.len_overwrites += 1;
        Ok(())
    }

    // --- delete ----------------------------------------------------------

    /// Deletes the head segment without reading its data ("Delete one
    /// segment") — no DRAM access, which is why the paper's Table 4 shows
    /// Delete as the cheapest command.
    ///
    /// Returns the number of payload bytes dropped.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] when no complete packet is queued;
    /// [`QueueError::UnknownFlow`].
    pub fn delete_segment(&mut self, flow: FlowId) -> Result<u16, QueueError> {
        let info = self.pop_segment(flow, None::<fn(&[u8])>)?;
        Ok(info.len as u16)
    }

    /// Deletes the entire head packet ("Delete … a full packet").
    ///
    /// Returns `(segments, bytes)` dropped.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] when no complete packet is queued;
    /// [`QueueError::UnknownFlow`].
    pub fn delete_packet(&mut self, flow: FlowId) -> Result<(u32, u32), QueueError> {
        self.known_flow(flow)?;
        let q = self.ptr.queue(flow);
        self.complete_head(flow, &q)?;
        let pid = q.head_pkt;
        let pr = self.ptr.pkt(pid);
        let mut owed = PtrMemCounters::default();
        self.seg_fl
            .release_chain(&mut self.ptr, pr.first, pr.last, &mut owed, |_, _| {});
        self.ptr.charge(&owed);
        self.commit_queue(flow, |q| unlink_head(q, &pr));
        self.pkt_fl.release(&mut self.ptr, pid);
        self.stats.pkt_deletes += 1;
        Ok((pr.segs, pr.bytes))
    }

    // --- append ----------------------------------------------------------

    /// Prepends a segment to the head packet ("Append a segment at the
    /// head … of a packet") — e.g. pushing an encapsulation header.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`], [`QueueError::UnknownFlow`], payload
    /// errors, or [`QueueError::OutOfSegments`].
    pub fn append_head(&mut self, flow: FlowId, data: &[u8]) -> Result<SegmentId, QueueError> {
        self.known_flow(flow)?;
        let len = self.segment_len(data.len())?;
        let q = self.ptr.queue(flow);
        self.nonempty(flow, &q)?;
        self.reserve(1)?;
        let pid = q.head_pkt;
        let mut pr = self.ptr.pkt(pid);
        pr.first = self.fresh_segment(data, pr.first);
        pr.segs += 1;
        pr.bytes += u32::from(len);
        // A fresh head restores the packet's "not yet started" state.
        pr.started = false;
        self.ptr.set_pkt(pid, pr);
        self.commit_queue(flow, |q| {
            q.segs += 1;
            q.bytes += u64::from(len);
        });
        self.stats.head_appends += 1;
        Ok(pr.first)
    }

    /// Appends a segment to the tail packet ("Append a segment at the …
    /// tail of a packet") — e.g. adding a trailer. Unlike
    /// [`QueueManager::enqueue`] this works on an already-complete packet
    /// and does not change its completeness; while the tail packet is
    /// still open (mid-SAR) the call is rejected, because the "trailer"
    /// would end up spliced into the middle of the unfinished frame once
    /// its remaining segments arrive.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`], [`QueueError::UnknownFlow`], payload
    /// errors, [`QueueError::OutOfSegments`], or
    /// [`QueueError::SarProtocol`] when the tail packet is still open.
    pub fn append_tail(&mut self, flow: FlowId, data: &[u8]) -> Result<SegmentId, QueueError> {
        self.known_flow(flow)?;
        self.segment_len(data.len())?;
        let q = self.ptr.queue(flow);
        self.nonempty(flow, &q)?;
        self.closed_tail(flow, &q)?;
        self.reserve(1)?;
        let seg = self.extend_tail(flow, q.tail_pkt, data, true);
        self.stats.tail_appends += 1;
        Ok(seg)
    }

    // --- move --------------------------------------------------------------

    /// Moves the head packet of `src` to the tail of `dst` ("Move a packet
    /// to a new queue") in O(1) pointer operations.
    ///
    /// Moving within the same queue rotates the head packet to the tail.
    ///
    /// The destination's tail packet must not be open (mid-SAR) — this
    /// includes rotating within a queue whose own tail is open. Linking a
    /// complete packet after an open one would make the flow's next
    /// `Last` segment extend the wrong packet, and a torn packet would
    /// later be dequeued as if complete.
    ///
    /// Similarly, a head packet that is already partially consumed
    /// (segments dequeued, mid-service) may only move to the *head* of an
    /// empty destination: re-queueing it behind other packets would later
    /// serve its remainder as if it were a whole frame.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] when `src` has no complete packet;
    /// [`QueueError::SarProtocol`] when `dst`'s tail packet is open;
    /// [`QueueError::PacketInService`] when the moved packet is partially
    /// consumed and would not land at the destination's head;
    /// [`QueueError::UnknownFlow`] for either flow.
    pub fn move_packet(&mut self, src: FlowId, dst: FlowId) -> Result<(), QueueError> {
        self.known_flow(src)?;
        self.known_flow(dst)?;
        let sq = self.ptr.queue(src);
        self.complete_head(src, &sq)?;
        let dq0 = (src != dst).then(|| self.ptr.queue(dst));
        self.closed_tail(dst, &dq0.unwrap_or(sq))?;
        if src == dst && sq.pkts == 1 {
            self.stats.moves += 1;
            return Ok(()); // rotating a single packet is a no-op
        }
        let pid = sq.head_pkt;
        let pr = self.ptr.pkt(pid);
        // A mid-service packet may not land behind other packets: only a
        // queue's head may be partially consumed. (Same-queue rotation
        // with pkts > 1 always lands behind another packet.)
        let lands_at_head = dq0.is_some_and(|q| q.tail_pkt.is_nil());
        if pr.started && !lands_at_head {
            return self.fail(QueueError::PacketInService { flow: src });
        }

        let moved = PktRecord {
            next_pkt: PacketId::NIL,
            ..pr
        };
        self.ptr.set_pkt(pid, moved);
        // The destination may be the same queue, then of two or more
        // packets: unlinking its head leaves its tail where it was.
        self.chain_behind(dq0.unwrap_or(sq).tail_pkt, pid);
        if src != dst {
            self.commit_queue(src, |q| unlink_head(q, &pr));
        }
        self.commit_queue(dst, |q| {
            if src == dst {
                unlink_head(q, &pr);
            }
            link_tail(q, pid, &pr);
        });
        self.stats.moves += 1;
        Ok(())
    }

    /// Fused "Overwrite_Segment&Move" (Table 4): rewrite the head segment
    /// of `src`'s head packet, then move that packet to `dst`.
    ///
    /// # Errors
    ///
    /// As [`QueueManager::overwrite_head`] and [`QueueManager::move_packet`].
    pub fn overwrite_and_move(
        &mut self,
        src: FlowId,
        dst: FlowId,
        data: &[u8],
    ) -> Result<(), QueueError> {
        self.overwrite_head(src, data)?;
        self.move_packet(src, dst)
    }

    /// Fused "Overwrite_Segment_length&Move" (Table 4).
    ///
    /// # Errors
    ///
    /// As [`QueueManager::overwrite_head_len`] and
    /// [`QueueManager::move_packet`].
    pub fn overwrite_len_and_move(
        &mut self,
        src: FlowId,
        dst: FlowId,
        new_len: u16,
    ) -> Result<(), QueueError> {
        self.overwrite_head_len(src, new_len)?;
        self.move_packet(src, dst)
    }

    // --- queries -----------------------------------------------------------

    /// Segments currently queued on `flow` (0 for out-of-range flows).
    pub fn queue_len_segments(&self, flow: FlowId) -> u32 {
        if flow.index() >= self.cfg.num_flows() {
            return 0;
        }
        self.ptr.queue_silent(flow).segs
    }

    /// Packets (complete + open) currently queued on `flow`.
    pub fn queue_len_packets(&self, flow: FlowId) -> u32 {
        if flow.index() >= self.cfg.num_flows() {
            return 0;
        }
        self.ptr.queue_silent(flow).pkts
    }

    /// Complete packets ready for dequeue on `flow`.
    pub fn complete_packets(&self, flow: FlowId) -> u32 {
        if flow.index() >= self.cfg.num_flows() {
            return 0;
        }
        self.ptr.queue_silent(flow).complete_pkts
    }

    /// Payload bytes currently queued on `flow`.
    pub fn queue_len_bytes(&self, flow: FlowId) -> u64 {
        if flow.index() >= self.cfg.num_flows() {
            return 0;
        }
        self.ptr.queue_silent(flow).bytes
    }

    /// Whether `flow` holds no data at all.
    pub fn is_empty(&self, flow: FlowId) -> bool {
        self.queue_len_segments(flow) == 0
    }

    /// Payload bytes of the head packet of `flow`, if one exists.
    ///
    /// Used by byte-accounting schedulers (DRR) that must compare the next
    /// packet's size against a deficit counter without dequeuing it.
    pub fn head_packet_bytes(&self, flow: FlowId) -> Option<u64> {
        if flow.index() >= self.cfg.num_flows() {
            return None;
        }
        let q = self.ptr.queue_silent(flow);
        if q.head_pkt.is_nil() {
            return None;
        }
        Some(self.ptr.pkt_silent(q.head_pkt).bytes as u64)
    }

    /// Whether the head packet of `flow` is partially consumed
    /// (mid-service: some of its segments were already dequeued).
    ///
    /// Returns `false` for empty queues and out-of-range flows. Used by
    /// callers that must respect the mid-service movement rules of
    /// [`QueueManager::move_packet`] without dequeuing anything — a
    /// packet's remainder re-queued elsewhere would later be served as if
    /// it were a whole frame.
    pub fn head_in_service(&self, flow: FlowId) -> bool {
        if flow.index() >= self.cfg.num_flows() {
            return false;
        }
        let q = self.ptr.queue_silent(flow);
        if q.head_pkt.is_nil() {
            return false;
        }
        self.ptr.pkt_silent(q.head_pkt).started
    }

    /// Copies the head packet of `src` onto the tail of `dst`, allocating
    /// fresh segments (the "copy operations" of the early ATM queue
    /// managers the paper's §2 surveys — used for multicast/mirroring).
    ///
    /// Unlike [`QueueManager::move_packet`] this is O(packet size): every
    /// segment's payload is duplicated, segment to segment inside the data
    /// memory. The modelled traffic is that of reading the source chain and
    /// [`enqueue`](Self::enqueue)ing each segment on `dst`.
    ///
    /// # Errors
    ///
    /// [`QueueError::QueueEmpty`] when `src` has no complete packet;
    /// [`QueueError::PacketInService`] when its head packet is partially
    /// consumed (the copy would frame the remainder as a whole packet);
    /// [`QueueError::SarProtocol`] when `dst`'s tail packet is open;
    /// [`QueueError::OutOfSegments`] when the copy does not fit (no
    /// partial copy is left behind);
    /// [`QueueError::UnknownFlow`] for either flow.
    pub fn copy_packet(&mut self, src: FlowId, dst: FlowId) -> Result<(), QueueError> {
        self.known_flow(src)?;
        self.known_flow(dst)?;
        let q = self.ptr.queue(src);
        self.complete_head(src, &q)?;
        let pr = self.ptr.pkt(q.head_pkt);
        if pr.started {
            return self.fail(QueueError::PacketInService { flow: src });
        }
        let dst_q = self.ptr.queue(dst);
        self.closed_tail(dst, &dst_q)?;
        self.reserve(pr.segs)?;
        let n = u64::from(pr.segs);
        // The source walk's segment reads and the `First` command's
        // queue-table read, which `dst_q` above stands in for.
        let mut owed = PtrMemCounters {
            seg_reads: n,
            qt_reads: 1,
            ..PtrMemCounters::default()
        };
        let (data, mut from) = (&mut self.data, pr.first);
        let chain = self
            .seg_fl
            .alloc_chain(&mut self.ptr, pr.segs, &mut owed, |ptr, seg| {
                let rec = ptr.seg_silent(from);
                data.chain_copy(from, seg, rec.len as usize);
                from = rec.next;
                rec.len
            });
        self.data.count(n, n);
        self.link_packet(dst, dst_q.tail_pkt, chain, pr.segs, pr.bytes, owed);
        if pr.work != 0 {
            // The copy owes the same processing effort as the original.
            self.set_tail_work(dst, pr.work).expect("just enqueued");
        }
        Ok(())
    }

    /// Verifies every structural invariant of the engine.
    ///
    /// See [`crate::check::verify`] for the list of checks.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn verify(
        &self,
    ) -> Result<crate::check::InvariantReport, crate::check::InvariantViolation> {
        crate::check::verify(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::Outcome;
    use crate::config::FreeListDiscipline;
    use crate::model::{self, Reply, Res, Run, Scripts, Shape, Step, Step::*};
    use crate::shard::ShardedQueueManager;
    use proptest::prelude::*;

    /// Data-memory traffic: `(segment reads, segment writes)`.
    fn data_counters(m: &QueueManager) -> (u64, u64) {
        (m.data.reads(), m.data.writes())
    }

    fn qm() -> QueueManager {
        QueueManager::new(QmConfig::small())
    }

    #[test]
    fn zero_work_enqueue_is_digest_and_counter_identical() {
        // The work dimension must be invisible at work == 0: the model's
        // `EnqueuePacket` step stamps no work then, so it leaves the state
        // digest AND the pointer-memory traffic of a bare `enqueue_packet`.
        let mut legacy = ShardedQueueManager::new(QmConfig::small(), 1);
        let mut work0 = legacy.clone();
        for k in 0..6u32 {
            let (f, len, tag) = (k % 3, 40 + 30 * k as usize, k as u8);
            let payload = model::payload(tag, len);
            let qm = legacy.shard_mut(0);
            qm.enqueue_packet(FlowId::new(f), &payload).unwrap();
            model::apply(&mut work0, &mut Vec::new(), EnqueuePacket(f, len, 0), tag).unwrap();
        }
        for e in [&mut legacy, &mut work0] {
            e.shard_mut(0).dequeue_packet(FlowId::new(0)).unwrap();
        }
        assert_eq!(legacy.state_digest(), work0.state_digest());
        assert_eq!(legacy.ptr_counters(), work0.ptr_counters());
    }

    #[test]
    fn work_survives_queueing_moving_and_copying() {
        let mut m = qm();
        let (a, b, c) = (FlowId::new(0), FlowId::new(1), FlowId::new(2));
        for (payload, work) in [(&[7u8; 100][..], 5), (&[8u8; 64], 2)] {
            m.enqueue_packet(a, payload).unwrap();
            m.set_tail_work(a, work).unwrap();
        }
        assert_eq!(m.head_work(a), Some(5));
        // A copy owes the same effort as the original.
        m.copy_packet(a, c).unwrap();
        assert_eq!(m.head_work(c), Some(5));
        // A move carries the record (and its work) wholesale.
        m.move_packet(a, b).unwrap();
        assert_eq!(m.head_work(b), Some(5));
        assert_eq!(m.head_work(a), Some(2));
        // Work changes the digest: a work-5 head differs from work-0.
        let d1 = crate::check::state_digest(&m);
        m.set_tail_work(b, 0).unwrap();
        assert_ne!(d1, crate::check::state_digest(&m));
        // Dequeue recycles the record; the next packet starts at 0.
        m.dequeue_packet(b).unwrap();
        m.enqueue_packet(b, &[9u8; 30]).unwrap();
        assert_eq!(m.head_work(b), Some(0));
        assert_eq!(m.head_work(FlowId::new(7)), None, "empty flow");
        m.verify().unwrap();
    }

    #[test]
    fn set_tail_work_rejects_empty_and_unknown_flows() {
        let mut m = qm();
        assert!(matches!(
            m.set_tail_work(FlowId::new(0), 3),
            Err(QueueError::QueueEmpty { .. })
        ));
        assert!(m.set_tail_work(FlowId::new(10_000), 3).is_err());
        assert_eq!(m.head_work(FlowId::new(10_000)), None);
    }

    #[test]
    fn single_segment_packet_round_trip() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue(f, b"hello", SegmentPosition::Only).unwrap();
        assert_eq!(m.queue_len_packets(f), 1);
        assert_eq!(m.complete_packets(f), 1);
        let seg = m.dequeue(f).unwrap();
        assert!(seg.sop && seg.eop);
        assert_eq!(seg.data, b"hello");
        assert!(m.is_empty(f));
        m.verify().unwrap();
    }

    #[test]
    fn multi_segment_fifo_order() {
        let mut m = qm();
        let f = FlowId::new(3);
        m.enqueue(f, &[1; 64], SegmentPosition::First).unwrap();
        m.enqueue(f, &[2; 64], SegmentPosition::Middle).unwrap();
        m.enqueue(f, &[3; 10], SegmentPosition::Last).unwrap();
        assert_eq!(m.queue_len_segments(f), 3);
        assert_eq!(m.queue_len_bytes(f), 138);
        let a = m.dequeue(f).unwrap();
        assert!(a.sop && !a.eop);
        assert_eq!(a.data, vec![1; 64]);
        let b = m.dequeue(f).unwrap();
        assert!(!b.sop && !b.eop);
        let c = m.dequeue(f).unwrap();
        assert!(!c.sop && c.eop);
        assert_eq!(c.data, vec![3; 10]);
        m.verify().unwrap();
    }

    #[test]
    fn incomplete_packet_is_not_served() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue(f, &[0; 64], SegmentPosition::First).unwrap();
        assert_eq!(m.dequeue(f), Err(QueueError::QueueEmpty { flow: f }));
        m.enqueue(f, &[0; 64], SegmentPosition::Last).unwrap();
        assert!(m.dequeue(f).is_ok());
    }

    #[test]
    fn sar_protocol_violations() {
        let mut m = qm();
        let f = FlowId::new(2);
        assert!(matches!(
            m.enqueue(f, b"x", SegmentPosition::Middle),
            Err(QueueError::SarProtocol {
                expected_start: true,
                ..
            })
        ));
        m.enqueue(f, b"x", SegmentPosition::First).unwrap();
        assert!(matches!(
            m.enqueue(f, b"y", SegmentPosition::First),
            Err(QueueError::SarProtocol {
                expected_start: false,
                ..
            })
        ));
        assert_eq!(m.stats().errors, 2);
    }

    #[test]
    fn interleaved_flows_are_independent() {
        let mut m = qm();
        let f1 = FlowId::new(1);
        let f2 = FlowId::new(2);
        m.enqueue(f1, &[1; 64], SegmentPosition::First).unwrap();
        m.enqueue(f2, b"whole", SegmentPosition::Only).unwrap();
        m.enqueue(f1, &[1; 8], SegmentPosition::Last).unwrap();
        assert_eq!(m.dequeue_packet(f2).unwrap(), b"whole");
        let p = m.dequeue_packet(f1).unwrap();
        assert_eq!(p.len(), 72);
        m.verify().unwrap();
    }

    #[test]
    fn enqueue_packet_dequeue_packet_round_trip() {
        let mut m = qm();
        let f = FlowId::new(5);
        let pkt: Vec<u8> = (0..200).map(|i| i as u8).collect();
        m.enqueue_packet(f, &pkt).unwrap();
        assert_eq!(m.queue_len_segments(f), 4); // 64+64+64+8
        assert_eq!(m.dequeue_packet(f).unwrap(), pkt);
        m.verify().unwrap();
    }

    #[test]
    fn read_head_does_not_consume() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue(f, b"peekme", SegmentPosition::Only).unwrap();
        let r = m.read_head(f).unwrap();
        assert_eq!(r.data, b"peekme");
        assert!(r.sop && r.eop);
        assert_eq!(m.queue_len_segments(f), 1);
        assert_eq!(m.dequeue(f).unwrap().data, b"peekme");
    }

    #[test]
    fn overwrite_head_replaces_data_and_accounts_bytes() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue(f, b"old-data", SegmentPosition::Only).unwrap();
        m.overwrite_head(f, b"new").unwrap();
        assert_eq!(m.queue_len_bytes(f), 3);
        assert_eq!(m.dequeue(f).unwrap().data, b"new");
        m.verify().unwrap();
    }

    #[test]
    fn overwrite_head_len_trims() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue(f, &[9u8; 40], SegmentPosition::Only).unwrap();
        m.overwrite_head_len(f, 20).unwrap();
        assert_eq!(m.queue_len_bytes(f), 20);
        assert_eq!(m.dequeue(f).unwrap().data, vec![9u8; 20]);
        assert!(m.overwrite_head_len(f, 1).is_err(), "queue now empty");
    }

    #[test]
    fn delete_segment_and_packet() {
        let mut m = qm();
        let f = FlowId::new(7);
        m.enqueue_packet(f, &[1u8; 130]).unwrap(); // 3 segments
        m.enqueue_packet(f, &[2u8; 64]).unwrap(); // 1 segment
        assert_eq!(m.delete_segment(f).unwrap(), 64);
        assert_eq!(m.queue_len_segments(f), 3);
        let (segs, bytes) = m.delete_packet(f).unwrap();
        assert_eq!(segs, 2);
        assert_eq!(bytes, 66);
        // Only the second packet remains.
        assert_eq!(m.dequeue_packet(f).unwrap(), vec![2u8; 64]);
        assert_eq!(m.free_segments(), m.config().num_segments());
        m.verify().unwrap();
    }

    #[test]
    fn append_head_prepends_header() {
        let mut m = qm();
        let f = FlowId::new(1);
        m.enqueue_packet(f, b"payload").unwrap();
        m.append_head(f, b"HDR:").unwrap();
        let out = m.dequeue_packet(f).unwrap();
        assert_eq!(out, b"HDR:payload");
        m.verify().unwrap();
    }

    #[test]
    fn append_tail_adds_trailer() {
        let mut m = qm();
        let f = FlowId::new(1);
        m.enqueue_packet(f, b"payload").unwrap();
        m.append_tail(f, b":TRL").unwrap();
        let out = m.dequeue_packet(f).unwrap();
        assert_eq!(out, b"payload:TRL");
        m.verify().unwrap();
    }

    #[test]
    fn move_packet_between_queues() {
        let mut m = qm();
        let a = FlowId::new(1);
        let b = FlowId::new(2);
        m.enqueue_packet(a, b"first").unwrap();
        m.enqueue_packet(a, b"second").unwrap();
        m.move_packet(a, b).unwrap();
        assert_eq!(m.queue_len_packets(a), 1);
        assert_eq!(m.queue_len_packets(b), 1);
        assert_eq!(m.dequeue_packet(b).unwrap(), b"first");
        assert_eq!(m.dequeue_packet(a).unwrap(), b"second");
        m.verify().unwrap();
    }

    #[test]
    fn move_packet_same_queue_rotates() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue_packet(f, b"one").unwrap();
        m.enqueue_packet(f, b"two").unwrap();
        m.move_packet(f, f).unwrap();
        assert_eq!(m.dequeue_packet(f).unwrap(), b"two");
        assert_eq!(m.dequeue_packet(f).unwrap(), b"one");
        m.verify().unwrap();
    }

    #[test]
    fn move_single_packet_same_queue_is_noop() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue_packet(f, b"solo").unwrap();
        m.move_packet(f, f).unwrap();
        assert_eq!(m.dequeue_packet(f).unwrap(), b"solo");
    }

    #[test]
    fn fused_overwrite_and_move() {
        let mut m = qm();
        let a = FlowId::new(1);
        let b = FlowId::new(2);
        m.enqueue_packet(a, b"xxxx").unwrap();
        m.overwrite_and_move(a, b, b"yyyy").unwrap();
        assert_eq!(m.dequeue_packet(b).unwrap(), b"yyyy");
        m.enqueue_packet(a, &[5u8; 30]).unwrap();
        m.overwrite_len_and_move(a, b, 10).unwrap();
        assert_eq!(m.dequeue_packet(b).unwrap(), vec![5u8; 10]);
        m.verify().unwrap();
    }

    #[test]
    fn out_of_segments_is_clean() {
        let cfg = QmConfig::builder()
            .num_flows(2)
            .num_segments(2)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut m = QueueManager::new(cfg);
        let f = FlowId::new(0);
        m.enqueue(f, &[0; 64], SegmentPosition::Only).unwrap();
        m.enqueue(f, &[0; 64], SegmentPosition::Only).unwrap();
        assert_eq!(
            m.enqueue(f, &[0; 64], SegmentPosition::Only),
            Err(QueueError::OutOfSegments)
        );
        m.verify().unwrap();
    }

    #[test]
    fn enqueue_packet_rolls_back_on_exhaustion() {
        let cfg = QmConfig::builder()
            .num_flows(2)
            .num_segments(2)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut m = QueueManager::new(cfg);
        let f = FlowId::new(0);
        // 3 segments needed, only 2 available: must fail and roll back.
        assert!(m.enqueue_packet(f, &[0u8; 190]).is_err());
        assert!(m.is_empty(f));
        assert_eq!(m.free_segments(), 2);
        m.verify().unwrap();
        // The queue is usable afterwards.
        m.enqueue_packet(f, &[1u8; 100]).unwrap();
        assert_eq!(m.dequeue_packet(f).unwrap(), vec![1u8; 100]);
    }

    #[test]
    fn unknown_flow_is_rejected() {
        let mut m = qm();
        let bad = FlowId::new(1_000_000);
        assert!(matches!(
            m.enqueue(bad, b"x", SegmentPosition::Only),
            Err(QueueError::UnknownFlow { .. })
        ));
        assert!(matches!(
            m.dequeue(bad),
            Err(QueueError::UnknownFlow { .. })
        ));
        assert_eq!(m.queue_len_segments(bad), 0);
        assert!(m.is_empty(bad));
    }

    #[test]
    fn payload_validation() {
        let mut m = qm();
        let f = FlowId::new(0);
        assert_eq!(
            m.enqueue(f, b"", SegmentPosition::Only),
            Err(QueueError::EmptyPayload)
        );
        assert!(matches!(
            m.enqueue(f, &[0; 65], SegmentPosition::Only),
            Err(QueueError::SegmentOverflow { len: 65, .. })
        ));
    }

    #[test]
    fn stats_track_operations() {
        let mut m = qm();
        let f = FlowId::new(0);
        m.enqueue_packet(f, &[0u8; 100]).unwrap();
        m.read_head(f).unwrap();
        m.overwrite_head(f, b"zz").unwrap();
        m.dequeue_packet(f).unwrap();
        let s = *m.stats();
        assert_eq!(s.enqueues, 2);
        assert_eq!(s.dequeues, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.overwrites, 1);
        assert_eq!(s.bytes_in, 100);
        assert_eq!(s.bytes_out, 38); // 2 (overwritten head) + 36 tail
    }

    #[test]
    fn segment_position_flags() {
        assert_eq!(
            SegmentPosition::from_flags(true, true),
            SegmentPosition::Only
        );
        assert_eq!(
            SegmentPosition::from_flags(true, false),
            SegmentPosition::First
        );
        assert_eq!(
            SegmentPosition::from_flags(false, false),
            SegmentPosition::Middle
        );
        assert_eq!(
            SegmentPosition::from_flags(false, true),
            SegmentPosition::Last
        );
        assert!(SegmentPosition::Only.is_first() && SegmentPosition::Only.is_last());
        assert!(!SegmentPosition::Middle.is_first() && !SegmentPosition::Middle.is_last());
    }

    #[test]
    fn head_packet_bytes_reports_head_only() {
        let mut m = qm();
        let f = FlowId::new(2);
        assert_eq!(m.head_packet_bytes(f), None);
        m.enqueue_packet(f, &[1u8; 100]).unwrap();
        m.enqueue_packet(f, &[2u8; 300]).unwrap();
        assert_eq!(m.head_packet_bytes(f), Some(100));
        m.dequeue_packet(f).unwrap();
        assert_eq!(m.head_packet_bytes(f), Some(300));
        assert_eq!(m.head_packet_bytes(FlowId::new(1_000_000)), None);
    }

    #[test]
    fn head_in_service_tracks_partial_consumption() {
        let mut m = qm();
        let f = FlowId::new(1);
        assert!(!m.head_in_service(f), "empty queue has no served head");
        m.enqueue_packet(f, &[3u8; 130]).unwrap(); // 3 segments
        assert!(!m.head_in_service(f));
        m.dequeue(f).unwrap();
        assert!(m.head_in_service(f), "one segment gone, head mid-service");
        m.dequeue(f).unwrap();
        m.dequeue(f).unwrap();
        assert!(!m.head_in_service(f), "packet fully served");
        assert!(!m.head_in_service(FlowId::new(1_000_000)));
    }

    #[test]
    fn free_packet_records_follow_allocation() {
        let mut m = qm();
        let total = m.free_packet_records();
        m.enqueue_packet(FlowId::new(0), &[0u8; 200]).unwrap();
        assert_eq!(m.free_packet_records(), total - 1);
        m.dequeue_packet(FlowId::new(0)).unwrap();
        assert_eq!(m.free_packet_records(), total);
    }

    #[test]
    fn copy_packet_duplicates_payload() {
        let mut m = qm();
        let a = FlowId::new(1);
        let b = FlowId::new(2);
        let pkt: Vec<u8> = (0..150).map(|i| i as u8).collect();
        m.enqueue_packet(a, &pkt).unwrap();
        m.copy_packet(a, b).unwrap();
        // Source untouched, destination holds an identical copy.
        assert_eq!(m.dequeue_packet(a).unwrap(), pkt);
        assert_eq!(m.dequeue_packet(b).unwrap(), pkt);
        m.verify().unwrap();
    }

    #[test]
    fn copy_packet_multicast_fanout() {
        let mut m = qm();
        let src = FlowId::new(0);
        m.enqueue_packet(src, b"multicast me").unwrap();
        for dst in 1..5u32 {
            m.copy_packet(src, FlowId::new(dst)).unwrap();
        }
        for dst in 1..5u32 {
            assert_eq!(m.dequeue_packet(FlowId::new(dst)).unwrap(), b"multicast me");
        }
        assert_eq!(m.queue_len_packets(src), 1, "source keeps its copy");
        m.verify().unwrap();
    }

    #[test]
    fn copy_packet_capacity_is_atomic() {
        let cfg = QmConfig::builder()
            .num_flows(2)
            .num_segments(3)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut m = QueueManager::new(cfg);
        let a = FlowId::new(0);
        m.enqueue_packet(a, &[0u8; 128]).unwrap(); // 2 of 3 segments
        assert_eq!(
            m.copy_packet(a, FlowId::new(1)),
            Err(QueueError::OutOfSegments)
        );
        assert!(m.is_empty(FlowId::new(1)), "no torn copy");
        m.verify().unwrap();
    }

    #[test]
    fn copy_packet_rejects_open_destination() {
        let mut m = qm();
        let a = FlowId::new(0);
        let b = FlowId::new(1);
        m.enqueue_packet(a, b"src").unwrap();
        m.enqueue(b, &[1; 64], SegmentPosition::First).unwrap(); // open
        assert!(matches!(
            m.copy_packet(a, b),
            Err(QueueError::SarProtocol { .. })
        ));
        m.verify().unwrap();
    }

    #[test]
    fn longest_queue_tracks_occupancy() {
        let mut m = qm();
        assert_eq!(m.longest_queue(), None, "fresh engine has no backlog");
        m.enqueue_packet(FlowId::new(1), &[1u8; 100]).unwrap();
        m.enqueue_packet(FlowId::new(2), &[2u8; 300]).unwrap();
        m.enqueue_packet(FlowId::new(3), &[3u8; 200]).unwrap();
        assert_eq!(m.longest_queue(), Some((FlowId::new(2), 300)));
        // Drain the leader: the maximum must follow the queue table.
        m.dequeue_packet(FlowId::new(2)).unwrap();
        assert_eq!(m.longest_queue(), Some((FlowId::new(3), 200)));
        m.dequeue_packet(FlowId::new(3)).unwrap();
        m.dequeue_packet(FlowId::new(1)).unwrap();
        assert_eq!(m.longest_queue(), None);
    }

    #[test]
    fn occupancy_index_sleeps_until_first_queried() {
        use crate::policy::{DropPolicy, DynamicThreshold};
        // A policy that never asks for the longest queue leaves the index
        // empty however many commits it makes...
        let mut m = qm();
        let mut dt = DynamicThreshold::new(2.0);
        for k in 0..400u32 {
            let packet = vec![k as u8; 1 + k as usize % 150];
            let _ = dt.offer(&mut m, FlowId::new(k % 7), &packet);
            if k % 3 == 0 {
                let _ = m.dequeue_packet(FlowId::new(k % 5));
            }
        }
        assert!(m.stats().enqueues > 0 && m.stats().dequeues > 0);
        assert!(m.occ.nodes.is_empty());
        // ...and the first query builds it from the queue table.
        let expect = (0..7)
            .map(|i| (m.queue_len_bytes(FlowId::new(i)), i))
            .max()
            .filter(|&(bytes, _)| bytes > 0)
            .map(|(bytes, i)| (FlowId::new(i), bytes));
        assert!(expect.is_some(), "the run left a backlog");
        assert_eq!(m.longest_queue(), expect);
        assert_eq!(m.occ.nodes.len(), 2 * m.config().num_flows() as usize);
        m.check_indexes().unwrap();
        m.verify().unwrap();
    }

    /// Packed keys order exactly like `(bytes, flow)` pairs, and decode to
    /// them, at the extremes of every key width a configuration can have:
    /// the largest byte count beside the key's flow bits, flow 0 against
    /// the top flow, and equal counts (the higher flow wins).
    #[test]
    fn packed_occupancy_keys_order_like_byte_flow_pairs() {
        for shift in [0, 1, 7, 15, 17, 31, 32] {
            let top_flow = !(u64::MAX << shift) as usize;
            let max_bytes = u64::MAX >> shift;
            let mut pairs = Vec::new();
            for bytes in [0, 1, max_bytes / 2, max_bytes - 1, max_bytes] {
                for flow in [0, 1, top_flow / 2, top_flow.saturating_sub(1), top_flow] {
                    pairs.push((bytes, flow.min(top_flow)));
                }
            }
            for &(b, f) in &pairs {
                let key = occupancy_key(f, b, shift);
                let root = OccupancyIndex {
                    nodes: vec![0, key],
                    shift,
                };
                assert_eq!(root.top(), (f as u32, b), "shift {shift}");
                for &(b2, f2) in &pairs {
                    assert_eq!(
                        key.cmp(&occupancy_key(f2, b2, shift)),
                        (b, f).cmp(&(b2, f2)),
                        "shift {shift}: ({b}, {f}) against ({b2}, {f2})"
                    );
                }
            }
        }
    }

    impl QueueManager {
        /// The ready bits and, once awake, every node of the occupancy
        /// tree against the queue table.
        pub(crate) fn check_indexes(&self) -> Result<(), String> {
            let n = self.cfg.num_flows() as usize;
            for f in 0..n {
                let q = self.ptr.queue_silent(FlowId::new(f as u32));
                let bit = self.ready[f / 64] >> (f % 64) & 1 == 1;
                if bit != (q.complete_pkts > 0) {
                    return Err(format!("flow {f}: ready bit {bit}, {q:?}"));
                }
                let leaf = self.occ.nodes.get(n + f);
                if leaf.is_some_and(|&leaf| leaf != occupancy_key(f, q.bytes, self.occ.shift)) {
                    return Err(format!("flow {f}: occupancy leaf {leaf:?}, {q:?}"));
                }
            }
            let past = |&w: &u64| !n.is_multiple_of(64) && w >> (n % 64) != 0;
            if self.ready.len() != n.div_ceil(64) || self.ready.last().is_some_and(past) {
                return Err(format!("ready bits past flow {n}: {:?}", self.ready.last()));
            }
            let shift = usize::BITS - (n - 1).leading_zeros();
            match self.occ.nodes.len() {
                0 => Ok(()),
                _ if self.occ.shift != shift => Err(format!(
                    "occupancy key shift {} for {n} flows, want {shift}",
                    self.occ.shift
                )),
                len if len == 2 * n => (1..n)
                    .map(|i| (i, self.occ.nodes[i]))
                    .find(|&(i, node)| node != self.occ.nodes[2 * i].max(self.occ.nodes[2 * i + 1]))
                    .map_or(Ok(()), |(i, node)| {
                        Err(format!("occupancy node {i}: {node:?}"))
                    }),
                len => Err(format!("{len} occupancy nodes for {n} flows")),
            }
        }
    }

    /// The occupancy tree and the ready bits agree with scans of the queue
    /// table after every command, at flow counts on either side of the
    /// bitmap's word and the tree's power-of-two edges and at the paper's
    /// 32K. Payloads of one or two whole segments make equal byte counts
    /// (the tie goes to the higher flow), and SAR segments leave flows whose
    /// only packet is open: bytes queued, nothing ready.
    #[test]
    fn occupancy_tree_and_ready_bits_match_scans_under_churn() {
        use npqm_sim::rng::Xoshiro256pp;
        for (flows, steps) in [(1, 800), (3, 800), (65, 800), (1000, 800), (32768, 200)] {
            let cfg = QmConfig::builder()
                .num_flows(flows)
                .num_segments(96)
                .segment_bytes(64)
                .build()
                .unwrap();
            let mut m = QueueManager::new(cfg);
            let mut rng = Xoshiro256pp::seed_from_u64(u64::from(flows));
            let hot: Vec<u32> = (0..6)
                .map(|_| rng.next_below(flows.into()) as u32)
                .collect();
            let pick = |rng: &mut Xoshiro256pp| FlowId::new(hot[rng.next_below(6) as usize]);
            let (mut ties, mut open_only) = (0, 0);
            for step in 0..steps {
                let f = pick(&mut rng);
                let payload = [step as u8; 128];
                let _ = match rng.next_below(8) {
                    0..=2 => m.enqueue_packet(f, &payload[..64 << rng.next_below(2)]),
                    3 | 4 => m.dequeue_packet(f).map(drop),
                    5 => m.delete_packet(f).map(drop),
                    6 => m.move_packet(f, pick(&mut rng)),
                    _ => {
                        let first = !m.ptr.queue_silent(f).open;
                        let pos = SegmentPosition::from_flags(first, rng.next_below(2) == 0);
                        m.enqueue(f, &payload[..64], pos).map(drop)
                    }
                };
                let scan: Vec<QueueRecord> = (0..flows)
                    .map(|g| m.ptr.queue_silent(FlowId::new(g)))
                    .collect();
                if step == steps / 4 {
                    assert!(m.occ.nodes.is_empty(), "no query has woken the tree");
                }
                if step >= steps / 4 {
                    let want = (0..flows)
                        .map(|g| (scan[g as usize].bytes, g))
                        .max()
                        .filter(|&(bytes, _)| bytes > 0);
                    let got = m.longest_queue();
                    assert_eq!(
                        got,
                        want.map(|(b, g)| (FlowId::new(g), b)),
                        "{flows} flows, step {step}"
                    );
                    let top = want.map_or(0, |(bytes, _)| bytes);
                    ties +=
                        usize::from(top > 0 && scan.iter().filter(|q| q.bytes == top).count() > 1);
                }
                open_only += usize::from(scan.iter().any(|q| q.bytes > 0 && q.complete_pkts == 0));
                m.check_indexes()
                    .unwrap_or_else(|e| panic!("{flows} flows, step {step}: {e}"));
                for _ in 0..4 {
                    let from = rng.next_below(u64::from(flows) + 2) as usize;
                    let end = rng.next_below(u64::from(flows) + 2) as usize;
                    let want = (from..end.min(flows as usize)).find(|&g| scan[g].complete_pkts > 0);
                    assert_eq!(
                        m.next_ready(from, end),
                        want,
                        "{flows} flows, {from}..{end}"
                    );
                }
            }
            assert!(
                open_only > 0,
                "{flows} flows: no flow held only an open packet"
            );
            assert!(
                flows == 1 || ties > 0,
                "{flows} flows: no tie for the longest queue"
            );
            m.verify().unwrap();
        }
    }

    #[test]
    fn longest_queue_matches_scan_under_churn() {
        // Many operations between queries: the tree must follow every
        // commit, not only the ones a query sees.
        let mut m = qm();
        let mut step = 0u64;
        for round in 0..50u32 {
            for i in 0..16u32 {
                let f = FlowId::new(i);
                step += 1;
                if step.is_multiple_of(3) {
                    let _ = m.dequeue_packet(f);
                } else {
                    let len = 1 + ((step * 37) % 180) as usize;
                    let _ = m.enqueue_packet(f, &vec![i as u8; len]);
                }
            }
            let expect = (0..m.config().num_flows())
                .map(|i| (m.queue_len_bytes(FlowId::new(i)), i))
                .max()
                .filter(|&(bytes, _)| bytes > 0)
                .map(|(bytes, i)| (FlowId::new(i), bytes));
            assert_eq!(m.longest_queue(), expect, "round {round}");
        }
        m.verify().unwrap();
    }

    #[test]
    fn dequeue_packet_of_a_mid_service_head_returns_the_remainder() {
        let pkt: Vec<u8> = (0..150).map(|i| i as u8).collect();
        type Take = fn(&mut QueueManager, FlowId) -> Result<Vec<u8>, QueueError>;
        let takes: [Take; 2] = [QueueManager::dequeue_packet, dequeue_packet_by_segments];
        for take in takes {
            let mut m = qm();
            let f = FlowId::new(2);
            m.enqueue_packet(f, &pkt).unwrap(); // 64 + 64 + 22
            assert_eq!(m.dequeue(f).unwrap().data, pkt[..64]);
            assert!(m.head_in_service(f));
            assert_eq!(take(&mut m, f).unwrap(), pkt[64..]);
            assert!(m.is_empty(f));
            m.verify().unwrap();
        }
    }

    #[test]
    fn whole_packet_traffic_matches_the_documented_formulas() {
        for n in [1u64, 3, 24] {
            for t in [0u64, 1] {
                let mut m = qm();
                let f = FlowId::new(0);
                if t == 1 {
                    m.enqueue_packet(f, b"already queued").unwrap();
                }
                let before = m.ptr_counters();
                m.enqueue_packet(f, &vec![7u8; 64 * n as usize]).unwrap();
                let enq = m.ptr_counters().since(&before);
                assert_eq!((enq.seg_reads, enq.seg_writes), (2 * n - 1, 2 * n - 1));
                assert_eq!((enq.pkt_reads, enq.pkt_writes), (n + 1 + t, n + t));
                assert_eq!((enq.qt_reads, enq.qt_writes), (n, n));

                if t == 1 {
                    m.dequeue_packet(f).unwrap();
                }
                let before = m.ptr_counters();
                assert_eq!(m.dequeue_packet(f).unwrap().len() as u64, 64 * n);
                let deq = m.ptr_counters().since(&before);
                assert_eq!((deq.seg_reads, deq.seg_writes), (n, n));
                assert_eq!((deq.pkt_reads, deq.pkt_writes), (n + 1, n));
                assert_eq!((deq.qt_reads, deq.qt_writes), (2 * n, n));
                assert_eq!(enq.total() + deq.total(), 15 * n + 2 * t);
            }
        }

        // Every other command that writes the queue table, plane by plane,
        // under each free list, from one state: flow 0 holds a 150-byte
        // packet (64 + 64 + 22) and a 10-byte one, flow 1 a 10-byte packet
        // and a 100-byte one (64 + 36), flow 2 nothing and flow 3 an open
        // `First` segment; 16 segments, 9 of them free. Constants recorded
        // while commits still copied the whole record back.
        let fixture = |freelist| {
            let cfg = QmConfig::builder()
                .num_flows(4)
                .num_segments(16)
                .segment_bytes(64)
                .freelist_discipline(freelist)
                .build()
                .unwrap();
            let mut m = QueueManager::new(cfg);
            m.enqueue_packet(F::new(0), &[1; 150]).unwrap();
            m.enqueue_packet(F::new(0), &[2; 10]).unwrap();
            m.enqueue_packet(F::new(1), &[3; 10]).unwrap();
            m.enqueue_packet(F::new(1), &[4; 100]).unwrap();
            m.enqueue(F::new(3), &[5; 64], First).unwrap();
            m
        };
        type Call = fn(&mut QueueManager) -> Result<(), QueueError>;
        type F = FlowId;
        use SegmentPosition::{First, Last, Middle, Only};
        // A refused call that must be refused for want of segments.
        fn refused(r: Result<(), QueueError>) -> Result<(), QueueError> {
            assert_eq!(r, Err(QueueError::OutOfSegments));
            Ok(())
        }
        // (command, [LIFO, FIFO] as [seg r, seg w, pkt r, pkt w, qt r, qt w])
        let table: [(&str, Call, [[u64; 6]; 2]); 27] = [
            (
                "enqueue Only, empty queue",
                |m| m.enqueue(F::new(2), &[6; 9], Only).map(drop),
                [[1, 1, 2, 1, 1, 1], [1, 1, 2, 1, 1, 1]],
            ),
            (
                "enqueue Only, behind a tail",
                |m| m.enqueue(F::new(0), &[6; 9], Only).map(drop),
                [[1, 1, 3, 2, 1, 1], [1, 1, 3, 2, 1, 1]],
            ),
            (
                "enqueue First, empty queue",
                |m| m.enqueue(F::new(2), &[6; 64], First).map(drop),
                [[1, 1, 2, 1, 1, 1], [1, 1, 2, 1, 1, 1]],
            ),
            (
                "enqueue First, behind a tail",
                |m| m.enqueue(F::new(0), &[6; 64], First).map(drop),
                [[1, 1, 3, 2, 1, 1], [1, 1, 3, 2, 1, 1]],
            ),
            (
                "enqueue Middle",
                |m| m.enqueue(F::new(3), &[6; 64], Middle).map(drop),
                [[2, 2, 1, 1, 1, 1], [2, 2, 1, 1, 1, 1]],
            ),
            (
                "enqueue Last",
                |m| m.enqueue(F::new(3), &[6; 9], Last).map(drop),
                [[2, 2, 1, 1, 1, 1], [2, 2, 1, 1, 1, 1]],
            ),
            (
                "enqueue_packet, 3 segments, empty queue",
                |m| m.enqueue_packet(F::new(2), &[6; 150]),
                [[5, 5, 4, 3, 3, 3], [5, 5, 4, 3, 3, 3]],
            ),
            (
                "enqueue_packet, 3 segments, behind a tail",
                |m| m.enqueue_packet(F::new(0), &[6; 150]),
                [[5, 5, 5, 4, 3, 3], [5, 5, 5, 4, 3, 3]],
            ),
            (
                "enqueue_packet rolled back, empty queue",
                |m| refused(m.enqueue_packet(F::new(2), &[6; 640])),
                [[23, 23, 11, 9, 10, 9], [30, 30, 11, 9, 10, 9]],
            ),
            (
                "enqueue_packet rolled back, behind 2 packets",
                |m| refused(m.enqueue_packet(F::new(0), &[6; 640])),
                [[23, 23, 14, 11, 10, 9], [30, 30, 14, 11, 10, 9]],
            ),
            (
                "dequeue, first of 3 segments",
                |m| m.dequeue(F::new(0)).map(drop),
                [[1, 1, 1, 1, 2, 1], [2, 2, 1, 1, 2, 1]],
            ),
            (
                "dequeue, a 1-segment packet",
                |m| m.dequeue(F::new(1)).map(drop),
                [[1, 1, 2, 1, 2, 1], [2, 2, 2, 1, 2, 1]],
            ),
            (
                "delete_segment, first of 3",
                |m| m.delete_segment(F::new(0)).map(drop),
                [[1, 1, 1, 1, 2, 1], [2, 2, 1, 1, 2, 1]],
            ),
            (
                "delete_segment, a 1-segment packet",
                |m| m.delete_segment(F::new(1)).map(drop),
                [[1, 1, 2, 1, 2, 1], [2, 2, 2, 1, 2, 1]],
            ),
            (
                "dequeue_packet, 3 segments",
                |m| m.dequeue_packet(F::new(0)).map(drop),
                [[3, 3, 4, 3, 6, 3], [6, 6, 4, 3, 6, 3]],
            ),
            (
                "dequeue_packet, 1 segment",
                |m| m.dequeue_packet(F::new(1)).map(drop),
                [[1, 1, 2, 1, 2, 1], [2, 2, 2, 1, 2, 1]],
            ),
            (
                "delete_packet, 3 segments",
                |m| m.delete_packet(F::new(0)).map(drop),
                [[3, 3, 2, 1, 1, 1], [6, 6, 2, 1, 1, 1]],
            ),
            (
                "delete_packet, 1 segment",
                |m| m.delete_packet(F::new(1)).map(drop),
                [[1, 1, 2, 1, 1, 1], [2, 2, 2, 1, 1, 1]],
            ),
            (
                "overwrite_head",
                |m| m.overwrite_head(F::new(0), &[7; 20]),
                [[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
            ),
            (
                "overwrite_head_len",
                |m| m.overwrite_head_len(F::new(0), 8),
                [[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
            ),
            (
                "append_head",
                |m| m.append_head(F::new(0), &[8; 12]).map(drop),
                [[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1]],
            ),
            (
                "append_tail",
                |m| m.append_tail(F::new(0), &[9; 12]).map(drop),
                [[2, 2, 1, 1, 1, 1], [2, 2, 1, 1, 1, 1]],
            ),
            (
                "move_packet, to an empty queue",
                |m| m.move_packet(F::new(0), F::new(2)),
                [[0, 0, 1, 1, 2, 2], [0, 0, 1, 1, 2, 2]],
            ),
            (
                "move_packet, behind a tail",
                |m| m.move_packet(F::new(0), F::new(1)),
                [[0, 0, 2, 2, 2, 2], [0, 0, 2, 2, 2, 2]],
            ),
            (
                "move_packet, rotation",
                |m| m.move_packet(F::new(0), F::new(0)),
                [[0, 0, 2, 2, 1, 1], [0, 0, 2, 2, 1, 1]],
            ),
            (
                "copy_packet, to an empty queue",
                |m| m.copy_packet(F::new(0), F::new(2)),
                [[8, 5, 5, 3, 5, 3], [8, 5, 5, 3, 5, 3]],
            ),
            (
                "copy_packet, behind a tail",
                |m| m.copy_packet(F::new(0), F::new(1)),
                [[8, 5, 6, 4, 5, 3], [8, 5, 6, 4, 5, 3]],
            ),
        ];
        for (i, freelist) in [FreeListDiscipline::Lifo, FreeListDiscipline::Fifo]
            .into_iter()
            .enumerate()
        {
            for (what, call, want) in &table {
                let mut m = fixture(freelist);
                let before = m.ptr_counters();
                call(&mut m).unwrap();
                let d = m.ptr_counters().since(&before);
                let got = [
                    d.seg_reads,
                    d.seg_writes,
                    d.pkt_reads,
                    d.pkt_writes,
                    d.qt_reads,
                    d.qt_writes,
                ];
                assert_eq!(got, want[i], "{what} ({freelist:?})");
                m.verify().unwrap();
            }
        }

        // Each lending form beside its copying twin, step by step on two
        // copies of the fixture under each free list: the same replies,
        // pointer traffic, statistics, pool reads and free-list order, and
        // the visitor sees exactly the bytes the copy appends (to a buffer
        // that already holds one). A refusal — an empty queue, an open
        // tail, an unknown flow, a drained queue — calls no visitor and
        // consumes nothing.
        use crate::check::state_digest;
        let seen = |m: &QueueManager| {
            let free = (m.seg_fl.collect_free(&m.ptr), m.pkt_fl.collect_free(&m.ptr));
            (m.ptr_counters(), *m.stats(), data_counters(m), free)
        };
        // (flow, whole packet): flow 0's first segment, its remainder, flow
        // 1's two packets, then the rest and every refusal.
        let steps = [
            (0, false),
            (0, true),
            (1, true),
            (1, false),
            (1, false),
            (0, true),
            (2, false),
            (2, true),
            (3, false),
            (3, true),
            (4, false),
            (4, true),
            (0, false),
            (0, true),
        ];
        for freelist in [FreeListDiscipline::Lifo, FreeListDiscipline::Fifo] {
            let (mut copy, mut lend) = (fixture(freelist), fixture(freelist));
            for (i, &(f, whole)) in steps.iter().enumerate() {
                let (flow, digest, pool) = (F::new(f), state_digest(&lend), seen(&lend));
                let (mut out, mut lent, mut calls) = (vec![0xEE], vec![0xEE], 0);
                let mut visit = |b: &[u8]| {
                    calls += 1;
                    lent.extend_from_slice(b);
                };
                let refused = if whole {
                    let r = copy.dequeue_packet_into(flow, &mut out);
                    assert_eq!(r, lend.dequeue_packet_with(flow, &mut visit), "step {i}");
                    r.is_err()
                } else {
                    let r = copy.dequeue_into(flow, &mut out);
                    assert_eq!(r, lend.dequeue_with(flow, &mut visit), "step {i}");
                    r.is_err()
                };
                assert_eq!(out, lent, "step {i} ({freelist:?})");
                assert_eq!(seen(&copy), seen(&lend), "step {i} ({freelist:?})");
                if refused {
                    assert_eq!(calls, 0, "step {i}");
                    // Its one counted error aside, the state is as it was.
                    let mut undone = lend.clone();
                    undone.stats.errors -= 1;
                    assert_eq!(state_digest(&undone), digest, "step {i}");
                    let (ptr, _, data, free) = seen(&lend);
                    assert_eq!((data, free), (pool.2, pool.3), "step {i}");
                    assert!(ptr.seg_reads == pool.0.seg_reads && ptr.pkt_reads == pool.0.pkt_reads);
                } else {
                    assert!(calls >= 1 && out.len() > 1, "step {i}");
                }
                lend.verify().unwrap();
            }
            assert_eq!(state_digest(&copy), state_digest(&lend));
        }
    }

    /// The differential below runs its scripts on one engine of this shape,
    /// under both free lists: few enough segments that packets of up to ten
    /// run the pool dry.
    const DIFF: Shape = Shape {
        flows: 3,
        segments: 14,
        seg_bytes: 16,
        freelist: FreeListDiscipline::Lifo,
        shards: 1,
    };

    /// [`QueueManager::dequeue_packet`] one segment command at a time, as
    /// every packet left the engine before there were whole-packet
    /// transactions: the reference the differential test holds them to.
    fn dequeue_packet_by_segments(
        m: &mut QueueManager,
        flow: FlowId,
    ) -> Result<Vec<u8>, QueueError> {
        let mut out = Vec::new();
        loop {
            let seg = m.dequeue(flow)?;
            out.extend_from_slice(&seg.data);
            if seg.eop {
                return Ok(out);
            }
        }
    }

    /// The segment loop every whole-packet release ran before the chain
    /// calls: a counted read and a `release` per segment.
    fn release_by_segments(m: &mut QueueManager, first: SegmentId) {
        let mut cur = first;
        while !cur.is_nil() {
            let rec = m.ptr.seg(cur);
            m.seg_fl.release(&mut m.ptr, cur);
            cur = rec.next;
        }
    }

    /// `enqueue_packet_by_segments` with its rollback,
    /// `abort_open_packet`, over that loop.
    fn reference_enqueue_packet(
        m: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<(), QueueError> {
        let seg_bytes = m.config().segment_bytes() as usize;
        let n = packet.len().div_ceil(seg_bytes);
        for (i, chunk) in packet.chunks(seg_bytes).enumerate() {
            let pos = SegmentPosition::from_flags(i == 0, i == n - 1);
            let Err(e) = m.enqueue(flow, chunk, pos) else {
                continue;
            };
            if i > 0 {
                let q = m.ptr.queue(flow);
                let pid = q.tail_pkt;
                let pr = m.ptr.pkt(pid);
                release_by_segments(m, pr.first);
                let mut prev = PacketId::NIL;
                if q.head_pkt != pid {
                    prev = q.head_pkt;
                    loop {
                        let mut prec = m.ptr.pkt(prev);
                        if prec.next_pkt == pid {
                            prec.next_pkt = PacketId::NIL;
                            m.ptr.set_pkt(prev, prec);
                            break;
                        }
                        prev = prec.next_pkt;
                    }
                }
                m.commit_queue(flow, |q| {
                    if prev.is_nil() {
                        q.head_pkt = PacketId::NIL;
                    }
                    q.tail_pkt = prev;
                    q.pkts -= 1;
                    q.segs -= pr.segs;
                    q.bytes -= u64::from(pr.bytes);
                    q.open = false;
                });
                m.pkt_fl.release(&mut m.ptr, pid);
            }
            return Err(e);
        }
        Ok(())
    }

    /// [`QueueManager::delete_packet`] over the segment loop.
    fn delete_packet_by_segments(
        m: &mut QueueManager,
        flow: FlowId,
    ) -> Result<(u32, u32), QueueError> {
        m.known_flow(flow)?;
        let q = m.ptr.queue(flow);
        m.complete_head(flow, &q)?;
        let pid = q.head_pkt;
        let pr = m.ptr.pkt(pid);
        release_by_segments(m, pr.first);
        m.commit_queue(flow, |q| unlink_head(q, &pr));
        m.pkt_fl.release(&mut m.ptr, pid);
        m.stats.pkt_deletes += 1;
        Ok((pr.segs, pr.bytes))
    }

    /// [`QueueManager::copy_packet`] as it ran before the chain calls: each
    /// source segment read out and enqueued on `dst` by a segment command
    /// (with today's refusal of a head in service).
    fn copy_packet_by_segments(
        m: &mut QueueManager,
        src: FlowId,
        dst: FlowId,
    ) -> Result<(), QueueError> {
        m.known_flow(src)?;
        m.known_flow(dst)?;
        let q = m.ptr.queue(src);
        m.complete_head(src, &q)?;
        let pr = m.ptr.pkt(q.head_pkt);
        if pr.started {
            return m.fail(QueueError::PacketInService { flow: src });
        }
        let dst_q = m.ptr.queue(dst);
        m.closed_tail(dst, &dst_q)?;
        m.reserve(pr.segs)?;
        let mut cur = pr.first;
        while !cur.is_nil() {
            let rec = m.ptr.seg(cur);
            let data = m.data.read(cur, rec.len as usize).to_owned();
            let pos = SegmentPosition::from_flags(cur == pr.first, rec.next.is_nil());
            m.enqueue(dst, &data, pos).expect("capacity reserved");
            cur = rec.next;
        }
        if pr.work != 0 {
            m.set_tail_work(dst, pr.work).expect("just enqueued");
        }
        Ok(())
    }

    /// Makes `step`'s call on `e`'s one engine as [`model::apply`] does,
    /// but with the packet calls going through the segment-command loops
    /// above, as every packet did before there were whole-packet
    /// transactions.
    fn apply_by_segments(
        e: &mut ShardedQueueManager,
        scheds: &mut model::Schedulers,
        step: Step,
        tag: u8,
    ) -> Res<Reply> {
        let (m, f) = (e.shard_mut(0), FlowId::new);
        let done = |r: Res<()>| r.map(|()| Reply::Outcome(Outcome::Done));
        match step {
            EnqueuePacket(_, 0, _) => m.fail(QueueError::EmptyPayload),
            EnqueuePacket(flow, len, work) => {
                let result = reference_enqueue_packet(m, f(flow), &model::payload(tag, len));
                done(result.and_then(|()| match work {
                    0 => Ok(()),
                    _ => m.set_tail_work(f(flow), work),
                }))
            }
            DequeuePacket(flow, _) => dequeue_packet_by_segments(m, f(flow)).map(Reply::Packet),
            CopyPacket(src, dst) => done(copy_packet_by_segments(m, f(src), f(dst))),
            DeletePacket(flow) => delete_packet_by_segments(m, f(flow))
                .map(|(segs, bytes)| Reply::Outcome(Outcome::Dropped { segs, bytes })),
            _ => model::apply(e, scheds, step, tag),
        }
    }

    /// Runs `script` on twin engines — the whole-packet calls on `unit`,
    /// checked against the model as well, their by-segment references on
    /// `segs` — over every free-list discipline, comparing after every step
    /// the call's result and everything an observer can read: state,
    /// modelled traffic plane by plane, statistics, watermark, invariants
    /// and the memory trace. Every script starts by running the pool dry in
    /// the middle of a packet, so exhaustion and the `abort_open_packet`
    /// rollback are in each. Tracing is on from step `trace_from`.
    fn run_differential(script: &[Step], trace_from: usize) -> Result<(), TestCaseError> {
        let fill = |flow, segs| EnqueuePacket(flow, segs * DIFF.seg_bytes as usize, 0);
        let dry = [fill(0, 9), fill(1, 8), fill(1, 5), fill(0, 6)];
        // Everything an observer can read, the modelled traffic plane by
        // plane.
        let observe = |m: &mut QueueManager| {
            let digest = crate::check::state_digest(m);
            let counts = (m.ptr_counters(), data_counters(m), *m.stats());
            let low = m.free_segments_low_watermark();
            (digest, counts, low, m.verify(), m.longest_queue())
        };
        for freelist in [FreeListDiscipline::Lifo, FreeListDiscipline::Fifo] {
            let shape = Shape { freelist, ..DIFF };
            let mut unit = Run::new(&shape);
            let (mut segs, mut scheds) = (shape.engine(), shape.schedulers());
            let mut exhausted = 0;
            for (i, &step) in dry.iter().chain(script).enumerate() {
                let at = format!("step {i} {step:?} ({freelist:?})");
                if i == trace_from {
                    unit.engine.set_tracing(true);
                    segs.set_tracing(true);
                }
                let u = unit.engine.shard(0);
                let (ptr_before, (reads_before, writes_before)) =
                    (u.ptr_counters(), data_counters(u));
                let got = unit.step(step).map_err(TestCaseError::fail)?;
                let want = apply_by_segments(&mut segs, &mut scheds, step, i as u8);
                let refused = matches!(got, Err(QueueError::OutOfSegments));
                exhausted += usize::from(matches!(step, EnqueuePacket(..)) && refused);
                prop_assert_eq!(got, want, "{}", at);
                let (u, s) = (unit.engine.shard_mut(0), segs.shard_mut(0));
                prop_assert_eq!(observe(u), observe(s), "{}", at);
                // The pointer delta and the `DataAccess` list, in order; the
                // list's per-segment records are the bursts counted per chain.
                let trace = u.cut_trace();
                prop_assert_eq!(&trace, &s.cut_trace(), "{}", at);
                if i >= trace_from {
                    let writes = trace.data.iter().filter(|a| a.write).count() as u64;
                    let reads = trace.data.len() as u64 - writes;
                    let (r, w) = data_counters(u);
                    prop_assert_eq!(
                        (reads, writes),
                        (r - reads_before, w - writes_before),
                        "{}",
                        at
                    );
                    prop_assert_eq!(trace.ptr, u.ptr_counters().since(&ptr_before), "{}", at);
                } else {
                    prop_assert!(trace.data.is_empty(), "{}", at);
                }
            }
            prop_assert!(exhausted >= 2, "the opening fill must run the pool dry");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The whole-packet transactions against the segment-command loops
        /// they stand for, on scripts from the model's generator: after
        /// every step both engines agree on the call's result and on
        /// everything an observer can read — state, modelled traffic plane
        /// by plane, statistics, watermark, invariants and the memory trace.
        #[test]
        fn whole_packet_calls_match_the_segment_commands(
            script in Scripts(Some(DIFF)),
        ) {
            run_differential(&script.1, 0)?;
        }

        /// The same with tracing switched on halfway: the chain calls
        /// record one `DataAccess` per segment only while tracing, in the
        /// segment commands' order, and what they record reconciles with
        /// the bursts and pointer accesses they count per chain.
        #[test]
        fn whole_packet_calls_leave_the_trace_of_the_segment_commands(
            script in Scripts(Some(DIFF)),
        ) {
            run_differential(&script.1, script.1.len() / 2)?;
        }
    }

    /// The queues [`staged`] builds, one per state a refusal depends on:
    /// nothing queued.
    const EMPTY: u32 = 0;
    /// A lone `First` segment: the head packet is open.
    const OPEN: u32 = 1;
    /// A complete packet with an open one behind it.
    const OPEN_TAIL: u32 = 2;
    /// A three-segment packet whose first segment is already dequeued.
    const SERVED: u32 = 3;
    /// Complete packets only, the head one of two segments and cut to 8
    /// bytes.
    const READY: u32 = 4;
    /// One past the queue table.
    const BAD: u32 = 5;

    /// An engine of 16-byte segments holding the queues above, with `free`
    /// segments left (at most 4); and the model of it.
    fn staged(free: u32) -> Run {
        use SegmentPosition::{First, Only};
        let shape = Shape {
            flows: 5,
            segments: 12,
            ..DIFF
        };
        let mut run = Run::new(&shape);
        let staging = [
            Enqueue(OPEN, 16, First),
            EnqueuePacket(OPEN_TAIL, 20, 0),
            Enqueue(OPEN_TAIL, 16, First),
            EnqueuePacket(SERVED, 40, 0),
            Dequeue(SERVED, None),
            EnqueuePacket(READY, 20, 0),
            OverwriteHeadLen(READY, 8),
        ];
        for step in staging {
            run.step(step).unwrap().unwrap();
        }
        while run.engine.shard(0).free_segments() > free {
            run.step(Enqueue(READY, 16, Only)).unwrap().unwrap();
        }
        run
    }

    /// Every refusal of every command: the error the model predicts, the
    /// one `stats.errors` it counts, the pointer-memory reads made before
    /// the refusing check — and nothing else: no write, no data burst, no
    /// other statistic, the state digest as it was. The constants were
    /// recorded at the parent of the commit that built the commands from
    /// shared steps, so a step that reorders a check or adds a read fails
    /// here (only `set_tail_work`'s two rows differ from there: its
    /// refusals counted no error; the two rows of a length rewrite that
    /// would grow the head segment came later, and read its record). Two
    /// kinds of refusal do leave a trace
    /// and are held elsewhere: a packet that runs out of segments midway
    /// (its rollback traffic is pinned by the differential test above), and
    /// the fused commands' second half (the overwrite stays; each half is a
    /// command in this table).
    #[test]
    fn every_refusal_costs_what_it_did() {
        use SegmentPosition::{First, Middle, Only};
        // The call and the free segments; then its cost: errors counted,
        // queue-table reads, packet-record reads, segment-record reads.
        #[rustfmt::skip]
        let rows: Vec<(Step, u32, u64, u64, u64, u64)> = vec![
            (Enqueue(BAD, 16, Only), 4, 1, 0, 0, 0),
            (Enqueue(EMPTY, 0, Only), 4, 1, 0, 0, 0),
            (Enqueue(EMPTY, 17, Only), 4, 1, 0, 0, 0),
            (Enqueue(OPEN, 16, First), 4, 1, 1, 0, 0),
            (Enqueue(OPEN_TAIL, 16, Only), 4, 1, 1, 0, 0),
            (Enqueue(READY, 16, Middle), 4, 1, 1, 0, 0),
            (Enqueue(EMPTY, 16, Only), 0, 1, 1, 0, 0),
            (Enqueue(OPEN, 16, Middle), 0, 1, 1, 0, 0),
            (EnqueuePacket(BAD, 40, 0), 4, 1, 0, 0, 0),
            (EnqueuePacket(EMPTY, 0, 0), 4, 1, 0, 0, 0),
            (EnqueuePacket(OPEN, 40, 0), 4, 1, 1, 0, 0),
            (EnqueuePacket(EMPTY, 40, 0), 0, 1, 1, 0, 0),
            (EnqueuePacket(BAD, 40, 3), 4, 1, 0, 0, 0),
            (EnqueuePacket(OPEN_TAIL, 40, 3), 4, 1, 1, 0, 0),
            (SetTailWork(BAD, 3), 4, 1, 0, 0, 0),
            (SetTailWork(EMPTY, 3), 4, 1, 1, 0, 0),
            (Dequeue(BAD, None), 4, 1, 0, 0, 0),
            (Dequeue(EMPTY, None), 4, 1, 1, 0, 0),
            (Dequeue(OPEN, None), 4, 1, 1, 0, 0),
            (Dequeue(BAD, Some(3)), 4, 1, 0, 0, 0),
            (Dequeue(EMPTY, Some(3)), 4, 1, 1, 0, 0),
            (Dequeue(OPEN, Some(3)), 4, 1, 1, 0, 0),
            (DequeuePacket(BAD, None), 4, 1, 0, 0, 0),
            (DequeuePacket(EMPTY, None), 4, 1, 1, 0, 0),
            (DequeuePacket(OPEN, None), 4, 1, 1, 0, 0),
            (DequeuePacket(BAD, Some(3)), 4, 1, 0, 0, 0),
            (DequeuePacket(EMPTY, Some(3)), 4, 1, 1, 0, 0),
            (DequeuePacket(OPEN, Some(3)), 4, 1, 1, 0, 0),
            (ReadHead(BAD), 4, 1, 0, 0, 0),
            (ReadHead(EMPTY), 4, 1, 1, 0, 0),
            (OverwriteHead(BAD, 16), 4, 1, 0, 0, 0),
            (OverwriteHead(READY, 0), 4, 1, 0, 0, 0),
            (OverwriteHead(READY, 17), 4, 1, 0, 0, 0),
            (OverwriteHead(EMPTY, 16), 4, 1, 1, 0, 0),
            (OverwriteHeadLen(BAD, 8), 4, 1, 0, 0, 0),
            (OverwriteHeadLen(READY, 0), 4, 1, 0, 0, 0),
            (OverwriteHeadLen(READY, 17), 4, 1, 0, 0, 0),
            (OverwriteHeadLen(EMPTY, 8), 4, 1, 1, 0, 0),
            (OverwriteHeadLen(READY, 9), 4, 1, 1, 1, 1),
            (DeleteSegment(BAD), 4, 1, 0, 0, 0),
            (DeleteSegment(EMPTY), 4, 1, 1, 0, 0),
            (DeleteSegment(OPEN), 4, 1, 1, 0, 0),
            (DeletePacket(BAD), 4, 1, 0, 0, 0),
            (DeletePacket(EMPTY), 4, 1, 1, 0, 0),
            (DeletePacket(OPEN), 4, 1, 1, 0, 0),
            (AppendHead(BAD, 16), 4, 1, 0, 0, 0),
            (AppendHead(READY, 0), 4, 1, 0, 0, 0),
            (AppendHead(READY, 17), 4, 1, 0, 0, 0),
            (AppendHead(EMPTY, 16), 4, 1, 1, 0, 0),
            (AppendHead(READY, 16), 0, 1, 1, 0, 0),
            (AppendTail(BAD, 16), 4, 1, 0, 0, 0),
            (AppendTail(READY, 0), 4, 1, 0, 0, 0),
            (AppendTail(READY, 17), 4, 1, 0, 0, 0),
            (AppendTail(EMPTY, 16), 4, 1, 1, 0, 0),
            (AppendTail(OPEN_TAIL, 16), 4, 1, 1, 0, 0),
            (AppendTail(READY, 16), 0, 1, 1, 0, 0),
            (MovePacket(BAD, READY), 4, 1, 0, 0, 0),
            (MovePacket(READY, BAD), 4, 1, 0, 0, 0),
            (MovePacket(EMPTY, READY), 4, 1, 1, 0, 0),
            (MovePacket(OPEN, READY), 4, 1, 1, 0, 0),
            (MovePacket(READY, OPEN), 4, 1, 2, 0, 0),
            (MovePacket(OPEN_TAIL, OPEN_TAIL), 4, 1, 1, 0, 0),
            (MovePacket(SERVED, READY), 4, 1, 2, 1, 0),
            (OverwriteAndMove(BAD, READY, 16), 4, 1, 0, 0, 0),
            (OverwriteAndMove(READY, EMPTY, 17), 4, 1, 0, 0, 0),
            (OverwriteAndMove(EMPTY, READY, 16), 4, 1, 1, 0, 0),
            (OverwriteLenAndMove(BAD, READY, 8), 4, 1, 0, 0, 0),
            (OverwriteLenAndMove(READY, EMPTY, 0), 4, 1, 0, 0, 0),
            (OverwriteLenAndMove(EMPTY, READY, 8), 4, 1, 1, 0, 0),
            (OverwriteLenAndMove(READY, EMPTY, 9), 4, 1, 1, 1, 1),
            (CopyPacket(BAD, EMPTY), 4, 1, 0, 0, 0),
            (CopyPacket(READY, BAD), 4, 1, 0, 0, 0),
            (CopyPacket(EMPTY, READY), 4, 1, 1, 0, 0),
            (CopyPacket(OPEN, READY), 4, 1, 1, 0, 0),
            (CopyPacket(READY, OPEN_TAIL), 4, 1, 2, 1, 0),
            (CopyPacket(READY, EMPTY), 1, 1, 2, 1, 0),
            (CopyPacket(SERVED, READY), 4, 1, 1, 1, 0),
        ];
        let mut wrong = Vec::new();
        for (i, (step, free, errors, qt_reads, pkt_reads, seg_reads)) in
            rows.into_iter().enumerate()
        {
            let mut run = staged(free);
            let m = run.engine.shard(0);
            let (stats, ptr, data) = (*m.stats(), m.ptr_counters(), data_counters(m));
            let digest = crate::check::state_digest(m);
            let want = run.model.step(step, 0);
            let got = model::apply(&mut run.engine, &mut run.scheds, step, 0);
            assert!(
                got.is_err() && got == want,
                "row {i}: {got:?}, model {want:?}"
            );
            let m = run.engine.shard_mut(0);
            let cost = m.ptr_counters().since(&ptr);
            let got = (
                m.stats().errors - stats.errors,
                cost.qt_reads,
                cost.pkt_reads,
                cost.seg_reads,
            );
            if got != (errors, qt_reads, pkt_reads, seg_reads) {
                wrong.push(format!("row {i} ({step:?}): {got:?}"));
            }
            let reads = cost.qt_reads + cost.pkt_reads + cost.seg_reads;
            assert_eq!(cost.total(), reads, "row {i}");
            assert_eq!(data_counters(m), data, "row {i}");
            // The digest covers the error count; with that put back the
            // refusal left no trace.
            m.stats.errors = stats.errors;
            assert_eq!(*m.stats(), stats, "row {i}");
            assert_eq!(crate::check::state_digest(m), digest, "row {i}");
        }
        assert!(
            wrong.is_empty(),
            "(errors, qt reads, pkt reads, seg reads):\n{}",
            wrong.join("\n")
        );
    }

    #[test]
    fn ptr_and_data_counters_move() {
        let mut m = qm();
        let f = FlowId::new(0);
        let before = m.ptr_counters();
        m.enqueue(f, b"abc", SegmentPosition::Only).unwrap();
        let delta = m.ptr_counters().since(&before);
        assert!(delta.total() > 0, "enqueue must touch pointer memory");
        let (r, w) = data_counters(&m);
        assert_eq!((r, w), (0, 1), "one segment written, none read");
    }
}
