//! The pointer memory: every control structure the paper keeps in ZBT SRAM.
//!
//! "The MMS uses a DDR-DRAM for data storage and a ZBT SRAM for segment and
//! packet pointers" (§6). This module models that SRAM as three planes —
//! per-segment records, per-packet records and the per-flow queue table —
//! behind accessor methods that count every read and write, so the hardware
//! models can derive pointer-memory traffic from the *same* code paths the
//! software library executes.
//!
//! The SRAM is sized for the worst case, one packet record per segment, and
//! so is each plane's capacity. But a record is written only when a free
//! list first hands its id out ([`crate::freelist`] keeps the never-used ids
//! as a *fresh mark*, not as linked records), so the segment and packet
//! planes hold exactly the records a run has touched: at the paper's 2^20
//! segments a fresh engine writes none of its 36 MiB of records.

use crate::id::{FlowId, PacketId, SegmentId};

/// Per-segment record: the chain link and the byte length of the segment.
///
/// The `next` field threads segments of one packet together; a free segment
/// reuses it as the free-list link (exactly as hardware does).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRecord {
    /// Next segment in the packet (or the free list); NIL terminates.
    pub next: SegmentId,
    /// Valid bytes in this segment (1..=segment_bytes).
    pub len: u16,
}

impl Default for SegRecord {
    fn default() -> Self {
        SegRecord {
            next: SegmentId::NIL,
            len: 0,
        }
    }
}

/// Per-packet record: boundaries of one packet inside a flow queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktRecord {
    /// First (oldest) segment of the packet.
    pub first: SegmentId,
    /// Last segment of the packet.
    pub last: SegmentId,
    /// Next packet in the flow queue; NIL terminates (also reused as the
    /// packet-record free-list link).
    pub next_pkt: PacketId,
    /// Number of segments currently in the packet.
    pub segs: u32,
    /// Total payload bytes currently in the packet.
    pub bytes: u32,
    /// True once the head of the packet has been partially dequeued.
    pub started: bool,
    /// True once the packet's end-of-packet segment has been recorded —
    /// i.e. the packet is complete. While a flow's SAR is mid-packet,
    /// exactly the queue's *tail* packet has `eop == false`; the
    /// invariant checker relies on this to detect torn packets spliced
    /// behind an open tail.
    pub eop: bool,
    /// Required processing work, in abstract effort units, on top of the
    /// byte-proportional transmission cost (the heterogeneous-processing
    /// dimension of Kogan et al.). Zero — the default stamped by every
    /// legacy enqueue path — means the packet costs exactly its bytes,
    /// i.e. today's behaviour.
    pub work: u32,
}

impl Default for PktRecord {
    fn default() -> Self {
        PktRecord {
            first: SegmentId::NIL,
            last: SegmentId::NIL,
            next_pkt: PacketId::NIL,
            segs: 0,
            bytes: 0,
            started: false,
            eop: false,
            work: 0,
        }
    }
}

/// Per-flow queue record ("a queue-table contains the header of all the
/// employed queues", §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueRecord {
    /// Oldest packet in the queue; NIL when empty.
    pub head_pkt: PacketId,
    /// Newest packet in the queue; NIL when empty.
    pub tail_pkt: PacketId,
    /// Packets currently linked (complete + open).
    pub pkts: u32,
    /// Packets fully received and ready for dequeue.
    pub complete_pkts: u32,
    /// Segments currently linked.
    pub segs: u32,
    /// Payload bytes currently linked.
    pub bytes: u64,
    /// True while the tail packet is still being assembled (SAR in flight).
    pub open: bool,
}

impl Default for QueueRecord {
    fn default() -> Self {
        QueueRecord {
            head_pkt: PacketId::NIL,
            tail_pkt: PacketId::NIL,
            pkts: 0,
            complete_pkts: 0,
            segs: 0,
            bytes: 0,
            open: false,
        }
    }
}

/// Counters of pointer-memory traffic, grouped by plane.
///
/// One unit is one record-sized SRAM access. The hardware models consume
/// these to translate library operations into ZBT SRAM cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PtrMemCounters {
    /// Segment-record reads.
    pub seg_reads: u64,
    /// Segment-record writes.
    pub seg_writes: u64,
    /// Packet-record reads.
    pub pkt_reads: u64,
    /// Packet-record writes.
    pub pkt_writes: u64,
    /// Queue-table reads.
    pub qt_reads: u64,
    /// Queue-table writes.
    pub qt_writes: u64,
}

impl PtrMemCounters {
    /// Total accesses across all planes.
    pub fn total(&self) -> u64 {
        self.seg_reads
            + self.seg_writes
            + self.pkt_reads
            + self.pkt_writes
            + self.qt_reads
            + self.qt_writes
    }

    /// Adds every plane of `other` into `self` (aggregation across
    /// shards, or window merging in the timing subsystem).
    pub fn absorb(&mut self, other: &PtrMemCounters) {
        self.seg_reads += other.seg_reads;
        self.seg_writes += other.seg_writes;
        self.pkt_reads += other.pkt_reads;
        self.pkt_writes += other.pkt_writes;
        self.qt_reads += other.qt_reads;
        self.qt_writes += other.qt_writes;
    }

    /// Per-plane difference `self - earlier` (for per-operation counting).
    pub fn since(&self, earlier: &PtrMemCounters) -> PtrMemCounters {
        PtrMemCounters {
            seg_reads: self.seg_reads - earlier.seg_reads,
            seg_writes: self.seg_writes - earlier.seg_writes,
            pkt_reads: self.pkt_reads - earlier.pkt_reads,
            pkt_writes: self.pkt_writes - earlier.pkt_writes,
            qt_reads: self.qt_reads - earlier.qt_reads,
            qt_writes: self.qt_writes - earlier.qt_writes,
        }
    }
}

/// The pointer memory itself.
///
/// All mutation goes through accessor methods that maintain
/// [`PtrMemCounters`]; the rest of the crate never touches the planes
/// directly.
#[derive(Debug, Clone)]
pub struct PtrMem {
    /// Segment records `0..len`, those handed out so far.
    segs: Vec<SegRecord>,
    /// Packet records `0..len`, those handed out so far.
    pkts: Vec<PktRecord>,
    queues: Vec<QueueRecord>,
    num_segments: u32,
    counters: PtrMemCounters,
}

impl PtrMem {
    /// Creates a pointer memory for `num_segments` segments / packet records
    /// and `num_flows` queues. The segment and packet planes get room for
    /// every record but hold none: a free list materialises each record
    /// when it first hands its id out.
    pub fn new(num_segments: u32, num_flows: u32) -> Self {
        PtrMem {
            segs: Vec::with_capacity(num_segments as usize),
            pkts: Vec::with_capacity(num_segments as usize),
            queues: vec![QueueRecord::default(); num_flows as usize],
            num_segments,
            counters: PtrMemCounters::default(),
        }
    }

    /// Number of segment records (and of packet records) the memory is
    /// sized for.
    pub fn num_segments(&self) -> u32 {
        self.num_segments
    }

    /// Segment records materialised so far: ids `0..seg_records()`.
    pub(crate) fn seg_records(&self) -> u32 {
        self.segs.len() as u32
    }

    /// Packet records materialised so far: ids `0..pkt_records()`.
    pub(crate) fn pkt_records(&self) -> u32 {
        self.pkts.len() as u32
    }

    /// Materialises the next `m` segment records, unwritten until now,
    /// each linked to the one after it and the last to `last_next`, and
    /// returns the first one's id (`m >= 1`). Uncounted: the records stand
    /// for links a fully written free list would already hold.
    pub(crate) fn materialise_segs(&mut self, m: u32, last_next: SegmentId) -> SegmentId {
        let first = self.seg_records();
        let last = first + m - 1;
        self.segs.extend((first..last).map(|i| SegRecord {
            next: SegmentId::new(i + 1),
            len: 0,
        }));
        self.segs.push(SegRecord {
            next: last_next,
            len: 0,
        });
        SegmentId::new(first)
    }

    /// Materialises the next packet record, unlinked, and returns its id.
    pub(crate) fn materialise_pkt(&mut self) -> PacketId {
        let id = PacketId::new(self.pkt_records());
        self.pkts.push(PktRecord::default());
        id
    }

    /// Forgets every segment record: a new free list starts from none.
    pub(crate) fn clear_segs(&mut self) {
        self.segs.clear();
    }

    /// Forgets every packet record: a new free list starts from none.
    pub(crate) fn clear_pkts(&mut self) {
        self.pkts.clear();
    }

    /// Access counters accumulated so far.
    pub const fn counters(&self) -> &PtrMemCounters {
        &self.counters
    }

    /// Resets the access counters to zero.
    pub fn reset_counters(&mut self) {
        self.counters = PtrMemCounters::default();
    }

    /// Counts `extra` accesses that were not made through the accessors:
    /// the whole-packet transactions of [`crate::QueueManager`] keep a
    /// record in a local across the segments of one packet, and the chain
    /// calls of [`crate::freelist::SegFreeList`] go through
    /// [`seg_silent`](Self::seg_silent) / `set_seg_silent`; both charge here
    /// what the per-segment command sequence reads and writes.
    pub(crate) fn charge(&mut self, extra: &PtrMemCounters) {
        self.counters.absorb(extra);
    }

    // --- segment plane -----------------------------------------------------

    /// Reads a segment record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is NIL or no free list has handed it out yet.
    pub fn seg(&mut self, id: SegmentId) -> SegRecord {
        self.counters.seg_reads += 1;
        self.segs[id.as_usize()]
    }

    /// Writes a segment record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is NIL or no free list has handed it out yet.
    pub fn set_seg(&mut self, id: SegmentId, rec: SegRecord) {
        self.counters.seg_writes += 1;
        self.segs[id.as_usize()] = rec;
    }

    /// Reads a segment record without counting (test/verification use).
    pub fn seg_silent(&self, id: SegmentId) -> SegRecord {
        self.segs[id.as_usize()]
    }

    /// Writes a segment record without counting: the chain calls, which
    /// [`charge`](Self::charge) a whole chain's accesses at once.
    pub(crate) fn set_seg_silent(&mut self, id: SegmentId, rec: SegRecord) {
        self.segs[id.as_usize()] = rec;
    }

    /// The segments of the chain `first..=last` with their lengths, read
    /// off the links without counting: a whole-packet read walks this and
    /// [`charge`](Self::charge)s its segment reads once.
    pub(crate) fn chain(
        &self,
        first: SegmentId,
        last: SegmentId,
    ) -> impl Iterator<Item = (SegmentId, u16)> + '_ {
        let mut at = Some(first);
        std::iter::from_fn(move || {
            let id = at?;
            let rec = self.segs[id.as_usize()];
            at = (id != last).then_some(rec.next);
            Some((id, rec.len))
        })
    }

    // --- packet plane ------------------------------------------------------

    /// Reads a packet record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is NIL or no free list has handed it out yet.
    pub fn pkt(&mut self, id: PacketId) -> PktRecord {
        self.counters.pkt_reads += 1;
        self.pkts[id.as_usize()]
    }

    /// Writes a packet record.
    ///
    /// # Panics
    ///
    /// Panics if `id` is NIL or no free list has handed it out yet.
    pub fn set_pkt(&mut self, id: PacketId, rec: PktRecord) {
        self.counters.pkt_writes += 1;
        self.pkts[id.as_usize()] = rec;
    }

    /// Reads a packet record without counting (test/verification use).
    pub fn pkt_silent(&self, id: PacketId) -> PktRecord {
        self.pkts[id.as_usize()]
    }

    // --- queue table -------------------------------------------------------

    /// Reads a queue record.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn queue(&mut self, flow: FlowId) -> QueueRecord {
        self.counters.qt_reads += 1;
        self.queues[flow.as_usize()]
    }

    /// Writes a queue record.
    ///
    /// # Panics
    ///
    /// Panics if `flow` is out of range.
    pub fn set_queue(&mut self, flow: FlowId, rec: QueueRecord) {
        self.counters.qt_writes += 1;
        self.queues[flow.as_usize()] = rec;
    }

    /// Reads a queue record without counting (test/verification use).
    pub fn queue_silent(&self, flow: FlowId) -> QueueRecord {
        self.queues[flow.as_usize()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pointer memory with every segment and packet record written, as
    /// a full free list would have them.
    fn written(num_segments: u32, num_flows: u32) -> PtrMem {
        let mut pm = PtrMem::new(num_segments, num_flows);
        pm.materialise_segs(num_segments, SegmentId::NIL);
        for _ in 0..num_segments {
            pm.materialise_pkt();
        }
        pm
    }

    #[test]
    fn records_default_to_nil() {
        assert!(SegRecord::default().next.is_nil());
        assert_eq!(SegRecord::default().len, 0);
        let p = PktRecord::default();
        assert!(p.first.is_nil() && p.last.is_nil() && p.next_pkt.is_nil());
        let q = QueueRecord::default();
        assert!(q.head_pkt.is_nil() && q.tail_pkt.is_nil());
        assert_eq!((q.pkts, q.segs, q.bytes), (0, 0, 0));
        assert!(!q.open);
    }

    /// `new` writes no segment or packet record; each materialising call
    /// appends records in id order, linked ascending, uncounted.
    #[test]
    fn records_are_materialised_in_id_order() {
        let mut pm = PtrMem::new(8, 2);
        assert_eq!(
            (pm.num_segments(), pm.seg_records(), pm.pkt_records()),
            (8, 0, 0)
        );
        assert_eq!(pm.materialise_segs(3, SegmentId::NIL), SegmentId::new(0));
        assert_eq!(pm.materialise_segs(2, SegmentId::new(1)), SegmentId::new(3));
        let id = SegmentId::new;
        let links: Vec<_> = (0..5).map(|i| pm.seg_silent(id(i)).next).collect();
        assert_eq!(links, [id(1), id(2), SegmentId::NIL, id(4), id(1)]);
        assert_eq!(pm.materialise_pkt(), PacketId::new(0));
        assert_eq!(pm.materialise_pkt(), PacketId::new(1));
        assert_eq!((pm.seg_records(), pm.pkt_records()), (5, 2));
        assert_eq!(pm.counters().total(), 0);
        pm.clear_segs();
        pm.clear_pkts();
        assert_eq!((pm.seg_records(), pm.pkt_records()), (0, 0));
    }

    #[test]
    fn accessors_count_traffic() {
        let mut pm = written(8, 2);
        let s0 = SegmentId::new(0);
        let _ = pm.seg(s0);
        pm.set_seg(
            s0,
            SegRecord {
                next: SegmentId::new(1),
                len: 64,
            },
        );
        let _ = pm.pkt(PacketId::new(3));
        pm.set_pkt(PacketId::new(3), PktRecord::default());
        let _ = pm.queue(FlowId::new(1));
        pm.set_queue(FlowId::new(1), QueueRecord::default());
        let c = *pm.counters();
        assert_eq!(c.seg_reads, 1);
        assert_eq!(c.seg_writes, 1);
        assert_eq!(c.pkt_reads, 1);
        assert_eq!(c.pkt_writes, 1);
        assert_eq!(c.qt_reads, 1);
        assert_eq!(c.qt_writes, 1);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn counters_since_and_reset() {
        let mut pm = written(4, 1);
        let before = *pm.counters();
        let _ = pm.seg(SegmentId::new(2));
        let _ = pm.seg(SegmentId::new(3));
        let delta = pm.counters().since(&before);
        assert_eq!(delta.seg_reads, 2);
        assert_eq!(delta.total(), 2);
        pm.reset_counters();
        assert_eq!(pm.counters().total(), 0);
    }

    #[test]
    fn writes_persist() {
        let mut pm = written(4, 1);
        let rec = SegRecord {
            next: SegmentId::new(2),
            len: 40,
        };
        pm.set_seg(SegmentId::new(1), rec);
        assert_eq!(pm.seg(SegmentId::new(1)), rec);
        assert_eq!(pm.seg_silent(SegmentId::new(1)), rec);
    }

    #[test]
    fn silent_reads_do_not_count() {
        let mut pm = written(4, 1);
        pm.set_queue(
            FlowId::new(0),
            QueueRecord {
                pkts: 5,
                ..QueueRecord::default()
            },
        );
        let w = pm.counters().qt_writes;
        let _ = pm.queue_silent(FlowId::new(0));
        let _ = pm.seg_silent(SegmentId::new(0));
        let _ = pm.pkt_silent(PacketId::new(0));
        assert_eq!(pm.counters().qt_writes, w);
        assert_eq!(pm.counters().qt_reads, 0);
        assert_eq!(pm.counters().seg_reads, 0);
        assert_eq!(pm.counters().pkt_reads, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_segment_panics() {
        let mut pm = written(2, 1);
        let _ = pm.seg(SegmentId::new(5));
    }

    /// An id below `num_segments` that no free list has handed out has
    /// no record to read.
    #[test]
    #[should_panic]
    fn unmaterialised_segment_panics() {
        let mut pm = PtrMem::new(4, 1);
        pm.materialise_segs(1, SegmentId::NIL);
        let _ = pm.seg(SegmentId::new(1));
    }
}
