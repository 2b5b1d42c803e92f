//! Free lists for segments and packet records.
//!
//! "A free-list keeps the free parts of the memory, at any given time"
//! (§5.2). The segment free list threads free segments through their `next`
//! links; hardware keeps only a head pointer (LIFO) or head+tail (FIFO).
//! Packet records use an always-LIFO list through their `next_pkt` links.

use crate::config::FreeListDiscipline;
use crate::error::QueueError;
use crate::id::{PacketId, SegmentId};
use crate::ptrmem::{PtrMem, SegRecord};

/// Segment free list (LIFO stack or FIFO ring over the `next` links).
///
/// # Example
///
/// ```
/// use npqm_core::config::FreeListDiscipline;
/// use npqm_core::freelist::SegFreeList;
/// use npqm_core::ptrmem::PtrMem;
///
/// let mut pm = PtrMem::new(4, 1);
/// let mut fl = SegFreeList::init(&mut pm, FreeListDiscipline::Lifo);
/// assert_eq!(fl.free_count(), 4);
/// let a = fl.alloc(&mut pm)?;
/// let b = fl.alloc(&mut pm)?;
/// assert_ne!(a, b);
/// fl.release(&mut pm, a);
/// assert_eq!(fl.free_count(), 3);
/// # Ok::<(), npqm_core::QueueError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SegFreeList {
    head: SegmentId,
    tail: SegmentId,
    free: u32,
    discipline: FreeListDiscipline,
    low_watermark: u32,
}

impl SegFreeList {
    /// Builds the free list over all segments of `pm` (0..n in ascending
    /// order) with the given discipline.
    pub fn init(pm: &mut PtrMem, discipline: FreeListDiscipline) -> Self {
        let n = pm.num_segments();
        for i in 0..n {
            let next = if i + 1 < n {
                SegmentId::new(i + 1)
            } else {
                SegmentId::NIL
            };
            pm.set_seg(SegmentId::new(i), SegRecord { next, len: 0 });
        }
        let (head, tail) = if n == 0 {
            (SegmentId::NIL, SegmentId::NIL)
        } else {
            (SegmentId::new(0), SegmentId::new(n - 1))
        };
        SegFreeList {
            head,
            tail,
            free: n,
            discipline,
            low_watermark: n,
        }
    }

    /// Number of free segments.
    pub const fn free_count(&self) -> u32 {
        self.free
    }

    /// Lowest number of free segments ever observed (for sizing studies).
    pub const fn low_watermark(&self) -> u32 {
        self.low_watermark
    }

    /// The configured discipline.
    pub const fn discipline(&self) -> FreeListDiscipline {
        self.discipline
    }

    /// Pops a free segment ("Dequeue Free List" in the paper's Table 3).
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::OutOfSegments`] when the data memory is full.
    pub fn alloc(&mut self, pm: &mut PtrMem) -> Result<SegmentId, QueueError> {
        if self.head.is_nil() {
            return Err(QueueError::OutOfSegments);
        }
        let id = self.head;
        let rec = pm.seg(id);
        self.head = rec.next;
        if self.head.is_nil() {
            self.tail = SegmentId::NIL;
        }
        self.free -= 1;
        self.low_watermark = self.low_watermark.min(self.free);
        Ok(id)
    }

    /// Returns a segment to the free list ("Enqueue Free List").
    pub fn release(&mut self, pm: &mut PtrMem, id: SegmentId) {
        match self.discipline {
            FreeListDiscipline::Lifo => {
                pm.set_seg(
                    id,
                    SegRecord {
                        next: self.head,
                        len: 0,
                    },
                );
                self.head = id;
                if self.tail.is_nil() {
                    self.tail = id;
                }
            }
            FreeListDiscipline::Fifo => {
                pm.set_seg(
                    id,
                    SegRecord {
                        next: SegmentId::NIL,
                        len: 0,
                    },
                );
                if self.tail.is_nil() {
                    self.head = id;
                } else {
                    let tail = self.tail;
                    let mut rec = pm.seg(tail);
                    rec.next = id;
                    pm.set_seg(tail, rec);
                }
                self.tail = id;
            }
        }
        self.free += 1;
    }

    /// The free segment ids, head first, read off the links in place. A
    /// cyclic list never ends: the caller bounds the walk.
    pub(crate) fn iter_free<'a>(&self, pm: &'a PtrMem) -> impl Iterator<Item = SegmentId> + 'a {
        let link = |id: SegmentId| (!id.is_nil()).then_some(id);
        std::iter::successors(link(self.head), move |&id| link(pm.seg_silent(id).next))
    }

    /// Walks the free list and returns every free segment id
    /// (verification). The walk stops after as many ids as there are
    /// segments: a longer list is cyclic.
    pub fn collect_free(&self, pm: &PtrMem) -> Vec<SegmentId> {
        let mut out = Vec::with_capacity(self.free as usize);
        out.extend(self.iter_free(pm).take(pm.num_segments() as usize));
        out
    }
}

/// Packet-record free list (always LIFO through `next_pkt`).
#[derive(Debug, Clone)]
pub struct PktFreeList {
    head: PacketId,
    free: u32,
}

impl PktFreeList {
    /// Builds the free list over all packet records of `pm`.
    pub fn init(pm: &mut PtrMem) -> Self {
        let n = pm.num_segments(); // one packet record per segment
        for i in 0..n {
            let mut rec = pm.pkt(PacketId::new(i));
            rec.next_pkt = if i + 1 < n {
                PacketId::new(i + 1)
            } else {
                PacketId::NIL
            };
            pm.set_pkt(PacketId::new(i), rec);
        }
        PktFreeList {
            head: if n == 0 {
                PacketId::NIL
            } else {
                PacketId::new(0)
            },
            free: n,
        }
    }

    /// Number of free packet records.
    pub const fn free_count(&self) -> u32 {
        self.free
    }

    /// Pops a free packet record.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::OutOfPacketRecords`] when exhausted.
    pub fn alloc(&mut self, pm: &mut PtrMem) -> Result<PacketId, QueueError> {
        if self.head.is_nil() {
            return Err(QueueError::OutOfPacketRecords);
        }
        let id = self.head;
        self.head = pm.pkt(id).next_pkt;
        self.free -= 1;
        Ok(id)
    }

    /// Returns a packet record to the free list.
    pub fn release(&mut self, pm: &mut PtrMem, id: PacketId) {
        let mut rec = pm.pkt(id);
        rec.next_pkt = self.head;
        rec.first = SegmentId::NIL;
        rec.last = SegmentId::NIL;
        rec.segs = 0;
        rec.bytes = 0;
        rec.started = false;
        pm.set_pkt(id, rec);
        self.head = id;
        self.free += 1;
    }

    /// The free packet ids, head first, read off the links in place. A
    /// cyclic list never ends: the caller bounds the walk.
    pub(crate) fn iter_free<'a>(&self, pm: &'a PtrMem) -> impl Iterator<Item = PacketId> + 'a {
        let link = |id: PacketId| (!id.is_nil()).then_some(id);
        std::iter::successors(link(self.head), move |&id| link(pm.pkt_silent(id).next_pkt))
    }

    /// Walks the free list and returns every free packet id
    /// (verification). The walk stops after as many ids as there are
    /// packet records: a longer list is cyclic.
    pub fn collect_free(&self, pm: &PtrMem) -> Vec<PacketId> {
        let mut out = Vec::with_capacity(self.free as usize);
        out.extend(self.iter_free(pm).take(pm.num_segments() as usize));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u32, d: FreeListDiscipline) -> (PtrMem, SegFreeList) {
        let mut pm = PtrMem::new(n, 1);
        let fl = SegFreeList::init(&mut pm, d);
        (pm, fl)
    }

    #[test]
    fn lifo_alloc_release_order() {
        let (mut pm, mut fl) = setup(4, FreeListDiscipline::Lifo);
        let a = fl.alloc(&mut pm).unwrap();
        let b = fl.alloc(&mut pm).unwrap();
        assert_eq!(a, SegmentId::new(0));
        assert_eq!(b, SegmentId::new(1));
        fl.release(&mut pm, a);
        // LIFO: the most recently released comes back first.
        assert_eq!(fl.alloc(&mut pm).unwrap(), a);
    }

    #[test]
    fn fifo_alloc_release_order() {
        let (mut pm, mut fl) = setup(4, FreeListDiscipline::Fifo);
        let a = fl.alloc(&mut pm).unwrap();
        fl.release(&mut pm, a);
        // FIFO: released segment goes to the back of the ring.
        assert_eq!(fl.alloc(&mut pm).unwrap(), SegmentId::new(1));
        assert_eq!(fl.alloc(&mut pm).unwrap(), SegmentId::new(2));
        assert_eq!(fl.alloc(&mut pm).unwrap(), SegmentId::new(3));
        assert_eq!(fl.alloc(&mut pm).unwrap(), a);
        assert!(fl.alloc(&mut pm).is_err());
    }

    #[test]
    fn exhaustion_reports_out_of_segments() {
        let (mut pm, mut fl) = setup(2, FreeListDiscipline::Lifo);
        fl.alloc(&mut pm).unwrap();
        fl.alloc(&mut pm).unwrap();
        assert_eq!(fl.alloc(&mut pm), Err(QueueError::OutOfSegments));
        assert_eq!(fl.free_count(), 0);
        assert_eq!(fl.low_watermark(), 0);
    }

    #[test]
    fn low_watermark_tracks_minimum() {
        let (mut pm, mut fl) = setup(8, FreeListDiscipline::Lifo);
        let ids: Vec<_> = (0..5).map(|_| fl.alloc(&mut pm).unwrap()).collect();
        assert_eq!(fl.low_watermark(), 3);
        for id in ids {
            fl.release(&mut pm, id);
        }
        assert_eq!(fl.free_count(), 8);
        assert_eq!(fl.low_watermark(), 3, "watermark is sticky");
    }

    #[test]
    fn collect_free_matches_count() {
        let (mut pm, mut fl) = setup(6, FreeListDiscipline::Fifo);
        let a = fl.alloc(&mut pm).unwrap();
        let _b = fl.alloc(&mut pm).unwrap();
        fl.release(&mut pm, a);
        let free = fl.collect_free(&pm);
        assert_eq!(free.len() as u32, fl.free_count());
        assert!(free.contains(&a));
    }

    #[test]
    fn no_double_alloc_until_release() {
        let (mut pm, mut fl) = setup(16, FreeListDiscipline::Lifo);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            assert!(seen.insert(fl.alloc(&mut pm).unwrap()));
        }
    }

    #[test]
    fn pkt_freelist_cycle() {
        let mut pm = PtrMem::new(4, 1);
        let mut fl = PktFreeList::init(&mut pm);
        assert_eq!(fl.free_count(), 4);
        let a = fl.alloc(&mut pm).unwrap();
        let b = fl.alloc(&mut pm).unwrap();
        assert_ne!(a, b);
        fl.release(&mut pm, a);
        assert_eq!(fl.alloc(&mut pm).unwrap(), a, "LIFO reuse");
        let free = fl.collect_free(&pm);
        assert_eq!(free.len() as u32, fl.free_count());
    }

    #[test]
    fn pkt_release_clears_record() {
        let mut pm = PtrMem::new(2, 1);
        let mut fl = PktFreeList::init(&mut pm);
        let a = fl.alloc(&mut pm).unwrap();
        let mut rec = pm.pkt(a);
        rec.segs = 9;
        rec.bytes = 99;
        rec.started = true;
        pm.set_pkt(a, rec);
        fl.release(&mut pm, a);
        let rec = pm.pkt_silent(a);
        assert_eq!(rec.segs, 0);
        assert_eq!(rec.bytes, 0);
        assert!(!rec.started);
    }

    #[test]
    fn pkt_exhaustion() {
        let mut pm = PtrMem::new(1, 1);
        let mut fl = PktFreeList::init(&mut pm);
        fl.alloc(&mut pm).unwrap();
        assert_eq!(fl.alloc(&mut pm), Err(QueueError::OutOfPacketRecords));
    }
}
