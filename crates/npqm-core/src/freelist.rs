//! Free lists for segments and packet records.
//!
//! "A free-list keeps the free parts of the memory, at any given time"
//! (§5.2). The segment free list threads free segments through their `next`
//! links; hardware keeps only a head pointer (LIFO) or head+tail (FIFO).
//! Packet records use an always-LIFO list through their `next_pkt` links.
//!
//! Hardware initialises the list once, every id linked in ascending order.
//! A list here links only the ids it has handed out before and keeps the
//! rest as a *fresh mark*: ids `fresh..num_segments` are free, never used,
//! unlinked, and have no record in the pointer memory yet. When a pop needs
//! more ids than the list links, the list materialises that many fresh ids
//! and links them where the fully linked list holds them: below the linked
//! stack (LIFO), ahead of the released queue (FIFO). Whether a call needs
//! any is decided once per call, from the counts. So allocation order,
//! [`SegFreeList::collect_free`], the free count, the low watermark and every
//! charged [`PtrMemCounters`] access are those of the fully linked list,
//! while an engine pays in memory and time only for the ids a run touches.

use crate::config::FreeListDiscipline;
use crate::error::QueueError;
use crate::id::{PacketId, SegmentId};
use crate::ptrmem::{PtrMem, PtrMemCounters, SegRecord};

/// Segment free list (LIFO stack or FIFO ring over the `next` links, plus
/// the fresh mark).
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
    /// First linked segment: the stack's top (LIFO) or the oldest release
    /// (FIFO); NIL when the list links none.
    head: SegmentId,
    /// Last linked segment: the stack's bottom (LIFO) or the newest
    /// release (FIFO); NIL when the list links none.
    tail: SegmentId,
    /// Free segments, linked and fresh.
    free: u32,
    /// The fresh mark: ids `fresh..end` are free and were never used.
    fresh: u32,
    end: u32,
    discipline: FreeListDiscipline,
    low_watermark: u32,
}

impl SegFreeList {
    /// Builds the free list over all segments of `pm` (0..n in ascending
    /// order) with the given discipline. Every id starts fresh: no record
    /// is written, and any `pm` held is forgotten.
    pub fn init(pm: &mut PtrMem, discipline: FreeListDiscipline) -> Self {
        pm.clear_segs();
        let n = pm.num_segments();
        SegFreeList {
            head: SegmentId::NIL,
            tail: SegmentId::NIL,
            free: n,
            fresh: 0,
            end: n,
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

    /// The fresh mark: ids from here up are free and were never handed
    /// out, and exactly the ids below it have a record.
    pub(crate) const fn fresh(&self) -> u32 {
        self.fresh
    }

    /// Makes ready the fresh ids a pop of `k` segments reaches: once the
    /// mark has passed the last id, one comparison per call.
    #[inline]
    fn reach_fresh(&mut self, pm: &mut PtrMem, k: u32) {
        if self.fresh < self.end {
            self.materialise(pm, k);
        }
    }

    /// Materialises the fresh ids a pop of `k` segments reaches and links
    /// them where the fully linked list holds them: below the linked stack
    /// (LIFO), so only those past the linked ones; ahead of the released
    /// queue (FIFO), so the first `k`. Uncounted: the pops that follow read
    /// the links as they would have read the fully linked list's.
    #[inline(never)]
    fn materialise(&mut self, pm: &mut PtrMem, k: u32) {
        let lifo = self.discipline == FreeListDiscipline::Lifo;
        let unused = self.end - self.fresh;
        let m = if lifo {
            k.saturating_sub(self.free - unused)
        } else {
            k.min(unused)
        };
        if m == 0 {
            return;
        }
        let first = pm.materialise_segs(m, if lifo { SegmentId::NIL } else { self.head });
        let last = SegmentId::new(first.index() + m - 1);
        self.fresh += m;
        if lifo {
            if self.tail.is_nil() {
                self.head = first;
            } else {
                let mut rec = pm.seg_silent(self.tail);
                rec.next = first;
                pm.set_seg_silent(self.tail, rec);
            }
            self.tail = last;
        } else {
            self.head = first;
            if self.tail.is_nil() {
                self.tail = last;
            }
        }
    }

    /// Pops a free segment ("Dequeue Free List" in the paper's Table 3).
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::OutOfSegments`] when the data memory is full.
    pub fn alloc(&mut self, pm: &mut PtrMem) -> Result<SegmentId, QueueError> {
        self.reach_fresh(pm, 1);
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
                    // Behind fresh ids only: the fully linked list's tail
                    // is the last of them, and relinking it is charged.
                    if self.free > 0 {
                        pm.charge(&PtrMemCounters {
                            seg_reads: 1,
                            seg_writes: 1,
                            ..PtrMemCounters::default()
                        });
                    }
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

    /// Pops `n` free segments as one linked chain: what `n` ×
    /// [`alloc`](Self::alloc) and a `set_seg` of each popped record would
    /// do — its `len` from `fill`, which is also where the caller moves the
    /// segment's payload, its `next` the segment popped after it, NIL on the
    /// last — in one walk. Any fresh ids the chain reaches are linked first,
    /// all at once; then the list links the segments in pop order, so each
    /// record is written once and `head`, `tail`, `free` and
    /// `low_watermark` once; the `n` reads and `n` writes are charged
    /// once. Returns the chain's first and last segment.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= free_count()`: the caller reserves.
    #[inline]
    pub(crate) fn alloc_chain(
        &mut self,
        pm: &mut PtrMem,
        n: u32,
        mut fill: impl FnMut(&PtrMem, SegmentId) -> u16,
    ) -> (SegmentId, SegmentId) {
        assert!(0 < n && n <= self.free, "chain of {n}, {} free", self.free);
        self.reach_fresh(pm, n);
        let (first, mut last) = (self.head, self.head);
        for left in (0..n).rev() {
            last = self.head;
            self.head = pm.seg_silent(last).next;
            let next = if left == 0 { SegmentId::NIL } else { self.head };
            let len = fill(pm, last);
            pm.set_seg_silent(last, SegRecord { next, len });
        }
        if self.head.is_nil() {
            self.tail = SegmentId::NIL;
        }
        self.free -= n;
        self.low_watermark = self.low_watermark.min(self.free);
        pm.charge(&PtrMemCounters {
            seg_reads: u64::from(n),
            seg_writes: u64::from(n),
            ..PtrMemCounters::default()
        });
        (first, last)
    }

    /// Returns the chain `first..=last` to the free list: what a counted
    /// read of each segment's record followed by its
    /// [`release`](Self::release), in chain order, would do, in one walk —
    /// `visit` sees each segment and its length on the way (the caller's
    /// chance to copy the payload out). The chain is spliced in once, LIFO
    /// by linking each segment onto the one before it (the last becomes
    /// `head`), FIFO by hooking the chain, as linked, behind `tail`; every
    /// `len` is cleared and the accesses are charged once. Returns the
    /// segments and payload bytes released.
    #[inline]
    pub(crate) fn release_chain(
        &mut self,
        pm: &mut PtrMem,
        first: SegmentId,
        last: SegmentId,
        mut visit: impl FnMut(SegmentId, u16),
    ) -> (u32, u32) {
        let lifo = self.discipline == FreeListDiscipline::Lifo;
        let (mut n, mut bytes) = (0u32, 0u32);
        let (mut cur, mut prev) = (first, self.head);
        loop {
            let rec = pm.seg_silent(cur);
            visit(cur, rec.len);
            n += 1;
            bytes += u32::from(rec.len);
            let next = if lifo {
                prev
            } else if cur == last {
                SegmentId::NIL
            } else {
                rec.next
            };
            pm.set_seg_silent(cur, SegRecord { next, len: 0 });
            if cur == last {
                break;
            }
            (prev, cur) = (cur, rec.next);
        }
        let mut relinks = 0;
        if lifo {
            self.head = last;
            if self.tail.is_nil() {
                self.tail = first;
            }
        } else {
            // Each single release behind a tail rewrites that tail's link;
            // only the first into an empty list has none to rewrite (a
            // list of fresh ids only has one: the last of them).
            relinks = u64::from(n);
            if self.free == 0 {
                relinks -= 1;
            }
            if self.tail.is_nil() {
                self.head = first;
            } else {
                let mut rec = pm.seg_silent(self.tail);
                rec.next = first;
                pm.set_seg_silent(self.tail, rec);
            }
            self.tail = last;
        }
        self.free += n;
        pm.charge(&PtrMemCounters {
            seg_reads: u64::from(n) + relinks,
            seg_writes: u64::from(n) + relinks,
            ..PtrMemCounters::default()
        });
        (n, bytes)
    }

    /// The linked free segment ids, head first, read off the links in
    /// place; the walk ends after an id at or above the fresh mark, which
    /// has no record to read. A cyclic list never ends: the caller bounds
    /// the walk.
    pub(crate) fn iter_free<'a>(&self, pm: &'a PtrMem) -> impl Iterator<Item = SegmentId> + 'a {
        let fresh = self.fresh;
        let link = |id: SegmentId| (!id.is_nil()).then_some(id);
        std::iter::successors(link(self.head), move |&id| {
            if id.index() < fresh {
                link(pm.seg_silent(id).next)
            } else {
                None
            }
        })
    }

    /// Every free segment id in the order the list hands them out
    /// (verification): the linked ones read off the links, and the fresh
    /// ones below them (LIFO) or ahead of them (FIFO). The walk stops
    /// after as many linked ids as there are records: a longer list is
    /// cyclic.
    pub fn collect_free(&self, pm: &PtrMem) -> Vec<SegmentId> {
        let mut out = Vec::with_capacity(self.free as usize);
        let linked = self.iter_free(pm).take(self.fresh as usize);
        let fresh = (self.fresh..self.end).map(SegmentId::new);
        match self.discipline {
            FreeListDiscipline::Lifo => out.extend(linked.chain(fresh)),
            FreeListDiscipline::Fifo => out.extend(fresh.chain(linked)),
        }
        out
    }
}

/// Packet-record free list (always LIFO through `next_pkt`, plus the fresh
/// mark).
#[derive(Debug, Clone)]
pub struct PktFreeList {
    head: PacketId,
    free: u32,
    /// The fresh mark: ids `fresh..end` are free and were never used.
    fresh: u32,
    end: u32,
}

impl PktFreeList {
    /// Builds the free list over all packet records of `pm`. Every id
    /// starts fresh: no record is written, and any `pm` held is forgotten.
    pub fn init(pm: &mut PtrMem) -> Self {
        pm.clear_pkts();
        let n = pm.num_segments(); // one packet record per segment
        PktFreeList {
            head: PacketId::NIL,
            free: n,
            fresh: 0,
            end: n,
        }
    }

    /// Number of free packet records.
    pub const fn free_count(&self) -> u32 {
        self.free
    }

    /// The fresh mark: ids from here up are free and were never handed
    /// out, and exactly the ids below it have a record.
    pub(crate) const fn fresh(&self) -> u32 {
        self.fresh
    }

    /// Pops a free packet record; once the linked stack is empty, the
    /// next fresh id, which the fully linked list holds below it.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::OutOfPacketRecords`] when exhausted.
    pub fn alloc(&mut self, pm: &mut PtrMem) -> Result<PacketId, QueueError> {
        if self.head.is_nil() {
            if self.fresh == self.end {
                return Err(QueueError::OutOfPacketRecords);
            }
            self.head = pm.materialise_pkt();
            self.fresh += 1;
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

    /// The linked free packet ids, head first, read off the links in
    /// place; the walk ends after an id at or above the fresh mark. A
    /// cyclic list never ends: the caller bounds the walk.
    pub(crate) fn iter_free<'a>(&self, pm: &'a PtrMem) -> impl Iterator<Item = PacketId> + 'a {
        let fresh = self.fresh;
        let link = |id: PacketId| (!id.is_nil()).then_some(id);
        std::iter::successors(link(self.head), move |&id| {
            if id.index() < fresh {
                link(pm.pkt_silent(id).next_pkt)
            } else {
                None
            }
        })
    }

    /// Every free packet id in the order the list hands them out
    /// (verification): the linked ones, then the fresh ones. The walk
    /// stops after as many linked ids as there are records: a longer list
    /// is cyclic.
    pub fn collect_free(&self, pm: &PtrMem) -> Vec<PacketId> {
        let mut out = Vec::with_capacity(self.free as usize);
        out.extend(self.iter_free(pm).take(self.fresh as usize));
        out.extend((self.fresh..self.end).map(PacketId::new));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The fully linked segment list, every record written and linked at
    /// `init` (0 → 1 → … → n − 1): the reference the fresh mark is held
    /// to. Its `alloc` and `release` are the lists' without the mark.
    struct EagerSegList {
        head: SegmentId,
        tail: SegmentId,
        free: u32,
        discipline: FreeListDiscipline,
        low_watermark: u32,
    }

    impl EagerSegList {
        fn init(pm: &mut PtrMem, discipline: FreeListDiscipline) -> Self {
            let n = pm.num_segments();
            let (head, tail) = if n == 0 {
                (SegmentId::NIL, SegmentId::NIL)
            } else {
                (
                    pm.materialise_segs(n, SegmentId::NIL),
                    SegmentId::new(n - 1),
                )
            };
            EagerSegList {
                head,
                tail,
                free: n,
                discipline,
                low_watermark: n,
            }
        }

        fn collect_free(&self, pm: &PtrMem) -> Vec<SegmentId> {
            let link = |id: SegmentId| (!id.is_nil()).then_some(id);
            std::iter::successors(link(self.head), |&id| link(pm.seg_silent(id).next))
                .take(pm.num_segments() as usize)
                .collect()
        }
    }

    /// The single calls, on the list under test and on the reference.
    trait Singles {
        fn alloc(&mut self, pm: &mut PtrMem) -> Result<SegmentId, QueueError>;
        fn release(&mut self, pm: &mut PtrMem, id: SegmentId);
    }

    impl Singles for SegFreeList {
        fn alloc(&mut self, pm: &mut PtrMem) -> Result<SegmentId, QueueError> {
            SegFreeList::alloc(self, pm)
        }

        fn release(&mut self, pm: &mut PtrMem, id: SegmentId) {
            SegFreeList::release(self, pm, id);
        }
    }

    impl Singles for EagerSegList {
        fn alloc(&mut self, pm: &mut PtrMem) -> Result<SegmentId, QueueError> {
            if self.head.is_nil() {
                return Err(QueueError::OutOfSegments);
            }
            let id = self.head;
            self.head = pm.seg(id).next;
            if self.head.is_nil() {
                self.tail = SegmentId::NIL;
            }
            self.free -= 1;
            self.low_watermark = self.low_watermark.min(self.free);
            Ok(id)
        }

        fn release(&mut self, pm: &mut PtrMem, id: SegmentId) {
            let lifo = self.discipline == FreeListDiscipline::Lifo;
            let next = if lifo { self.head } else { SegmentId::NIL };
            pm.set_seg(id, SegRecord { next, len: 0 });
            if lifo {
                self.head = id;
                if self.tail.is_nil() {
                    self.tail = id;
                }
            } else {
                if self.tail.is_nil() {
                    self.head = id;
                } else {
                    let mut rec = pm.seg(self.tail);
                    rec.next = id;
                    pm.set_seg(self.tail, rec);
                }
                self.tail = id;
            }
            self.free += 1;
        }
    }

    /// One step of the twin-list scripts: the chain calls under test,
    /// interleaved with the single calls they stand for.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Take a chain: `None` is every free segment.
        Take(Option<u32>),
        /// One `alloc`; on an empty list, the refusal.
        TakeSingly,
        /// Give back the held chain `k % held`.
        Give(usize),
        GiveSingly(usize),
    }

    /// `n` × `alloc` with a `set_seg` of each record: what `alloc_chain`
    /// stands for.
    fn take_singly(fl: &mut impl Singles, pm: &mut PtrMem, lens: &[u16]) -> Vec<SegmentId> {
        let ids: Vec<_> = lens.iter().map(|_| fl.alloc(pm).unwrap()).collect();
        for (i, (&id, &len)) in ids.iter().zip(lens).enumerate() {
            let next = ids.get(i + 1).copied().unwrap_or(SegmentId::NIL);
            pm.set_seg(id, SegRecord { next, len });
        }
        ids
    }

    /// A counted read and a `release` per segment: what `release_chain`
    /// stands for.
    fn give_singly(fl: &mut impl Singles, pm: &mut PtrMem, ids: &[SegmentId]) {
        for &id in ids {
            let _ = pm.seg(id);
            fl.release(pm, id);
        }
    }

    /// Runs `script` on three lists: the chain calls on one, their
    /// single-call sequences on a twin, and the same single calls on the
    /// fully linked reference. After every step the twins agree on
    /// everything, each materialised record included, and the reference
    /// agrees on what a caller sees: the ids handed out, the free order,
    /// the free count, the watermark and the charged traffic.
    fn run_twins(discipline: FreeListDiscipline, segments: u32, script: &[Step]) {
        let (mut pm, mut fl) = setup(segments, discipline);
        let (mut twin_pm, mut twin_fl) = setup(segments, discipline);
        let mut eager_pm = PtrMem::new(segments, 1);
        let mut eager = EagerSegList::init(&mut eager_pm, discipline);
        let mut held: Vec<Vec<SegmentId>> = Vec::new();
        for (i, &step) in script.iter().enumerate() {
            let at = format!("step {i} {step:?} ({discipline:?})");
            match step {
                Step::Take(n) => {
                    let n = n.unwrap_or(fl.free_count()).min(fl.free_count());
                    if n == 0 {
                        continue;
                    }
                    let lens: Vec<u16> = (0..n).map(|k| 1 + (i as u16 + k as u16) % 64).collect();
                    let mut filled = Vec::new();
                    let (first, last) = fl.alloc_chain(&mut pm, n, |_, id| {
                        filled.push(id);
                        lens[filled.len() - 1]
                    });
                    let ids = take_singly(&mut twin_fl, &mut twin_pm, &lens);
                    assert_eq!(filled, ids, "{at}");
                    assert_eq!((first, last), (ids[0], ids[ids.len() - 1]), "{at}");
                    assert_eq!(take_singly(&mut eager, &mut eager_pm, &lens), ids, "{at}");
                    held.push(ids);
                }
                Step::TakeSingly if fl.free_count() == 0 => {
                    let refused = Err(QueueError::OutOfSegments);
                    assert_eq!(fl.alloc(&mut pm), refused, "{at}");
                    assert_eq!(twin_fl.alloc(&mut twin_pm), refused, "{at}");
                    assert_eq!(Singles::alloc(&mut eager, &mut eager_pm), refused, "{at}");
                }
                Step::TakeSingly => {
                    let ids = take_singly(&mut fl, &mut pm, &[7]);
                    assert_eq!(take_singly(&mut twin_fl, &mut twin_pm, &[7]), ids, "{at}");
                    assert_eq!(take_singly(&mut eager, &mut eager_pm, &[7]), ids, "{at}");
                    held.push(ids);
                }
                Step::Give(k) if !held.is_empty() => {
                    let ids = held.swap_remove(k % held.len());
                    let want: Vec<_> = ids.iter().map(|&id| (id, pm.seg_silent(id).len)).collect();
                    let mut seen = Vec::new();
                    let released =
                        fl.release_chain(&mut pm, ids[0], ids[ids.len() - 1], |id, len| {
                            seen.push((id, len));
                        });
                    let bytes: u32 = want.iter().map(|&(_, len)| u32::from(len)).sum();
                    assert_eq!(released, (ids.len() as u32, bytes), "{at}");
                    assert_eq!(seen, want, "{at}");
                    give_singly(&mut twin_fl, &mut twin_pm, &ids);
                    give_singly(&mut eager, &mut eager_pm, &ids);
                }
                Step::GiveSingly(k) if !held.is_empty() => {
                    let ids = held.swap_remove(k % held.len());
                    give_singly(&mut fl, &mut pm, &ids);
                    give_singly(&mut twin_fl, &mut twin_pm, &ids);
                    give_singly(&mut eager, &mut eager_pm, &ids);
                }
                _ => continue,
            }
            let free = fl.collect_free(&pm);
            assert_eq!(free, twin_fl.collect_free(&twin_pm), "{at}");
            assert_eq!((fl.head, fl.tail), (twin_fl.head, twin_fl.tail), "{at}");
            assert_eq!(fl.fresh, twin_fl.fresh, "{at}");
            for (list, list_pm) in [(&fl, &pm), (&twin_fl, &twin_pm)] {
                assert_eq!(
                    (list.free_count(), list.low_watermark(), list_pm.counters()),
                    (eager.free, eager.low_watermark, eager_pm.counters()),
                    "{at}"
                );
                assert_eq!(list_pm.seg_records(), list.fresh, "{at}");
            }
            assert_eq!(free, eager.collect_free(&eager_pm), "{at}");
            for id in (0..pm.seg_records()).map(SegmentId::new) {
                assert_eq!(pm.seg_silent(id), twin_pm.seg_silent(id), "{at}: {id}");
            }
        }
    }

    #[test]
    fn chain_calls_match_single_calls_at_the_list_edges() {
        use Step::*;
        for discipline in [FreeListDiscipline::Lifo, FreeListDiscipline::Fifo] {
            for len in [Some(1), Some(2), None] {
                // Out of a full list and back; then with the list drained to
                // empty first, so the chain goes back into an empty list
                // (`head` and `tail` NIL) and the rest follows behind it.
                run_twins(discipline, 6, &[Take(len), Give(0), Take(len)]);
                run_twins(discipline, 6, &[Take(len), Take(None), Give(0), Give(0)]);
                run_twins(discipline, 6, &[Take(None), Give(0), Take(len), Take(None)]);
            }
            // The last free segment, singly and as a chain of one.
            run_twins(discipline, 1, &[Take(None), Give(0), TakeSingly, Give(0)]);
            run_twins(
                discipline,
                3,
                &[Take(Some(2)), TakeSingly, Give(1), GiveSingly(0)],
            );
        }
    }

    /// The fresh mark's edges against the fully linked list: a release,
    /// chained and single, while fresh ids remain and none is linked (FIFO
    /// charges the relink of the fully linked list's tail); a chain that
    /// reaches past the linked stack into the fresh ids (LIFO links them
    /// below it); and a drain to exhaustion, refusal included.
    #[test]
    fn fresh_mark_matches_the_fully_linked_list() {
        use Step::*;
        for discipline in [FreeListDiscipline::Lifo, FreeListDiscipline::Fifo] {
            run_twins(discipline, 6, &[Take(Some(2)), Give(0), Take(Some(3))]);
            run_twins(discipline, 6, &[TakeSingly, GiveSingly(0), TakeSingly]);
            run_twins(
                discipline,
                6,
                &[
                    Take(Some(2)),
                    Take(Some(1)),
                    Give(0),
                    Take(Some(4)),
                    Give(0),
                ],
            );
            run_twins(
                discipline,
                5,
                &[
                    Take(Some(3)),
                    Take(None),
                    TakeSingly,
                    Give(1),
                    Give(0),
                    Take(None),
                ],
            );
            run_twins(discipline, 0, &[Take(None), TakeSingly]);
        }
    }

    #[test]
    #[should_panic(expected = "chain of 3, 2 free")]
    fn alloc_chain_beyond_the_free_count_panics() {
        let (mut pm, mut fl) = setup(2, FreeListDiscipline::Lifo);
        fl.alloc_chain(&mut pm, 3, |_, _| 1);
    }

    /// The fully linked packet-record list, written out at `init` like
    /// [`EagerSegList`].
    struct EagerPktList {
        head: PacketId,
        free: u32,
    }

    impl EagerPktList {
        fn init(pm: &mut PtrMem) -> Self {
            let n = pm.num_segments();
            for i in 0..n {
                let id = pm.materialise_pkt();
                let next_pkt = if i + 1 < n {
                    PacketId::new(i + 1)
                } else {
                    PacketId::NIL
                };
                pm.set_pkt(
                    id,
                    crate::ptrmem::PktRecord {
                        next_pkt,
                        ..Default::default()
                    },
                );
            }
            pm.reset_counters();
            EagerPktList {
                head: if n == 0 {
                    PacketId::NIL
                } else {
                    PacketId::new(0)
                },
                free: n,
            }
        }

        fn alloc(&mut self, pm: &mut PtrMem) -> Result<PacketId, QueueError> {
            if self.head.is_nil() {
                return Err(QueueError::OutOfPacketRecords);
            }
            let id = self.head;
            self.head = pm.pkt(id).next_pkt;
            self.free -= 1;
            Ok(id)
        }

        fn release(&mut self, pm: &mut PtrMem, id: PacketId) {
            let mut rec = pm.pkt(id);
            rec.next_pkt = self.head;
            pm.set_pkt(id, rec);
            self.head = id;
            self.free += 1;
        }

        fn collect_free(&self, pm: &PtrMem) -> Vec<PacketId> {
            let link = |id: PacketId| (!id.is_nil()).then_some(id);
            std::iter::successors(link(self.head), |&id| link(pm.pkt_silent(id).next_pkt))
                .take(pm.num_segments() as usize)
                .collect()
        }
    }

    /// Runs a packet-record script — `None` pops, `Some(k)` releases the
    /// held record `k % held` — on the list and the fully linked
    /// reference, comparing ids, free order, count and charged traffic
    /// after every step.
    fn run_pkt_twins(records: u32, script: &[Option<usize>]) {
        let mut pm = PtrMem::new(records, 1);
        let mut fl = PktFreeList::init(&mut pm);
        let mut eager_pm = PtrMem::new(records, 1);
        let mut eager = EagerPktList::init(&mut eager_pm);
        let mut held = Vec::new();
        for (i, &step) in script.iter().enumerate() {
            let at = format!("step {i} {step:?}");
            match step {
                None => {
                    let id = fl.alloc(&mut pm);
                    assert_eq!(id, eager.alloc(&mut eager_pm), "{at}");
                    held.extend(id.ok());
                }
                Some(k) if !held.is_empty() => {
                    let id = held.swap_remove(k % held.len());
                    fl.release(&mut pm, id);
                    eager.release(&mut eager_pm, id);
                }
                Some(_) => continue,
            }
            assert_eq!(fl.collect_free(&pm), eager.collect_free(&eager_pm), "{at}");
            assert_eq!(fl.free_count(), eager.free, "{at}");
            assert_eq!(pm.counters(), eager_pm.counters(), "{at}");
            assert_eq!(pm.pkt_records(), fl.fresh, "{at}");
        }
    }

    #[test]
    fn pkt_fresh_mark_matches_the_fully_linked_list() {
        // Fresh ids behind released ones, then a drain to the refusal.
        let drain = [
            None,
            None,
            Some(0),
            None,
            None,
            None,
            None,
            None,
            Some(1),
            None,
        ];
        run_pkt_twins(4, &drain);
        run_pkt_twins(1, &[None, None, Some(0), None]);
        run_pkt_twins(0, &[None]);
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            prop_oneof![1u32..2, 2u32..3, 1u32..9].prop_map(|n| Step::Take(Some(n))),
            (0u32..1).prop_map(|_| Step::Take(None)),
            (0u32..1).prop_map(|_| Step::TakeSingly),
            (0usize..8).prop_map(Step::Give),
            (0usize..8).prop_map(Step::Give),
            (0usize..8).prop_map(Step::GiveSingly),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `alloc_chain` / `release_chain` against `n` × `alloc` /
        /// `release` on a twin list and on the fully linked list, chain and
        /// single calls interleaved: free order, `head` / `tail`, counts,
        /// watermark, every materialised record and the charged traffic
        /// agree after every step.
        #[test]
        fn chain_calls_match_single_calls(
            script in proptest::collection::vec(step_strategy(), 1..60),
        ) {
            for discipline in [FreeListDiscipline::Lifo, FreeListDiscipline::Fifo] {
                run_twins(discipline, 8, &script);
                run_twins(discipline, 24, &script);
            }
        }

        /// The packet-record list against the fully linked one on random
        /// pop / release scripts.
        #[test]
        fn pkt_list_matches_the_fully_linked_list(
            script in proptest::collection::vec(
                prop_oneof![(0u32..1).prop_map(|_| None), (0usize..8).prop_map(Some)],
                1..60,
            ),
        ) {
            run_pkt_twins(6, &script);
        }
    }
}
