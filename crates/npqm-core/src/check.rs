//! Structural invariant verification.
//!
//! The queue engine maintains redundant state (counts in queue records and
//! packet records, plus the linked structure itself). `verify` walks the
//! whole pointer memory and cross-checks everything; the test suite and the
//! property tests call it after every operation sequence.
//!
//! One pass costs `O(records + flows)`, where `records` is the number of
//! segment and packet records the free lists have materialised (ids below
//! their fresh marks; see [`crate::freelist`]), not the 2^20 segments the
//! memory is sized for. It hashes nothing: which indices are linked into
//! queues, and which into the free lists, is kept in dense bitmaps over the
//! materialised ids (one bit each), and only the linked part of each free
//! list is walked, in place. The never-used ids above a fresh mark are
//! counted, not walked: every queued and linked id must lie below the mark,
//! each plane must hold exactly as many records as its mark says, and the
//! linked ids plus the never-used ones must make the free count. A walk ends
//! at the first index it meets twice, so a cyclic chain or free list is an
//! [`InvariantViolation`], not a hang.

use crate::id::{FlowId, PacketId, SegmentId};
use crate::manager::QueueManager;
use crate::ptrmem::PtrMemCounters;
use core::fmt;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// What went wrong, and where.
    pub what: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant violated: {}", self.what)
    }
}

impl std::error::Error for InvariantViolation {}

/// Summary of a successful verification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvariantReport {
    /// Queues inspected.
    pub queues: u32,
    /// Segments found linked into queues.
    pub segments_used: u32,
    /// Segments found on the free list.
    pub segments_free: u32,
    /// Packet records found linked into queues.
    pub packets_used: u32,
    /// Packet records found on the free list.
    pub packets_free: u32,
    /// Payload bytes found queued, summed over the walked segment chains.
    ///
    /// This is the byte occupancy *proven by the walk* (not read from the
    /// queue-table counters), which is what cross-shard conservation
    /// checks compare against admission/delivery ledgers.
    pub payload_bytes: u64,
    /// Pointer-memory access counters at verification time (ZBT SRAM
    /// traffic). The walk itself uses the silent accessors, so the
    /// snapshot is not perturbed by taking it; the sharded engine's
    /// conservation pass sums these across shards and checks the sum
    /// against [`crate::shard::ShardedQueueManager::ptr_counters`].
    pub ptr: PtrMemCounters,
}

fn violation<T>(what: impl Into<String>) -> Result<T, InvariantViolation> {
    Err(InvariantViolation { what: what.into() })
}

/// A set of indices below a fixed bound: one bit each, plus the count.
struct IndexSet {
    words: Vec<u64>,
    bound: usize,
    len: usize,
}

impl IndexSet {
    fn new(bound: usize) -> Self {
        IndexSet {
            words: vec![0; bound.div_ceil(64)],
            bound,
            len: 0,
        }
    }

    /// Adds `idx`; false if it was already there.
    fn insert(&mut self, idx: usize) -> bool {
        let bit = 1u64 << (idx % 64);
        let word = &mut self.words[idx / 64];
        // Kept as a branch: the branch-free form (`len += fresh as usize`
        // after the `|=`) left `len` at 0 in release builds of rustc 1.95.0.
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    fn contains(&self, idx: usize) -> bool {
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }
}

/// Checks that one free list (`walk`, head first, `counted` entries by
/// its own counter, of which the `unused` ids above the fresh mark are not
/// linked) and the `used` indices exactly partition their index space of
/// `size` ids; `kind` names the space in the messages. The walk is
/// consumed in place and abandoned at the first index it yields twice — a
/// cyclic list — or at or above the fresh mark (`used.bound`), so it never
/// visits more entries than there are records. Returns the number of free
/// entries.
fn verify_free_list<I: Copy + fmt::Display>(
    kind: &str,
    (counted, unused, size): (u32, u32, u32),
    used: &IndexSet,
    walk: impl Iterator<Item = I>,
    index: impl Fn(I) -> usize,
) -> Result<u32, InvariantViolation> {
    let mut free = IndexSet::new(used.bound);
    let mut in_use = None;
    for id in walk {
        let idx = index(id);
        if idx >= used.bound {
            return violation(format!(
                "{kind} {id} is free at or above the fresh mark {}",
                used.bound
            ));
        }
        if !free.insert(idx) {
            return violation(format!("{kind} {id} appears twice on the free list"));
        }
        if in_use.is_none() && used.contains(idx) {
            in_use = Some(id);
        }
    }
    // A list that runs into a queued entry goes on along that entry's
    // chain, so its length is checked before the entry is reported.
    if free.len + unused as usize != counted as usize {
        return violation(format!(
            "{kind} free list count {counted} != walk length {} + {unused} never used",
            free.len
        ));
    }
    if let Some(id) = in_use {
        return violation(format!("{kind} {id} is both free and in use"));
    }
    if used.len + free.len != used.bound {
        return violation(format!(
            "{kind} space not partitioned: {} used + {counted} free != {size}",
            used.len
        ));
    }
    Ok(counted)
}

/// Checks that a plane holds exactly the `records` below its fresh mark.
fn verify_plane(kind: &str, records: u32, fresh: u32) -> Result<(), InvariantViolation> {
    if records != fresh {
        return violation(format!(
            "{kind} plane holds {records} records, fresh mark is {fresh}"
        ));
    }
    Ok(())
}

/// Verifies every structural invariant of `qm`:
///
/// 1. every per-packet segment chain is well-formed (`first → … → last`,
///    terminated, acyclic) and its `segs`/`bytes` counters match the walk;
/// 2. every queue's packet chain is well-formed and the queue's counters
///    (`pkts`, `complete_pkts`, `segs`, `bytes`) match;
/// 3. an `open` queue has a tail packet, and that tail packet is the
///    unfinished one: its EOP has not been recorded yet, while every
///    non-tail packet in the chain is complete. A non-open queue holds
///    only complete packets and has `complete_pkts == pkts`. (This is
///    what catches a complete packet spliced *behind* an open tail — the
///    torn-packet corruption the pre-fix `move_packet` could create.);
/// 4. only a queue's head packet may be partially consumed (`started`);
/// 5. no segment or packet record is referenced twice;
/// 6. the free lists and the queues exactly partition both index spaces:
///    each plane holds exactly the records below its free list's fresh
///    mark, every queued and every linked free id lies below that mark,
///    and the linked ids plus the never-used ones above it make the free
///    count;
/// 7. every linked segment has a non-zero length within the segment size.
///
/// # Errors
///
/// Returns the first [`InvariantViolation`] found.
pub fn verify(qm: &QueueManager) -> Result<InvariantReport, InvariantViolation> {
    let cfg = &qm.cfg;
    let pm = &qm.ptr;
    let (seg_fresh, pkt_fresh) = (qm.seg_fl.fresh(), qm.pkt_fl.fresh());
    verify_plane("segment", pm.seg_records(), seg_fresh)?;
    verify_plane("packet", pm.pkt_records(), pkt_fresh)?;
    let mut used_segs = IndexSet::new(seg_fresh as usize);
    let mut used_pkts = IndexSet::new(pkt_fresh as usize);
    let mut payload_bytes = 0u64;

    for f in 0..cfg.num_flows() {
        let flow = FlowId::new(f);
        let q = pm.queue_silent(flow);
        let mut pkts = 0u32;
        let mut segs = 0u32;
        let mut bytes = 0u64;
        let mut pid = q.head_pkt;
        let mut last_seen = PacketId::NIL;
        while !pid.is_nil() {
            if pid.index() >= pkt_fresh {
                return violation(format!(
                    "{flow}: packet {pid} is queued at or above the fresh mark {pkt_fresh}"
                ));
            }
            if !used_pkts.insert(pid.as_usize()) {
                return violation(format!("{flow}: packet {pid} referenced twice"));
            }
            let pr = pm.pkt_silent(pid);
            if pr.started && pid != q.head_pkt {
                return violation(format!(
                    "{flow}: non-head packet {pid} is partially consumed"
                ));
            }
            // Exactly the open queue's tail packet may lack its EOP; a
            // complete packet at the open tail (or an unfinished packet
            // anywhere else) means SAR traffic was interleaved with a
            // structural operation and a packet is torn.
            if q.open && pid == q.tail_pkt {
                if pr.eop {
                    return violation(format!(
                        "{flow}: queue is open but its tail packet {pid} has its EOP recorded"
                    ));
                }
            } else if !pr.eop {
                return violation(format!(
                    "{flow}: packet {pid} has no EOP recorded but is not the open tail"
                ));
            }
            // Walk the segment chain of this packet.
            let mut seg = pr.first;
            let mut seg_count = 0u32;
            let mut byte_count = 0u32;
            let mut reached_last = false;
            while !seg.is_nil() {
                if seg.index() >= seg_fresh {
                    return violation(format!(
                        "{flow}: segment {seg} is queued at or above the fresh mark {seg_fresh}"
                    ));
                }
                if !used_segs.insert(seg.as_usize()) {
                    return violation(format!("{flow}: segment {seg} referenced twice"));
                }
                let rec = pm.seg_silent(seg);
                if rec.len == 0 || rec.len as u32 > cfg.segment_bytes() {
                    return violation(format!("{flow}: segment {seg} has bad length {}", rec.len));
                }
                seg_count += 1;
                byte_count += rec.len as u32;
                if seg_count > pr.segs {
                    return violation(format!(
                        "{flow}: packet {pid} chain longer than its count {}",
                        pr.segs
                    ));
                }
                if seg == pr.last {
                    reached_last = true;
                    if !rec.next.is_nil() {
                        return violation(format!(
                            "{flow}: last segment {seg} of {pid} has a successor"
                        ));
                    }
                }
                seg = rec.next;
            }
            if !reached_last {
                return violation(format!("{flow}: packet {pid} never reaches its last"));
            }
            if seg_count != pr.segs {
                return violation(format!(
                    "{flow}: packet {pid} counts {} segments, walk found {seg_count}",
                    pr.segs
                ));
            }
            if byte_count != pr.bytes {
                return violation(format!(
                    "{flow}: packet {pid} counts {} bytes, walk found {byte_count}",
                    pr.bytes
                ));
            }
            pkts += 1;
            segs += seg_count;
            bytes += byte_count as u64;
            last_seen = pid;
            pid = pr.next_pkt;
            if pkts > q.pkts {
                return violation(format!("{flow}: packet chain longer than count {}", q.pkts));
            }
        }
        if pkts != q.pkts {
            return violation(format!(
                "{flow}: queue counts {} packets, walk found {pkts}",
                q.pkts
            ));
        }
        if segs != q.segs {
            return violation(format!(
                "{flow}: queue counts {} segments, walk found {segs}",
                q.segs
            ));
        }
        if bytes != q.bytes {
            return violation(format!(
                "{flow}: queue counts {} bytes, walk found {bytes}",
                q.bytes
            ));
        }
        if q.tail_pkt != last_seen {
            return violation(format!(
                "{flow}: tail is {} but walk ended at {last_seen}",
                q.tail_pkt
            ));
        }
        let expected_complete = if q.open {
            q.pkts.saturating_sub(1)
        } else {
            q.pkts
        };
        if q.complete_pkts != expected_complete {
            return violation(format!(
                "{flow}: complete_pkts {} != expected {expected_complete}",
                q.complete_pkts
            ));
        }
        if q.open && q.tail_pkt.is_nil() {
            return violation(format!("{flow}: open queue without a tail packet"));
        }
        payload_bytes += bytes;
    }

    // Free lists must exactly cover the rest of both index spaces.
    let size = cfg.num_segments(); // one packet record per segment
    let segments_free = verify_free_list(
        "segment",
        (qm.seg_fl.free_count(), size - seg_fresh, size),
        &used_segs,
        qm.seg_fl.iter_free(pm),
        SegmentId::as_usize,
    )?;
    let packets_free = verify_free_list(
        "packet",
        (qm.pkt_fl.free_count(), size - pkt_fresh, size),
        &used_pkts,
        qm.pkt_fl.iter_free(pm),
        PacketId::as_usize,
    )?;

    Ok(InvariantReport {
        queues: cfg.num_flows(),
        segments_used: used_segs.len as u32,
        segments_free,
        packets_used: used_pkts.len as u32,
        packets_free,
        payload_bytes,
        ptr: *pm.counters(),
    })
}

/// The FNV-1a offset basis — the starting accumulator for
/// [`fnv1a_fold`] chains such as [`state_digest`].
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one value into an FNV-1a accumulator, byte by byte.
///
/// This is the single authoritative hash core behind every determinism
/// fingerprint in the workspace ([`state_digest`],
/// [`crate::shard::ShardedQueueManager::state_digest`], the scale
/// experiment's row fingerprint in `npqm-traffic`): the `tableN --check
/// --report` documents and the benchmark pins compare these values
/// across builds, so all producers must fold identically.
pub fn fnv1a_fold(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().into_iter().fold(hash, |acc, byte| {
        (acc ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

use fnv1a_fold as fnv1a;

/// A deterministic fingerprint of the engine's complete observable state.
///
/// Walks every queue in flow order — packet chains, segment chains and
/// the **payload bytes** themselves — plus the free-space counters and
/// the operation statistics, folding everything into one FNV-1a hash.
/// The walk is side-effect free (it uses the silent accessors, so no
/// access counter moves), which makes the digest safe to take mid-test.
///
/// Two engines with equal digests executed behaviourally identical
/// histories for every practical purpose; the property tests use this to
/// prove that a one-shard [`crate::shard::ShardedQueueManager`] leaves
/// *exactly* the state a plain engine does, and `table7 --check`
/// includes it in the machine-readable determinism report.
pub fn state_digest(qm: &QueueManager) -> u64 {
    let cfg = &qm.cfg;
    let pm = &qm.ptr;
    let mut h = FNV_OFFSET_BASIS;
    h = fnv1a(h, cfg.num_flows() as u64);
    h = fnv1a(h, cfg.num_segments() as u64);
    for f in 0..cfg.num_flows() {
        let flow = FlowId::new(f);
        let q = pm.queue_silent(flow);
        h = fnv1a(h, u64::from(q.pkts));
        h = fnv1a(h, u64::from(q.complete_pkts));
        h = fnv1a(h, u64::from(q.segs));
        h = fnv1a(h, q.bytes);
        h = fnv1a(h, u64::from(q.open));
        let mut pid = q.head_pkt;
        while !pid.is_nil() {
            let pr = pm.pkt_silent(pid);
            h = fnv1a(h, u64::from(pr.segs));
            h = fnv1a(h, u64::from(pr.bytes));
            h = fnv1a(h, u64::from(pr.started));
            h = fnv1a(h, u64::from(pr.eop));
            h = fnv1a(h, u64::from(pr.work));
            let mut seg = pr.first;
            while !seg.is_nil() {
                let rec = pm.seg_silent(seg);
                h = fnv1a(h, u64::from(rec.len));
                for &b in qm.data.read_silent(seg, rec.len as usize) {
                    h = fnv1a(h, u64::from(b));
                }
                if seg == pr.last {
                    break;
                }
                seg = rec.next;
            }
            pid = pr.next_pkt;
        }
    }
    h = fnv1a(h, u64::from(qm.free_segments()));
    h = fnv1a(h, u64::from(qm.free_packet_records()));
    let s = qm.stats();
    for v in [
        s.enqueues,
        s.dequeues,
        s.reads,
        s.overwrites,
        s.len_overwrites,
        s.seg_deletes,
        s.pkt_deletes,
        s.head_appends,
        s.tail_appends,
        s.moves,
        s.bytes_in,
        s.bytes_out,
        s.errors,
    ] {
        h = fnv1a(h, v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::manager::SegmentPosition;

    #[test]
    fn index_set_counts_each_index_once() {
        let mut set = IndexSet::new(130);
        for idx in [0, 63, 64, 129] {
            assert!(!set.contains(idx));
            assert!(set.insert(idx));
            assert!(set.contains(idx) && !set.insert(idx));
        }
        assert_eq!(set.len, 4);
    }

    #[test]
    fn fresh_engine_verifies() {
        let qm = QueueManager::new(QmConfig::small());
        let report = verify(&qm).unwrap();
        assert_eq!(report.segments_used, 0);
        assert_eq!(report.segments_free, 512);
        assert_eq!(report.packets_free, 512);
        assert_eq!(report.queues, 64);
    }

    #[test]
    fn busy_engine_verifies_and_counts() {
        let mut qm = QueueManager::new(QmConfig::small());
        for f in 0..8u32 {
            qm.enqueue_packet(FlowId::new(f), &[f as u8; 100]).unwrap();
        }
        let report = verify(&qm).unwrap();
        assert_eq!(report.segments_used, 16); // 2 per packet
        assert_eq!(report.packets_used, 8);
        assert_eq!(report.segments_free, 512 - 16);
        assert_eq!(report.payload_bytes, 8 * 100);
    }

    #[test]
    fn open_packet_verifies() {
        let mut qm = QueueManager::new(QmConfig::small());
        qm.enqueue(FlowId::new(0), &[1; 64], SegmentPosition::First)
            .unwrap();
        verify(&qm).unwrap();
    }

    /// Injects the exact corruption the pre-fix `move_packet` produced —
    /// a complete packet spliced behind an open (mid-SAR) tail — and
    /// confirms the checker now sees it. Before the EOP-tracking
    /// invariant was added, `verify` passed on this state and the torn
    /// packet was only observable once a wrong-sized frame was dequeued.
    #[test]
    fn checker_detects_complete_packet_behind_open_tail() {
        let mut qm = QueueManager::new(QmConfig::small());
        let a = FlowId::new(0);
        let b = FlowId::new(1);
        qm.enqueue(a, &[1; 64], SegmentPosition::First).unwrap();
        qm.enqueue_packet(b, &[2u8; 64]).unwrap();
        verify(&qm).unwrap();

        // Replay the old buggy splice by hand: unlink b's complete packet
        // and link it after a's open tail, with all counters "fixed up"
        // the way the old code fixed them up.
        let mut bq = qm.ptr.queue_silent(b);
        let pid = bq.head_pkt;
        let pr = qm.ptr.pkt_silent(pid);
        bq.head_pkt = crate::id::PacketId::NIL;
        bq.tail_pkt = crate::id::PacketId::NIL;
        bq.pkts = 0;
        bq.complete_pkts = 0;
        bq.segs = 0;
        bq.bytes = 0;
        qm.ptr.set_queue(b, bq);

        let mut aq = qm.ptr.queue_silent(a);
        let tail = aq.tail_pkt;
        let mut tail_pr = qm.ptr.pkt_silent(tail);
        tail_pr.next_pkt = pid;
        qm.ptr.set_pkt(tail, tail_pr);
        aq.tail_pkt = pid;
        aq.pkts += 1;
        aq.complete_pkts += 1;
        aq.segs += pr.segs;
        aq.bytes += pr.bytes as u64;
        qm.ptr.set_queue(a, aq);

        let err = verify(&qm).unwrap_err();
        assert!(err.what.contains("EOP"), "unexpected violation: {err}");
    }

    /// Flow 0 holds packets pkt:0 (150 B in seg:0..=2) and pkt:1 (100 B
    /// in seg:3,4), flow 1 holds pkt:2 (10 B in seg:5). Flow 2's two
    /// packets (seg:6,7 in pkt:3, seg:8,9 in pkt:4), deleted again, left
    /// the free lists linking seg:9 → seg:8 → seg:7 → seg:6 and pkt:4 →
    /// pkt:3, above fresh marks at seg:10 and pkt:5.
    fn three_packets() -> QueueManager {
        let mut qm = QueueManager::new(QmConfig::small());
        qm.enqueue_packet(FlowId::new(0), &[1; 150]).unwrap();
        qm.enqueue_packet(FlowId::new(0), &[2; 100]).unwrap();
        qm.enqueue_packet(FlowId::new(1), &[3; 10]).unwrap();
        for _ in 0..2 {
            qm.enqueue_packet(FlowId::new(2), &[4; 100]).unwrap();
        }
        for _ in 0..2 {
            qm.delete_packet(FlowId::new(2)).unwrap();
        }
        let report = verify(&qm).unwrap();
        assert_eq!((qm.seg_fl.fresh(), qm.pkt_fl.fresh()), (10, 5));
        assert_eq!((report.segments_free, report.packets_free), (506, 509));
        qm
    }

    fn edit_seg(qm: &mut QueueManager, seg: u32, edit: impl Fn(&mut crate::ptrmem::SegRecord)) {
        let id = SegmentId::new(seg);
        let mut rec = qm.ptr.seg_silent(id);
        edit(&mut rec);
        qm.ptr.set_seg(id, rec);
    }

    fn edit_pkt(qm: &mut QueueManager, pkt: u32, edit: impl Fn(&mut crate::ptrmem::PktRecord)) {
        let id = PacketId::new(pkt);
        let mut rec = qm.ptr.pkt_silent(id);
        edit(&mut rec);
        qm.ptr.set_pkt(id, rec);
    }

    fn edit_queue(
        qm: &mut QueueManager,
        flow: u32,
        edit: impl Fn(&mut crate::ptrmem::QueueRecord),
    ) {
        let id = FlowId::new(flow);
        let mut rec = qm.ptr.queue_silent(id);
        edit(&mut rec);
        qm.ptr.set_queue(id, rec);
    }

    /// One corruption per invariant class `verify` documents, each with
    /// its message.
    #[test]
    fn checker_names_each_class_of_corruption() {
        type Corrupt = fn(&mut QueueManager);
        let table: [(&str, Corrupt); 25] = [
            ("flow:0: segment seg:0 referenced twice", |qm| {
                edit_pkt(qm, 1, |p| p.first = SegmentId::new(0))
            }),
            ("flow:1: packet pkt:0 referenced twice", |qm| {
                edit_queue(qm, 1, |q| q.head_pkt = PacketId::new(0))
            }),
            // The last free entry replaced by a queued one that ends its
            // own chain: the free walk keeps its length.
            ("segment seg:5 is both free and in use", |qm| {
                edit_seg(qm, 7, |s| s.next = SegmentId::new(5))
            }),
            ("packet pkt:2 is both free and in use", |qm| {
                edit_pkt(qm, 4, |p| p.next_pkt = PacketId::new(2))
            }),
            ("flow:0: segment seg:1 has bad length 0", |qm| {
                edit_seg(qm, 1, |s| s.len = 0)
            }),
            ("flow:0: segment seg:1 has bad length 65", |qm| {
                edit_seg(qm, 1, |s| s.len = 65)
            }),
            ("flow:0: packet pkt:0 chain longer than its count 2", |qm| {
                edit_pkt(qm, 0, |p| p.segs = 2)
            }),
            (
                "flow:0: packet pkt:0 counts 4 segments, walk found 3",
                |qm| edit_pkt(qm, 0, |p| p.segs = 4),
            ),
            (
                "flow:0: last segment seg:2 of pkt:0 has a successor",
                |qm| edit_seg(qm, 2, |s| s.next = SegmentId::new(6)),
            ),
            (
                "flow:0: packet pkt:0 counts 149 bytes, walk found 150",
                |qm| edit_pkt(qm, 0, |p| p.bytes = 149),
            ),
            ("flow:0: queue counts 3 packets, walk found 2", |qm| {
                edit_queue(qm, 0, |q| q.pkts = 3)
            }),
            ("flow:0: packet chain longer than count 1", |qm| {
                edit_queue(qm, 0, |q| q.pkts = 1)
            }),
            ("flow:0: queue counts 251 bytes, walk found 250", |qm| {
                edit_queue(qm, 0, |q| q.bytes = 251)
            }),
            ("flow:0: tail is pkt:0 but walk ended at pkt:1", |qm| {
                edit_queue(qm, 0, |q| q.tail_pkt = PacketId::new(0))
            }),
            (
                "flow:0: non-head packet pkt:1 is partially consumed",
                |qm| edit_pkt(qm, 1, |p| p.started = true),
            ),
            (
                "segment free list count 506 != walk length 1 + 502 never used",
                |qm| edit_seg(qm, 9, |s| s.next = SegmentId::NIL),
            ),
            (
                "packet free list count 509 != walk length 1 + 507 never used",
                |qm| edit_pkt(qm, 4, |p| p.next_pkt = PacketId::NIL),
            ),
            // An entry taken off its free list and linked nowhere.
            (
                "segment space not partitioned: 6 used + 505 free != 512",
                |qm| {
                    qm.seg_fl.alloc(&mut qm.ptr).unwrap();
                },
            ),
            (
                "packet space not partitioned: 3 used + 508 free != 512",
                |qm| {
                    qm.pkt_fl.alloc(&mut qm.ptr);
                },
            ),
            // A link, queued or free, to an id no free list handed out.
            (
                "segment seg:10 is free at or above the fresh mark 10",
                |qm| edit_seg(qm, 6, |s| s.next = SegmentId::new(10)),
            ),
            ("packet pkt:5 is free at or above the fresh mark 5", |qm| {
                edit_pkt(qm, 3, |p| p.next_pkt = PacketId::new(5))
            }),
            (
                "flow:1: segment seg:10 is queued at or above the fresh mark 10",
                |qm| edit_pkt(qm, 2, |p| p.first = SegmentId::new(10)),
            ),
            (
                "flow:1: packet pkt:5 is queued at or above the fresh mark 5",
                |qm| edit_queue(qm, 1, |q| q.head_pkt = PacketId::new(5)),
            ),
            // A record written past the mark.
            ("segment plane holds 11 records, fresh mark is 10", |qm| {
                qm.ptr.materialise_segs(1, SegmentId::NIL);
            }),
            ("packet plane holds 6 records, fresh mark is 5", |qm| {
                qm.ptr.materialise_pkt();
            }),
        ];
        for (message, corrupt) in table {
            let mut qm = three_packets();
            corrupt(&mut qm);
            assert_eq!(verify(&qm).unwrap_err().what, message);
        }
    }

    /// The last free segment spliced back onto the head: the walk must
    /// end at the first repeat, where following the links never does.
    #[test]
    fn cyclic_segment_free_list_is_a_violation_not_a_hang() {
        let mut qm = three_packets();
        edit_seg(&mut qm, 6, |s| s.next = SegmentId::new(9));
        assert_eq!(
            verify(&qm).unwrap_err().what,
            "segment seg:9 appears twice on the free list"
        );
        assert_eq!(qm.seg_fl.collect_free(&qm.ptr).len(), 512);
    }

    #[test]
    fn cyclic_packet_free_list_is_a_violation_not_a_hang() {
        let mut qm = three_packets();
        edit_pkt(&mut qm, 3, |p| p.next_pkt = PacketId::new(4));
        assert_eq!(
            verify(&qm).unwrap_err().what,
            "packet pkt:4 appears twice on the free list"
        );
        assert_eq!(qm.pkt_fl.collect_free(&qm.ptr).len(), 512);
    }

    /// The paper's geometry — 32 K queues over 2^20 segments — with a
    /// 1518-byte frame on every queue, visited in a stride so neighbouring
    /// queues do not hold neighbouring segments.
    #[test]
    fn paper_geometry_fills_verifies_and_drains() {
        const FLOWS: u32 = QmConfig::PAPER_NUM_FLOWS;
        const STRIDE: u32 = 12_289; // odd, so coprime with 2^15: a permutation
        let run = || {
            let cfg = QmConfig::builder()
                .num_flows(FLOWS)
                .num_segments(1 << 20)
                .build()
                .unwrap();
            let mut qm = QueueManager::new(cfg);
            let mut frame = [0xA5u8; 1518];
            let flows = || (0..FLOWS).map(|i| FlowId::new(i.wrapping_mul(STRIDE) % FLOWS));
            for (seq, flow) in flows().enumerate() {
                frame[..4].copy_from_slice(&(seq as u32).to_le_bytes());
                qm.enqueue_packet(flow, &frame).unwrap();
            }
            let full = verify(&qm).unwrap();
            assert_eq!(full.segments_used, FLOWS * 24);
            assert_eq!(full.segments_free, (1 << 20) - FLOWS * 24);
            assert_eq!(full.packets_used, FLOWS);
            assert_eq!(full.payload_bytes, u64::from(FLOWS) * 1518);
            for (seq, flow) in flows().enumerate() {
                frame[..4].copy_from_slice(&(seq as u32).to_le_bytes());
                assert_eq!(qm.dequeue_packet(flow).unwrap(), frame);
            }
            let empty = verify(&qm).unwrap();
            assert_eq!((empty.segments_used, empty.packets_used), (0, 0));
            assert_eq!(empty.segments_free, 1 << 20);
            assert_eq!(empty.ptr.total(), u64::from(FLOWS) * 15 * 24);
            state_digest(&qm)
        };
        assert_eq!(run(), run());
    }

    /// At the paper's geometry a new engine writes no segment or packet
    /// record; a LIFO fill and drain leaves exactly the records of the
    /// deepest fill, which the low watermark measures.
    #[test]
    fn paper_geometry_materialises_only_the_records_it_touches() {
        const FLOWS: u32 = 1024;
        let cfg = QmConfig::builder()
            .num_flows(QmConfig::PAPER_NUM_FLOWS)
            .num_segments(1 << 20)
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        assert_eq!((qm.ptr.seg_records(), qm.ptr.pkt_records()), (0, 0));
        assert_eq!(verify(&qm).unwrap().segments_free, 1 << 20);
        for round in 0..2 {
            for f in 0..FLOWS {
                qm.enqueue_packet(FlowId::new(f * 32), &[round; 1518])
                    .unwrap();
            }
            for f in 0..FLOWS {
                qm.dequeue_packet(FlowId::new(f * 32)).unwrap();
            }
        }
        let low = qm.free_segments_low_watermark();
        assert_eq!(low, (1 << 20) - FLOWS * 24);
        assert_eq!(qm.ptr.seg_records(), (1 << 20) - low);
        assert_eq!(qm.ptr.pkt_records(), FLOWS);
        let empty = verify(&qm).unwrap();
        assert_eq!(
            (empty.segments_free, empty.packets_free),
            (1 << 20, 1 << 20)
        );
    }

    #[test]
    fn report_default_and_display() {
        assert_eq!(InvariantReport::default().queues, 0);
        let v = InvariantViolation {
            what: "x".to_string(),
        };
        assert_eq!(v.to_string(), "invariant violated: x");
    }
}
