//! Segment-aligned data memory.
//!
//! "The segmented packets are stored in the data memory, which is segment
//! aligned" (§6). In hardware this is the external DDR DRAM; here it is a
//! flat byte arena addressed by [`SegmentId`], with read/write counters so
//! the timing models can translate payload traffic into DRAM transactions.

use crate::id::SegmentId;
use crate::timing::stream::DataAccess;

/// Segment-aligned payload storage.
///
/// # Example
///
/// ```
/// use npqm_core::pool::SegmentPool;
/// use npqm_core::SegmentId;
///
/// let mut pool = SegmentPool::new(16, 64);
/// let seg = SegmentId::new(3);
/// pool.write(seg, b"hello");
/// assert_eq!(pool.read(seg, 5), b"hello");
/// ```
#[derive(Debug, Clone)]
pub struct SegmentPool {
    bytes: Vec<u8>,
    segment_bytes: u32,
    num_segments: u32,
    reads: u64,
    writes: u64,
    tracing: bool,
    trace: Vec<DataAccess>,
}

impl SegmentPool {
    /// Allocates storage for `num_segments` segments of `segment_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(num_segments: u32, segment_bytes: u32) -> Self {
        assert!(num_segments > 0, "pool needs at least one segment");
        assert!(segment_bytes > 0, "segments must be non-empty");
        SegmentPool {
            bytes: vec![0; num_segments as usize * segment_bytes as usize],
            segment_bytes,
            num_segments,
            reads: 0,
            writes: 0,
            tracing: false,
            trace: Vec::new(),
        }
    }

    /// Enables or disables access tracing; toggling clears any recorded
    /// accesses.
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        self.trace.clear();
    }

    /// Drains the accesses recorded since the last take.
    pub(crate) fn take_accesses(&mut self) -> Vec<DataAccess> {
        std::mem::take(&mut self.trace)
    }

    /// Segment size in bytes.
    pub const fn segment_bytes(&self) -> u32 {
        self.segment_bytes
    }

    /// Number of segments.
    pub const fn num_segments(&self) -> u32 {
        self.num_segments
    }

    /// Segment-write count (each is one DRAM burst in the timing models).
    pub const fn writes(&self) -> u64 {
        self.writes
    }

    /// Segment-read count.
    pub const fn reads(&self) -> u64 {
        self.reads
    }

    fn offset(&self, id: SegmentId) -> usize {
        let idx = id.as_usize();
        assert!(
            idx < self.num_segments as usize,
            "segment {idx} out of range"
        );
        idx * self.segment_bytes as usize
    }

    fn record(&mut self, id: SegmentId, write: bool) {
        if self.tracing {
            self.trace.push(DataAccess {
                segment: id.as_usize() as u32,
                write,
            });
        }
    }

    /// Writes `data` at the start of segment `id` (one DRAM write burst).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `data` exceeds the segment size.
    pub fn write(&mut self, id: SegmentId, data: &[u8]) {
        self.chain_write(id, data);
        self.writes += 1;
    }

    /// Reads the first `len` bytes of segment `id` (one DRAM read burst).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `len` exceeds the segment size.
    pub fn read(&mut self, id: SegmentId, len: usize) -> &[u8] {
        self.reads += 1;
        self.chain_read(id, len)
    }

    // --- chain access -----------------------------------------------------
    //
    // One segment of a whole-packet transfer: checked, moved and recorded
    // as a `DataAccess` exactly as by `write` / `read`, but not counted —
    // the caller adds the chain's bursts once, with `count`.

    pub(crate) fn chain_write(&mut self, id: SegmentId, data: &[u8]) {
        assert!(
            data.len() <= self.segment_bytes as usize,
            "payload of {} bytes exceeds segment size {}",
            data.len(),
            self.segment_bytes
        );
        let off = self.offset(id);
        self.bytes[off..off + data.len()].copy_from_slice(data);
        self.record(id, true);
    }

    // Inlined into the chain walks: as an out-of-line call per segment it
    // cost a whole-packet dequeue ≈1 ns/segment.
    #[inline]
    pub(crate) fn chain_read(&mut self, id: SegmentId, len: usize) -> &[u8] {
        assert!(
            len <= self.segment_bytes as usize,
            "read of {len} bytes exceeds segment size {}",
            self.segment_bytes
        );
        let off = self.offset(id);
        self.record(id, false);
        &self.bytes[off..off + len]
    }

    /// Copies the first `len` bytes of segment `src` into segment `dst`: a
    /// read burst, then a write burst, without leaving the data memory.
    pub(crate) fn chain_copy(&mut self, src: SegmentId, dst: SegmentId, len: usize) {
        assert!(
            len <= self.segment_bytes as usize,
            "copy of {len} bytes exceeds segment size {}",
            self.segment_bytes
        );
        let (from, to) = (self.offset(src), self.offset(dst));
        self.bytes.copy_within(from..from + len, to);
        self.record(src, false);
        self.record(dst, true);
    }

    /// Adds the read and write bursts of one chain transfer.
    pub(crate) fn count(&mut self, reads: u64, writes: u64) {
        self.reads += reads;
        self.writes += writes;
    }

    /// Reads without counting (verification/tests only).
    pub fn read_silent(&self, id: SegmentId, len: usize) -> &[u8] {
        let off = self.offset(id);
        &self.bytes[off..off + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trip() {
        let mut p = SegmentPool::new(4, 64);
        p.write(SegmentId::new(2), &[7u8; 64]);
        assert_eq!(p.read(SegmentId::new(2), 64), &[7u8; 64]);
        assert_eq!(p.reads(), 1);
        assert_eq!(p.writes(), 1);
    }

    #[test]
    fn segments_are_isolated() {
        let mut p = SegmentPool::new(3, 8);
        p.write(SegmentId::new(0), &[1; 8]);
        p.write(SegmentId::new(1), &[2; 8]);
        p.write(SegmentId::new(2), &[3; 8]);
        assert_eq!(p.read(SegmentId::new(1), 8), &[2; 8]);
        assert_eq!(p.read(SegmentId::new(0), 8), &[1; 8]);
        assert_eq!(p.read(SegmentId::new(2), 8), &[3; 8]);
    }

    #[test]
    fn partial_segment_write_preserves_prefix_semantics() {
        let mut p = SegmentPool::new(1, 16);
        p.write(SegmentId::new(0), b"abcd");
        assert_eq!(p.read(SegmentId::new(0), 4), b"abcd");
        // A shorter rewrite only touches the prefix.
        p.write(SegmentId::new(0), b"xy");
        assert_eq!(p.read(SegmentId::new(0), 4), b"xycd");
    }

    #[test]
    fn silent_read_does_not_count() {
        let mut p = SegmentPool::new(1, 8);
        p.write(SegmentId::new(0), b"z");
        let _ = p.read_silent(SegmentId::new(0), 1);
        assert_eq!(p.reads(), 0);
    }

    #[test]
    fn geometry_accessors() {
        let p = SegmentPool::new(10, 128);
        assert_eq!(p.num_segments(), 10);
        assert_eq!(p.segment_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "exceeds segment size")]
    fn oversized_write_panics() {
        let mut p = SegmentPool::new(1, 8);
        p.write(SegmentId::new(0), &[0; 9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let mut p = SegmentPool::new(1, 8);
        let _ = p.read(SegmentId::new(1), 1);
    }
}
