//! Address-to-bank mapping for segment-aligned data memories.
//!
//! The MMS data memory is "segment aligned" (§6): segment *i* occupies
//! bytes `[i*64, (i+1)*64)`. DDR devices interleave consecutive addresses
//! across banks, so *which segment ids the free list hands out* determines
//! the bank access pattern — the physical link between the queue engine's
//! free-list discipline (`npqm-core`) and the §3 bank-conflict behaviour.

use crate::ddr::Access;
use crate::pattern::PortPattern;

/// Maps segment indices to DDR banks under simple interleaving.
///
/// # Example
///
/// ```
/// use npqm_mem::addrmap::AddressMap;
///
/// // 64-byte segments, 64-byte interleave granularity, 8 banks:
/// // consecutive segments land in consecutive banks.
/// let map = AddressMap::new(64, 64, 8);
/// assert_eq!(map.bank_of_segment(0), 0);
/// assert_eq!(map.bank_of_segment(7), 7);
/// assert_eq!(map.bank_of_segment(8), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    segment_bytes: u32,
    interleave_bytes: u32,
    banks: u32,
}

impl AddressMap {
    /// Creates a map for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(segment_bytes: u32, interleave_bytes: u32, banks: u32) -> Self {
        assert!(segment_bytes > 0, "segment size must be non-zero");
        assert!(interleave_bytes > 0, "interleave must be non-zero");
        assert!(banks > 0, "need at least one bank");
        AddressMap {
            segment_bytes,
            interleave_bytes,
            banks,
        }
    }

    /// The paper's geometry: 64-byte segments striped one-per-bank.
    pub fn paper(banks: u32) -> Self {
        Self::new(64, 64, banks)
    }

    /// The bank holding byte address `addr`.
    pub fn bank_of_addr(&self, addr: u64) -> u32 {
        ((addr / self.interleave_bytes as u64) % self.banks as u64) as u32
    }

    /// The bank holding the start of segment `index`.
    pub fn bank_of_segment(&self, index: u32) -> u32 {
        self.bank_of_addr(index as u64 * self.segment_bytes as u64)
    }
}

/// Replays a recorded stream of segment indices as a DDR port pattern —
/// e.g. the allocation order of a queue engine's free list.
///
/// Each port consumes from the same stream (they share the data memory);
/// the stream wraps around when exhausted.
#[derive(Debug, Clone)]
pub struct SegmentStream {
    banks: Vec<u32>,
    cursor: usize,
}

impl SegmentStream {
    /// Builds a pattern from segment indices under `map`.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty.
    pub fn new(map: AddressMap, segments: &[u32]) -> Self {
        assert!(!segments.is_empty(), "stream must not be empty");
        SegmentStream {
            banks: segments.iter().map(|&s| map.bank_of_segment(s)).collect(),
            cursor: 0,
        }
    }

    /// Number of accesses in one pass of the stream.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Whether the stream is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }
}

impl PortPattern for SegmentStream {
    fn next_access(&mut self, port: usize) -> Access {
        let bank = self.banks[self.cursor];
        self.cursor = (self.cursor + 1) % self.banks.len();
        Access {
            bank,
            kind: crate::pattern::port_kind(port),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr::DdrConfig;
    use crate::sched::{run_schedule, Reordering};

    #[test]
    fn interleaving_stripes_segments() {
        let map = AddressMap::paper(8);
        for i in 0..64 {
            assert_eq!(map.bank_of_segment(i), i % 8);
        }
    }

    #[test]
    fn coarse_interleave_groups_segments() {
        // 256-byte interleave: four 64-byte segments share a bank.
        let map = AddressMap::new(64, 256, 4);
        assert_eq!(map.bank_of_segment(0), 0);
        assert_eq!(map.bank_of_segment(3), 0);
        assert_eq!(map.bank_of_segment(4), 1);
        assert_eq!(map.bank_of_addr(1024), 0);
    }

    #[test]
    fn sequential_allocation_stream_is_conflict_free() {
        // A FIFO free list hands out 0,1,2,3,... -> perfect striping.
        let map = AddressMap::paper(8);
        let segments: Vec<u32> = (0..1024).collect();
        let stream = SegmentStream::new(map, &segments);
        let cfg = DdrConfig::paper_conflicts_only(8);
        let r = run_schedule(&cfg, Reordering::new(), stream, 20_000);
        assert!(r.loss() < 0.01, "loss {}", r.loss());
    }

    #[test]
    fn hot_reuse_stream_conflicts_heavily() {
        // A LIFO free list under light load recycles the same segment:
        // every access hits one bank.
        let map = AddressMap::paper(8);
        let stream = SegmentStream::new(map, &[5, 5, 5, 5]);
        let cfg = DdrConfig::paper_conflicts_only(8);
        let r = run_schedule(&cfg, Reordering::new(), stream, 20_000);
        assert!((r.loss() - 0.75).abs() < 0.01, "loss {}", r.loss());
    }

    #[test]
    #[should_panic(expected = "stream must not be empty")]
    fn empty_stream_panics() {
        let _ = SegmentStream::new(AddressMap::paper(8), &[]);
    }
}
