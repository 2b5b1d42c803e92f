//! Segmentation and reassembly (SAR).
//!
//! The MMS front end contains a Segmentation block (incoming packets are
//! "partitioned into fixed size segments of 64 bytes each") and a
//! Reassembly block on the output path (Figure 2). This module provides
//! both as standalone, engine-independent building blocks.

use crate::error::QueueError;
use crate::manager::SegmentPosition;

/// Splits packets into fixed-size segments with SOP/EOP delimiting.
///
/// # Example
///
/// ```
/// use npqm_core::Segmenter;
/// use npqm_core::manager::SegmentPosition;
///
/// let seg = Segmenter::new(64);
/// let pieces: Vec<_> = seg.segment(&[0u8; 130]).collect();
/// assert_eq!(pieces.len(), 3);
/// assert_eq!(pieces[0].1, SegmentPosition::First);
/// assert_eq!(pieces[2].0.len(), 2);
/// assert_eq!(pieces[2].1, SegmentPosition::Last);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segmenter {
    segment_bytes: u32,
}

impl Segmenter {
    /// Creates a segmenter for the given segment size.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is zero.
    pub fn new(segment_bytes: u32) -> Self {
        assert!(segment_bytes > 0, "segment size must be non-zero");
        Segmenter { segment_bytes }
    }

    /// The configured segment size in bytes.
    pub const fn segment_bytes(&self) -> u32 {
        self.segment_bytes
    }

    /// Number of segments a packet of `len` bytes occupies.
    pub fn segments_for(&self, len: usize) -> usize {
        len.div_ceil(self.segment_bytes as usize)
    }

    /// Splits `packet` into `(chunk, position)` pairs.
    ///
    /// An empty packet yields no segments.
    pub fn segment<'a>(
        &self,
        packet: &'a [u8],
    ) -> impl ExactSizeIterator<Item = (&'a [u8], SegmentPosition)> + 'a {
        let n = self.segments_for(packet.len());
        packet
            .chunks(self.segment_bytes as usize)
            .enumerate()
            .map(move |(i, chunk)| (chunk, SegmentPosition::from_flags(i == 0, i == n - 1)))
    }
}

/// Reassembles SOP/EOP-delimited segments back into packets.
///
/// One `Reassembler` handles one flow (the per-flow queues of the engine
/// guarantee segments of different packets never interleave within a flow).
///
/// # Example
///
/// ```
/// use npqm_core::{Reassembler, Segmenter};
///
/// let seg = Segmenter::new(64);
/// let mut ras = Reassembler::new();
/// let packet = vec![7u8; 200];
/// let mut out = None;
/// for (chunk, pos) in seg.segment(&packet) {
///     out = ras.push(chunk, pos.is_first(), pos.is_last())?;
/// }
/// assert_eq!(out.unwrap(), packet);
/// # Ok::<(), npqm_core::QueueError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    buf: Vec<u8>,
    open: bool,
    completed: u64,
}

impl Reassembler {
    /// Creates an idle reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets completed so far.
    pub const fn completed(&self) -> u64 {
        self.completed
    }

    /// Bytes buffered for the in-flight packet.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feeds one segment; returns the completed packet on EOP.
    ///
    /// # Errors
    ///
    /// [`QueueError::SarProtocol`] on SOP/EOP sequencing violations (the
    /// flow id reported is 0 since the reassembler is per-flow).
    pub fn push(
        &mut self,
        data: &[u8],
        sop: bool,
        eop: bool,
    ) -> Result<Option<Vec<u8>>, QueueError> {
        if sop && self.open {
            return Err(QueueError::SarProtocol {
                flow: crate::id::FlowId::new(0),
                expected_start: false,
            });
        }
        if !sop && !self.open {
            return Err(QueueError::SarProtocol {
                flow: crate::id::FlowId::new(0),
                expected_start: true,
            });
        }
        if sop {
            self.buf.clear();
            self.open = true;
        }
        self.buf.extend_from_slice(data);
        if eop {
            self.open = false;
            self.completed += 1;
            Ok(Some(std::mem::take(&mut self.buf)))
        } else {
            Ok(None)
        }
    }

    /// Discards any partially assembled packet.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.open = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple_has_no_short_tail() {
        let s = Segmenter::new(64);
        let pieces: Vec<_> = s.segment(&[1u8; 128]).collect();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].0.len(), 64);
        assert_eq!(pieces[1].0.len(), 64);
        assert_eq!(pieces[0].1, SegmentPosition::First);
        assert_eq!(pieces[1].1, SegmentPosition::Last);
    }

    #[test]
    fn single_segment_packet_is_only() {
        let s = Segmenter::new(64);
        let pieces: Vec<_> = s.segment(b"tiny").collect();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].1, SegmentPosition::Only);
    }

    #[test]
    fn empty_packet_yields_nothing() {
        let s = Segmenter::new(64);
        assert_eq!(s.segment(&[]).count(), 0);
        assert_eq!(s.segments_for(0), 0);
    }

    #[test]
    fn segments_for_counts() {
        let s = Segmenter::new(64);
        assert_eq!(s.segments_for(1), 1);
        assert_eq!(s.segments_for(64), 1);
        assert_eq!(s.segments_for(65), 2);
        assert_eq!(s.segments_for(1500), 24);
    }

    #[test]
    fn sar_round_trip_various_sizes() {
        let s = Segmenter::new(64);
        for len in [1usize, 63, 64, 65, 127, 128, 129, 1500] {
            let packet: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut ras = Reassembler::new();
            let mut got = None;
            for (chunk, pos) in s.segment(&packet) {
                got = ras.push(chunk, pos.is_first(), pos.is_last()).unwrap();
            }
            assert_eq!(got.unwrap(), packet, "len {len}");
            assert_eq!(ras.buffered(), 0);
        }
    }

    #[test]
    fn reassembler_protocol_errors() {
        let mut r = Reassembler::new();
        assert!(r.push(b"x", false, false).is_err(), "mid without sop");
        r.push(b"x", true, false).unwrap();
        assert!(r.push(b"y", true, false).is_err(), "sop while open");
        assert_eq!(r.buffered(), 1);
        r.reset();
        assert!(r.push(b"z", true, true).is_ok(), "sop after reset");
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn reassembler_counts_packets() {
        let mut r = Reassembler::new();
        r.push(b"a", true, true).unwrap();
        r.push(b"b", true, true).unwrap();
        assert_eq!(r.completed(), 2);
    }

    #[test]
    #[should_panic(expected = "segment size must be non-zero")]
    fn zero_segment_size_panics() {
        let _ = Segmenter::new(0);
    }
}
