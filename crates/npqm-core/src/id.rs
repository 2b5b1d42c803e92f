//! Typed identifiers for segments, packets and flows.
//!
//! The paper's MMS performs "per flow queuing for up to 32 K flows" over a
//! segment-aligned data memory. These newtypes keep the three index spaces
//! (data-memory segments, packet records, flow queues) statically distinct
//! (C-NEWTYPE).

use core::fmt;

/// Index of a fixed-size segment in the data memory.
///
/// `SegmentId` doubles as the link value in the pointer memory; the
/// reserved value [`SegmentId::NIL`] terminates chains.
///
/// # Example
///
/// ```
/// use npqm_core::SegmentId;
/// let s = SegmentId::new(5);
/// assert_eq!(s.index(), 5);
/// assert!(!s.is_nil());
/// assert!(SegmentId::NIL.is_nil());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(u32);

impl SegmentId {
    /// Chain terminator / "no segment" sentinel.
    pub const NIL: SegmentId = SegmentId(u32::MAX);

    /// Creates a segment id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` collides with the NIL sentinel.
    pub const fn new(index: u32) -> Self {
        assert!(index != u32::MAX, "index collides with SegmentId::NIL");
        SegmentId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The raw index as `usize` for slice addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the NIL sentinel.
    pub const fn is_nil(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nil() {
            write!(f, "seg:NIL")
        } else {
            write!(f, "seg:{}", self.0)
        }
    }
}

/// Index of a packet record in the pointer memory.
///
/// Packet records are allocated from their own free list, mirroring the
/// separate "packet pointer" plane the MMS keeps in ZBT SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u32);

impl PacketId {
    /// Chain terminator / "no packet" sentinel.
    pub const NIL: PacketId = PacketId(u32::MAX);

    /// Creates a packet id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` collides with the NIL sentinel.
    pub const fn new(index: u32) -> Self {
        assert!(index != u32::MAX, "index collides with PacketId::NIL");
        PacketId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The raw index as `usize` for slice addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the NIL sentinel.
    pub const fn is_nil(self) -> bool {
        self.0 == u32::MAX
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nil() {
            write!(f, "pkt:NIL")
        } else {
            write!(f, "pkt:{}", self.0)
        }
    }
}

/// Index of a flow queue (the paper supports up to 32 K independent flows).
///
/// # Example
///
/// ```
/// use npqm_core::FlowId;
/// let f = FlowId::new(1024);
/// assert_eq!(f.index(), 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(u32);

impl FlowId {
    /// Creates a flow id from a raw index.
    pub const fn new(index: u32) -> Self {
        FlowId(index)
    }

    /// The raw index.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The raw index as `usize` for slice addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow:{}", self.0)
    }
}

impl From<u32> for FlowId {
    fn from(v: u32) -> FlowId {
        FlowId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_id_basics() {
        let s = SegmentId::new(42);
        assert_eq!(s.index(), 42);
        assert_eq!(s.as_usize(), 42);
        assert!(!s.is_nil());
        assert!(SegmentId::NIL.is_nil());
        assert_eq!(s.to_string(), "seg:42");
        assert_eq!(SegmentId::NIL.to_string(), "seg:NIL");
    }

    #[test]
    fn packet_id_basics() {
        let p = PacketId::new(3);
        assert_eq!(p.index(), 3);
        assert!(!p.is_nil());
        assert!(PacketId::NIL.is_nil());
        assert_eq!(p.to_string(), "pkt:3");
        assert_eq!(PacketId::NIL.to_string(), "pkt:NIL");
    }

    #[test]
    fn flow_id_basics() {
        let f = FlowId::from(9u32);
        assert_eq!(f.index(), 9);
        assert_eq!(f.to_string(), "flow:9");
        assert_eq!(FlowId::default().index(), 0);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(SegmentId::new(1) < SegmentId::new(2));
        assert!(SegmentId::new(2) < SegmentId::NIL);
        assert!(PacketId::new(0) < PacketId::NIL);
    }

    #[test]
    #[should_panic(expected = "collides with SegmentId::NIL")]
    fn segment_nil_collision_panics() {
        let _ = SegmentId::new(u32::MAX);
    }

    #[test]
    #[should_panic(expected = "collides with PacketId::NIL")]
    fn packet_nil_collision_panics() {
        let _ = PacketId::new(u32::MAX);
    }
}
