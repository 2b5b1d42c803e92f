//! Configuration of a queue-management instance.

use crate::error::QueueError;

/// Free-list discipline for segment allocation.
///
/// The classic hardware free list is a LIFO stack (cheapest: one head
/// pointer). A FIFO free list cycles through the segment space, which
/// spreads consecutive allocations across DRAM banks — the ablation bench
/// `ddr_sched` quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FreeListDiscipline {
    /// Last-in first-out (stack). Matches the single-head-pointer hardware
    /// free list of the paper's §5.2 reference implementation.
    #[default]
    Lifo,
    /// First-in first-out (queue). Requires head and tail pointers but
    /// round-robins the segment space across DRAM banks.
    Fifo,
}

/// Configuration for a [`crate::QueueManager`].
///
/// Defaults reproduce the paper's MMS: 64-byte segments and 32 K flows.
///
/// # Example
///
/// ```
/// use npqm_core::QmConfig;
/// let cfg = QmConfig::builder()
///     .num_flows(1024)
///     .num_segments(4096)
///     .segment_bytes(64)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.segment_bytes(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QmConfig {
    num_flows: u32,
    num_segments: u32,
    segment_bytes: u32,
    freelist: FreeListDiscipline,
}

impl QmConfig {
    /// The paper's segment size: 64 bytes.
    pub const PAPER_SEGMENT_BYTES: u32 = 64;
    /// The paper's flow count: 32 K.
    pub const PAPER_NUM_FLOWS: u32 = 32 * 1024;

    /// Starts building a configuration.
    pub fn builder() -> QmConfigBuilder {
        QmConfigBuilder::default()
    }

    /// The paper's MMS configuration: 32 K flows, 64-byte segments, and a
    /// data memory of 128 K segments (8 MB).
    pub fn paper() -> Self {
        QmConfig {
            num_flows: Self::PAPER_NUM_FLOWS,
            num_segments: 128 * 1024,
            segment_bytes: Self::PAPER_SEGMENT_BYTES,
            freelist: FreeListDiscipline::Lifo,
        }
    }

    /// A small configuration for tests and examples: 64 flows, 512 segments.
    pub fn small() -> Self {
        QmConfig {
            num_flows: 64,
            num_segments: 512,
            segment_bytes: Self::PAPER_SEGMENT_BYTES,
            freelist: FreeListDiscipline::Lifo,
        }
    }

    /// Number of flow queues.
    pub const fn num_flows(&self) -> u32 {
        self.num_flows
    }

    /// Number of segments in the data memory.
    pub const fn num_segments(&self) -> u32 {
        self.num_segments
    }

    /// Segment size in bytes.
    pub const fn segment_bytes(&self) -> u32 {
        self.segment_bytes
    }

    /// Free-list discipline.
    pub const fn freelist_discipline(&self) -> FreeListDiscipline {
        self.freelist
    }

    /// Total data-memory capacity in bytes.
    pub const fn data_bytes(&self) -> u64 {
        self.num_segments as u64 * self.segment_bytes as u64
    }
}

impl Default for QmConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Builder for [`QmConfig`] (C-BUILDER).
#[derive(Debug, Clone)]
pub struct QmConfigBuilder {
    num_flows: u32,
    num_segments: u32,
    segment_bytes: u32,
    freelist: FreeListDiscipline,
}

impl Default for QmConfigBuilder {
    fn default() -> Self {
        let p = QmConfig::paper();
        QmConfigBuilder {
            num_flows: p.num_flows,
            num_segments: p.num_segments,
            segment_bytes: p.segment_bytes,
            freelist: p.freelist,
        }
    }
}

impl QmConfigBuilder {
    /// Sets the number of flow queues.
    pub fn num_flows(&mut self, n: u32) -> &mut Self {
        self.num_flows = n;
        self
    }

    /// Sets the number of data-memory segments.
    pub fn num_segments(&mut self, n: u32) -> &mut Self {
        self.num_segments = n;
        self
    }

    /// Sets the segment size in bytes.
    pub fn segment_bytes(&mut self, n: u32) -> &mut Self {
        self.segment_bytes = n;
        self
    }

    /// Sets the free-list discipline.
    pub fn freelist_discipline(&mut self, d: FreeListDiscipline) -> &mut Self {
        self.freelist = d;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidConfig`] if any dimension is zero, the
    /// segment size is not a power of two, the segment length does not fit
    /// the 16-bit per-segment length field, or the segment/packet index
    /// spaces would collide with the NIL sentinel.
    pub fn build(&self) -> Result<QmConfig, QueueError> {
        let err = |what: &'static str| Err(QueueError::InvalidConfig { what });
        if self.num_flows == 0 {
            return err("num_flows must be non-zero");
        }
        if self.num_segments == 0 {
            return err("num_segments must be non-zero");
        }
        if self.num_segments == u32::MAX {
            return err("num_segments collides with the NIL sentinel");
        }
        if self.segment_bytes == 0 {
            return err("segment_bytes must be non-zero");
        }
        if !self.segment_bytes.is_power_of_two() {
            return err("segment_bytes must be a power of two (segment-aligned memory)");
        }
        if self.segment_bytes > u16::MAX as u32 {
            return err("segment_bytes must fit the 16-bit length field");
        }
        Ok(QmConfig {
            num_flows: self.num_flows,
            num_segments: self.num_segments,
            segment_bytes: self.segment_bytes,
            freelist: self.freelist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let cfg = QmConfig::default();
        assert_eq!(cfg.num_flows(), 32 * 1024);
        assert_eq!(cfg.segment_bytes(), 64);
        assert_eq!(cfg.freelist_discipline(), FreeListDiscipline::Lifo);
        assert_eq!(cfg.data_bytes(), 128 * 1024 * 64);
    }

    #[test]
    fn builder_round_trip() {
        let cfg = QmConfig::builder()
            .num_flows(10)
            .num_segments(100)
            .segment_bytes(128)
            .freelist_discipline(FreeListDiscipline::Fifo)
            .build()
            .unwrap();
        assert_eq!(cfg.num_flows(), 10);
        assert_eq!(cfg.num_segments(), 100);
        assert_eq!(cfg.segment_bytes(), 128);
        assert_eq!(cfg.freelist_discipline(), FreeListDiscipline::Fifo);
    }

    #[test]
    fn builder_rejects_bad_dimensions() {
        assert!(QmConfig::builder().num_flows(0).build().is_err());
        assert!(QmConfig::builder().num_segments(0).build().is_err());
        assert!(QmConfig::builder().segment_bytes(0).build().is_err());
        assert!(QmConfig::builder().segment_bytes(48).build().is_err());
        assert!(QmConfig::builder().segment_bytes(1 << 17).build().is_err());
        assert!(QmConfig::builder().num_segments(u32::MAX).build().is_err());
    }

    #[test]
    fn small_config_is_valid() {
        let cfg = QmConfig::small();
        assert!(cfg.num_segments() >= cfg.num_flows());
        // Round-trip through the builder must validate.
        let rebuilt = QmConfig::builder()
            .num_flows(cfg.num_flows())
            .num_segments(cfg.num_segments())
            .segment_bytes(cfg.segment_bytes())
            .build()
            .unwrap();
        assert_eq!(rebuilt, cfg);
    }
}
