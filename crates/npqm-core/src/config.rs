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

    /// The number of segments `bytes` bytes occupy:
    /// `bytes.div_ceil(segment_bytes)`, computed as a shift because every
    /// built configuration's segment size is a power of two.
    #[inline]
    pub const fn segments_for(&self, bytes: usize) -> usize {
        let shift = self.segment_bytes.trailing_zeros();
        (bytes >> shift) + ((bytes & (self.segment_bytes as usize - 1)) != 0) as usize
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
    /// the 16-bit per-segment length field, the segment/packet index
    /// spaces would collide with the NIL sentinel, or the occupancy key
    /// does not fit one `u64`: LQD's longest-queue tree packs a queue's
    /// byte count above its flow index, so the bits of
    /// `num_segments × segment_bytes` (computed in `u64`) plus the bits of
    /// `num_flows − 1` must be at most 64. Every configuration with at
    /// most 2^17 flows fits (`segment_bytes` is at most 2^15); the paper's
    /// takes 24 + 15 bits.
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
        let cfg = QmConfig {
            num_flows: self.num_flows,
            num_segments: self.num_segments,
            segment_bytes: self.segment_bytes,
            freelist: self.freelist,
        };
        let flow_bits = u32::BITS - (cfg.num_flows - 1).leading_zeros();
        if u64::BITS - cfg.data_bytes().leading_zeros() + flow_bits > u64::BITS {
            return err("num_segments * segment_bytes must fit beside the flow index in a u64 occupancy key");
        }
        Ok(cfg)
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

    /// The occupancy-key bound, at its edge: the largest configuration
    /// whose byte count fits beside the flow bits builds, and one flow or
    /// one segment more does not. Nothing is allocated: only the
    /// configuration is built.
    #[test]
    fn occupancy_key_bound_accepts_the_largest_fit_and_refuses_the_next() {
        let build = |flows: u32, segs: u32, seg_bytes: u32| {
            QmConfig::builder()
                .num_flows(flows)
                .num_segments(segs)
                .segment_bytes(seg_bytes)
                .build()
        };
        // 2^29 flows (29 key bits) over 16 GiB (a 35-bit count) fill 64
        // bits; one flow more needs a 30th.
        assert!(build(1 << 29, 1 << 19, 1 << 15).is_ok());
        assert!(build((1 << 29) + 1, 1 << 19, 1 << 15).is_err());
        // u32::MAX flows take 32 key bits: 2^31 − 1 segments of 2 bytes fit,
        // 2^31 (a 33-bit count) do not.
        assert!(build(u32::MAX, (1 << 31) - 1, 2).is_ok());
        assert!(build(u32::MAX, 1 << 31, 2).is_err());
        // 2^17 flows fit with the largest buffer there is; one more does not.
        assert!(build(1 << 17, u32::MAX - 1, 1 << 15).is_ok());
        assert!(build((1 << 17) + 1, u32::MAX - 1, 1 << 15).is_err());
        // The paper's geometry and the 32K-queue benchmark engine fit.
        assert!(build(32 * 1024, 1 << 20, 64).is_ok());
        let p = QmConfig::paper();
        assert!(build(p.num_flows(), p.num_segments(), p.segment_bytes()).is_ok());
    }

    /// Flow counts, segment counts and segment sizes at their u32 and u16
    /// edges: `build` answers `Ok` or `Err`, never overflows, and accepts
    /// exactly the configurations every rule allows (recomputed here in
    /// `u128`).
    #[test]
    fn u32_and_u16_edges_build_or_refuse_without_overflow() {
        const M: u32 = u32::MAX;
        const H: u32 = u16::MAX as u32;
        let flows = [0, 1, 2, 1 << 16, 1 << 17, (1 << 17) + 1, 1 << 31, M - 1, M];
        let segs = [0, 1, 2, H, H + 1, 1 << 31, M - 1, M];
        let sizes = [0, 1, 2, 1 << 15, H, H + 1, 1 << 31, M];
        let bits = |x: u128| u128::BITS - x.leading_zeros();
        let mut accepted = 0;
        for f in flows {
            for n in segs {
                for b in sizes {
                    let got = QmConfig::builder()
                        .num_flows(f)
                        .num_segments(n)
                        .segment_bytes(b)
                        .build();
                    let want = f > 0
                        && n > 0
                        && n < u32::MAX
                        && b.is_power_of_two()
                        && b <= u32::from(u16::MAX)
                        && bits(u128::from(n) * u128::from(b)) + bits(u128::from(f) - 1) <= 64;
                    assert_eq!(got.is_ok(), want, "{f} flows, {n} segments of {b} bytes");
                    if let Ok(cfg) = got {
                        assert_eq!(cfg.data_bytes(), u64::from(n) * u64::from(b));
                        accepted += 1;
                    }
                }
            }
        }
        assert!(accepted > 0);
    }

    /// The shift agrees with the divide for every segment size `build`
    /// accepts, at the lengths around one and two segments, a jumbo frame
    /// and the ends of `u32` and `usize`.
    #[test]
    fn segments_for_is_div_ceil_at_every_legal_segment_size() {
        for k in 0..=15 {
            let s = 1usize << k;
            let cfg = QmConfig::builder()
                .num_flows(4)
                .num_segments(16)
                .segment_bytes(s as u32)
                .build()
                .unwrap();
            let lens = [
                0,
                1,
                s - 1,
                s,
                s + 1,
                2 * s,
                9216,
                u32::MAX as usize,
                usize::MAX,
            ];
            for len in lens {
                assert_eq!(
                    cfg.segments_for(len),
                    len.div_ceil(s),
                    "{len} B in {s} B segments"
                );
            }
        }
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
