//! Processor-Local-Bus transaction timing.
//!
//! The prototype's PLB is 64 bits wide at 100 MHz (§5, Figure 1). Three
//! ways to move a 64-byte segment across it:
//!
//! * **single-beat** — one doubleword per transaction; the §5.3 baseline
//!   (Table 3's 136-cycle copy);
//! * **line transaction** — "a segment can be retrieved from the BRAM and
//!   stored into the data cache in only 12 cycles (9 cycles for 9 double
//!   words and 3 cycle latency)", so a copy is `2 × (9 + 3) = 24` cycles;
//! * **DMA** — "four 32-bit registers … have to be set before each
//!   transaction. … each single PLB write transaction needs 4 cycles, thus
//!   we need at least 16 cycles to initiate the DMA transfer and at least
//!   34 cycles to copy the data".

/// PLB timing constants (bus cycles = CPU cycles at the paper's 100 MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlbConfig {
    /// Bus cycles for one single-beat read (arbitration + address + wait
    /// states + data).
    pub single_read: u64,
    /// Bus cycles for one single-beat write.
    pub single_write: u64,
    /// Beats in a cache-line transaction (9 doublewords for 64 B + tag).
    pub line_beats: u64,
    /// Pipeline latency of a line transaction.
    pub line_latency: u64,
    /// Bus cycles for one 32-bit device-register write (DMA setup).
    pub register_write: u64,
    /// DMA engine overhead per transfer (arbitration, completion status).
    pub dma_overhead: u64,
    /// CPU cycles per loop iteration of the software copy (index update,
    /// compare, branch).
    pub copy_loop_overhead: u64,
}

impl PlbConfig {
    /// The paper's prototype timing.
    pub const fn paper() -> Self {
        PlbConfig {
            single_read: 7,
            single_write: 6,
            line_beats: 9,
            line_latency: 3,
            register_write: 4,
            dma_overhead: 10,
            copy_loop_overhead: 4,
        }
    }

    /// Cycles for one line transaction (`Tr + Tl` of §5.3): 12.
    pub const fn line_transfer(&self) -> u64 {
        self.line_beats + self.line_latency
    }

    /// Software copy of `dwords` doublewords by single beats:
    /// read + write + loop per doubleword.
    pub const fn single_beat_copy(&self, dwords: u64) -> u64 {
        dwords * (self.single_read + self.single_write + self.copy_loop_overhead)
    }

    /// Copy via two line transactions (`TC = (TR+Tl) + (TW+Tl)`): 24.
    pub const fn line_copy(&self) -> u64 {
        2 * self.line_transfer()
    }

    /// DMA setup cost on the CPU: 4 register writes.
    pub const fn dma_setup(&self) -> u64 {
        4 * self.register_write
    }

    /// DMA transfer time on the bus (the engine uses line transactions).
    pub const fn dma_transfer(&self) -> u64 {
        self.line_copy() + self.dma_overhead
    }
}

impl Default for PlbConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_line_transfer_is_12_cycles() {
        let plb = PlbConfig::paper();
        assert_eq!(plb.line_transfer(), 12);
        assert_eq!(plb.line_copy(), 24); // TC = 2*(9+3)
    }

    #[test]
    fn paper_single_beat_copy_is_136_cycles() {
        // 64 bytes = 8 doublewords over a 64-bit bus.
        assert_eq!(PlbConfig::paper().single_beat_copy(8), 136);
    }

    #[test]
    fn paper_dma_costs() {
        let plb = PlbConfig::paper();
        assert_eq!(plb.dma_setup(), 16); // "at least 16 cycles to initiate"
        assert_eq!(plb.dma_transfer(), 34); // "at least 34 cycles to copy"
    }

    #[test]
    fn line_copy_beats_single_beat_by_5x() {
        let plb = PlbConfig::paper();
        let speedup = plb.single_beat_copy(8) as f64 / plb.line_copy() as f64;
        assert!(speedup > 5.0, "speedup {speedup}");
    }
}
