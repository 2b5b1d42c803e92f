//! Per-packet operation profiles of the queue-management microcode.
//!
//! The paper reports measured packet rates but not instruction-level
//! breakdowns; the profiles below reconstruct the per-packet cost (compute
//! cycles plus scratch/SRAM/SDRAM reference counts) from the §5.2 data
//! structures and the known IXP1200 memory map, calibrated once against the
//! single-engine column of Table 2:
//!
//! * **≤16 queues** — descriptors live in registers/scratch. Per packet:
//!   RX handshake, flow lookup, head/tail update, TX handshake ≈ 160
//!   compute cycles + 4 scratch references (ring get/put, doorbells).
//! * **≤256 queues** — descriptors + free list in external SRAM: the
//!   enqueue/dequeue pair costs 6 SRAM round-trips (free-list pop: head +
//!   next; descriptor read; tail-pointer link write; descriptor
//!   write-back; free-list push).
//! * **>256 queues** — the working set (descriptors, free list, per-queue
//!   statistics) exceeds the SRAM budget and spills to SDRAM; the packet
//!   path adds descriptor/pointer traffic there plus staging of the
//!   64-byte payload through the SDRAM buffer (8 burst references), and
//!   the flow-lookup software path lengthens (hashing + chasing).
//!
//! With the controller timings of [`crate::memunit`] these yield 209, 514
//! and 3 328 cycles per packet — Table 2's 956/390/60 Kpps within 2%.

/// Per-packet cost profile for one queue-count regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpProfile {
    /// Pure compute cycles per packet (instruction execution).
    pub compute_cycles: u64,
    /// Blocking references to the on-chip scratch unit.
    pub scratch_refs: u32,
    /// Blocking references to the external SRAM unit.
    pub sram_refs: u32,
    /// Blocking references to the SDRAM unit.
    pub sdram_refs: u32,
}

impl OpProfile {
    /// Total blocking references.
    pub const fn total_refs(&self) -> u32 {
        self.scratch_refs + self.sram_refs + self.sdram_refs
    }

    /// The profile for a queue-management program handling `queues` queues.
    pub const fn for_queues(queues: u32) -> OpProfile {
        if queues <= 16 {
            OpProfile {
                compute_cycles: 160,
                scratch_refs: 4,
                sram_refs: 0,
                sdram_refs: 0,
            }
        } else if queues <= 256 {
            OpProfile {
                compute_cycles: 160,
                scratch_refs: 4,
                sram_refs: 6,
                sdram_refs: 0,
            }
        } else {
            OpProfile {
                compute_cycles: 400,
                scratch_refs: 4,
                sram_refs: 10,
                sdram_refs: 20,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_boundaries() {
        assert_eq!(OpProfile::for_queues(1), OpProfile::for_queues(16));
        assert_ne!(OpProfile::for_queues(16), OpProfile::for_queues(17));
        assert_eq!(OpProfile::for_queues(128), OpProfile::for_queues(256));
        assert_ne!(OpProfile::for_queues(256), OpProfile::for_queues(257));
        assert_eq!(OpProfile::for_queues(1024), OpProfile::for_queues(32768));
    }

    #[test]
    fn cost_grows_with_queues() {
        let small = OpProfile::for_queues(16);
        let mid = OpProfile::for_queues(128);
        let large = OpProfile::for_queues(1024);
        assert!(small.total_refs() < mid.total_refs());
        assert!(mid.total_refs() < large.total_refs());
        assert!(small.compute_cycles <= large.compute_cycles);
        assert_eq!(small.sdram_refs, 0);
        assert_eq!(mid.sdram_refs, 0);
        assert!(large.sdram_refs > 0);
    }

    #[test]
    fn unloaded_cycle_budget_matches_calibration() {
        // With the memunit latencies (scratch 12, SRAM 51, SDRAM 119):
        let small = OpProfile::for_queues(16);
        assert_eq!(small.compute_cycles + small.scratch_refs as u64 * 12, 208);
        let mid = OpProfile::for_queues(128);
        assert_eq!(
            mid.compute_cycles + mid.scratch_refs as u64 * 12 + mid.sram_refs as u64 * 51,
            514
        );
        let large = OpProfile::for_queues(1024);
        assert_eq!(
            large.compute_cycles
                + large.scratch_refs as u64 * 12
                + large.sram_refs as u64 * 51
                + large.sdram_refs as u64 * 119,
            3338
        );
    }
}
