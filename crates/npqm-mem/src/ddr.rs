//! DDR-SDRAM behavioral timing model.
//!
//! Time advances in *access cycles* ("a new read/write access to 64-byte
//! data blocks can be inserted to DDR-DRAM every 4-clock-cycles (access
//! cycle = 40 ns)", §3 footnote 1). A bank that served an access may serve
//! the next one only after the bank-precharge gap ("successive accesses to
//! the same bank may be performed every 160 ns"), i.e. 4 access cycles.
//! A write issued in the slot immediately after a read pays one extra
//! access cycle of bus-turnaround ("the write access must be delayed 1
//! access cycle", footnote 2).

use npqm_sim::time::Picos;

/// Direction of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Read a 64-byte block.
    Read,
    /// Write a 64-byte block.
    Write,
}

/// One 64-byte block access addressed to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Target bank index.
    pub bank: u32,
    /// Read or write.
    pub kind: AccessKind,
}

/// Timing configuration of the DDR device.
///
/// # Units — audited against the paper's §3 footnotes
///
/// All durations are absolute [`Picos`] (integer picoseconds), *not*
/// device clock cycles. The constants of [`DdrConfig::paper`] come from
/// the paper's footnotes 1–2 and are exact in this representation:
///
/// | field | value | source |
/// |---|---|---|
/// | `access_cycle` | 40 ns | "a new read/write access to 64-byte data blocks can be inserted … every 4-clock-cycles (access cycle = 40 ns)" — 4 cycles of the 100 MHz command clock |
/// | `bank_reuse` | 160 ns | "successive accesses to the same bank may be performed every 160 ns" = exactly 4 access cycles ([`DdrConfig::reuse_slots`]) |
/// | `read_delay` | 60 ns | CAS-style read latency (slot start → data valid) |
/// | `write_delay` | 40 ns | write latency (slot start → data absorbed) |
/// | `model_turnaround` | `true` | "the write access must be delayed 1 access cycle" after a read (footnote 2) |
///
/// The *block* moved per access slot is 64 bytes: a 64-bit data bus at
/// 100 MHz with double clocking moves 8 bytes per edge × 8 edges in
/// 40 ns, giving the 12.8 Gbit/s peak of [`DdrConfig::peak_gbps`]`(64)`.
///
/// `read_delay`/`write_delay` are **latencies, not occupancy**: slot
/// scheduling (which is what Table 1's throughput loss measures) is
/// governed solely by `access_cycle`, `bank_reuse` and the turnaround
/// rule; the delays only time-stamp when data becomes available.
///
/// # Example
///
/// ```
/// use npqm_mem::ddr::DdrConfig;
/// let cfg = DdrConfig::paper(8);
/// assert_eq!(cfg.banks, 8);
/// assert_eq!(cfg.reuse_slots(), 4); // 160 ns / 40 ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdrConfig {
    /// Number of banks (the paper sweeps 1–16).
    pub banks: u32,
    /// One access slot: the interval at which new block accesses can
    /// issue (40 ns in the paper — one 64-byte block per slot).
    pub access_cycle: Picos,
    /// Minimum spacing of accesses to the same bank (160 ns in the
    /// paper). Must be a whole multiple of `access_cycle`:
    /// [`DdrConfig::reuse_slots`] truncates.
    pub bank_reuse: Picos,
    /// Read access delay, start of slot → data available (60 ns).
    /// Informational: does not affect slot scheduling.
    pub read_delay: Picos,
    /// Write access delay, start of slot → data absorbed (40 ns).
    /// Informational: does not affect slot scheduling.
    pub write_delay: Picos,
    /// Whether the write-after-read turnaround penalty is modeled
    /// (Table 1 reports columns with and without it).
    pub model_turnaround: bool,
}

impl DdrConfig {
    /// The paper's DDR device: 40 ns access cycle, 160 ns bank reuse,
    /// 60 ns read / 40 ns write delay, turnaround modeled.
    pub fn paper(banks: u32) -> Self {
        DdrConfig {
            banks,
            access_cycle: Picos::from_nanos(40),
            bank_reuse: Picos::from_nanos(160),
            read_delay: Picos::from_nanos(60),
            write_delay: Picos::from_nanos(40),
            model_turnaround: true,
        }
    }

    /// Same as [`DdrConfig::paper`] but with the turnaround penalty off
    /// (the "bank conflicts" sub-columns of Table 1).
    pub fn paper_conflicts_only(banks: u32) -> Self {
        DdrConfig {
            model_turnaround: false,
            ..Self::paper(banks)
        }
    }

    /// Bank-reuse gap in access slots (4 for the paper's timing:
    /// 160 ns / 40 ns). Integer division — a `bank_reuse` that is not a
    /// whole multiple of `access_cycle` truncates toward zero.
    pub fn reuse_slots(&self) -> u64 {
        self.bank_reuse / self.access_cycle
    }

    /// Peak throughput in Gbit/s: one `block_bytes`-byte block per access
    /// cycle (bits per nanosecond ≡ Gbit/s). `block_bytes` is the
    /// transfer size of one access slot — 64 in the paper, where this
    /// evaluates to the quoted 12.8 Gbit/s peak ("a 64-bit data bus at
    /// 100 MHz with double clocking").
    pub fn peak_gbps(&self, block_bytes: u32) -> f64 {
        block_bytes as f64 * 8.0 / self.access_cycle.as_nanos_f64()
    }
}

impl Default for DdrConfig {
    fn default() -> Self {
        Self::paper(8)
    }
}

/// Tracks per-bank availability and enforces the timing protocol.
///
/// Every issue is checked against the bank-reuse constraint; violating it
/// is a bug in the scheduler, not a recoverable condition, hence a panic.
#[derive(Debug, Clone)]
pub struct BankTracker {
    next_free: Vec<u64>,
    reuse_slots: u64,
    issues: u64,
    last_issue: Option<(u64, AccessKind)>,
}

impl BankTracker {
    /// Creates a tracker for `cfg.banks` banks.
    pub fn new(cfg: &DdrConfig) -> Self {
        BankTracker {
            next_free: vec![0; cfg.banks as usize],
            reuse_slots: cfg.reuse_slots(),
            issues: 0,
            last_issue: None,
        }
    }

    /// Whether `bank` can accept an access at `slot`.
    pub fn is_free(&self, bank: u32, slot: u64) -> bool {
        slot >= self.next_free[bank as usize]
    }

    /// First slot at or after `slot` at which `bank` is free.
    pub fn free_at(&self, bank: u32, slot: u64) -> u64 {
        self.next_free[bank as usize].max(slot)
    }

    /// Records an issue to `bank` at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the bank-reuse constraint would be violated — schedulers
    /// must check [`BankTracker::is_free`] first.
    pub fn issue(&mut self, access: Access, slot: u64) {
        assert!(
            self.is_free(access.bank, slot),
            "bank {} reused at slot {slot} before {}",
            access.bank,
            self.next_free[access.bank as usize],
        );
        self.next_free[access.bank as usize] = slot + self.reuse_slots;
        self.issues += 1;
        self.last_issue = Some((slot, access.kind));
    }

    /// Whether issuing `kind` at `slot` pays the write-after-read
    /// turnaround (a write in the slot immediately following a read).
    pub fn turnaround_penalty(&self, kind: AccessKind, slot: u64) -> bool {
        matches!(
            (kind, self.last_issue),
            (AccessKind::Write, Some((s, AccessKind::Read))) if s + 1 == slot
        )
    }

    /// Total accesses issued.
    pub const fn issues(&self) -> u64 {
        self.issues
    }

    /// The bank-reuse gap in access slots.
    pub const fn reuse_slots(&self) -> u64 {
        self.reuse_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_constants() {
        let cfg = DdrConfig::paper(4);
        assert_eq!(cfg.access_cycle, Picos::from_nanos(40));
        assert_eq!(cfg.bank_reuse, Picos::from_nanos(160));
        assert_eq!(cfg.read_delay, Picos::from_nanos(60));
        assert_eq!(cfg.write_delay, Picos::from_nanos(40));
        assert_eq!(cfg.reuse_slots(), 4);
        assert!(cfg.model_turnaround);
        assert!(!DdrConfig::paper_conflicts_only(4).model_turnaround);
    }

    #[test]
    fn paper_units_audit() {
        // The §3 footnote constants, cross-checked in their own units:
        // the bank-reuse gap is exactly 4 access slots, the write delay
        // is exactly one access cycle (which is why the turnaround
        // penalty is one slot), and the read delay is 1.5 access cycles.
        let cfg = DdrConfig::paper(8);
        assert_eq!(cfg.bank_reuse / cfg.access_cycle, 4);
        assert_eq!(cfg.write_delay, cfg.access_cycle);
        assert_eq!(cfg.read_delay / cfg.access_cycle, 1); // 60/40 truncates
        assert_eq!(cfg.read_delay + cfg.write_delay, Picos::from_nanos(100));
        // Picos are exact for every constant — no rounding anywhere.
        assert_eq!(cfg.access_cycle.as_u64(), 40_000);
        assert_eq!(cfg.bank_reuse.as_u64(), 160_000);
    }

    #[test]
    fn peak_throughput_is_12_8_gbps() {
        // "The DDR technology provides 12.8 Gbps of peak throughput when
        //  using a 64-bit data bus at 100 MHz with double clocking."
        let cfg = DdrConfig::paper(8);
        assert!((cfg.peak_gbps(64) - 12.8).abs() < 1e-9);
    }

    #[test]
    fn bank_reuse_enforced() {
        let cfg = DdrConfig::paper(2);
        let mut bt = BankTracker::new(&cfg);
        let a = Access {
            bank: 0,
            kind: AccessKind::Read,
        };
        bt.issue(a, 0);
        assert!(!bt.is_free(0, 1));
        assert!(!bt.is_free(0, 3));
        assert!(bt.is_free(0, 4));
        assert!(bt.is_free(1, 1), "other banks unaffected");
        assert_eq!(bt.free_at(0, 1), 4);
        assert_eq!(bt.free_at(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "reused at slot")]
    fn premature_reuse_panics() {
        let cfg = DdrConfig::paper(1);
        let mut bt = BankTracker::new(&cfg);
        let a = Access {
            bank: 0,
            kind: AccessKind::Write,
        };
        bt.issue(a, 0);
        bt.issue(a, 2);
    }

    #[test]
    fn turnaround_only_in_adjacent_slot() {
        let cfg = DdrConfig::paper(8);
        let mut bt = BankTracker::new(&cfg);
        bt.issue(
            Access {
                bank: 0,
                kind: AccessKind::Read,
            },
            10,
        );
        assert!(bt.turnaround_penalty(AccessKind::Write, 11));
        assert!(!bt.turnaround_penalty(AccessKind::Write, 12), "gap heals");
        assert!(!bt.turnaround_penalty(AccessKind::Read, 11), "reads exempt");
        bt.issue(
            Access {
                bank: 1,
                kind: AccessKind::Write,
            },
            11,
        );
        assert!(
            !bt.turnaround_penalty(AccessKind::Write, 12),
            "write-after-write exempt"
        );
    }

    #[test]
    fn issue_counter() {
        let cfg = DdrConfig::paper(4);
        let mut bt = BankTracker::new(&cfg);
        for i in 0..4 {
            bt.issue(
                Access {
                    bank: i,
                    kind: AccessKind::Read,
                },
                i as u64,
            );
        }
        assert_eq!(bt.issues(), 4);
    }
}
