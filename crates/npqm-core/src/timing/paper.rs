//! The paper-grounded memory model: ZBT SRAM pointers + DDR data banks.
//!
//! "The MMS uses a DDR-DRAM for data storage and a ZBT SRAM for segment
//! and packet pointers" (§6), and "all manipulations on data structures
//! (pointers) occur in parallel with data transfers" — so a span's cost
//! is the **maximum** of its two legs:
//!
//! * **pointers** — every [`crate::ptrmem::PtrMem`] access is one
//!   record-sized ZBT SRAM access; a span of `n` accesses issues as a
//!   fully pipelined burst (`npqm_mem::zbt::ZbtSram::issue_burst`) and
//!   occupies `n - 1 + latency + 1` SRAM cycles;
//! * **data** — every segment read/write is one 64-byte DDR burst,
//!   addressed to a bank through `npqm_mem::addrmap::AddressMap` (the
//!   free-list allocation order *is* the bank access pattern) and drained
//!   through a persistent `npqm_mem::replay::DdrChannel` under §3's
//!   naive or reordering scheduler.
//!
//! Both legs keep absolute clocks across spans, so back-to-back commands
//! pipeline exactly like the saturated hardware: the bank precharge a
//! command leaves behind stalls the next command's first access.

use super::stream::OpStream;
use super::CommandCost;
use npqm_mem::addrmap::AddressMap;
use npqm_mem::ddr::{Access, AccessKind, DdrConfig};
use npqm_mem::replay::{DdrChannel, DrainPolicy};
use npqm_mem::zbt::ZbtSram;
use npqm_sim::time::{Cycle, Freq, Picos};

/// Configuration of the [`PaperTiming`] model.
///
/// # Example
///
/// ```
/// use npqm_core::timing::TimingConfig;
/// let cfg = TimingConfig::paper(8);
/// assert_eq!(cfg.ddr.banks, 8);
/// assert!(cfg.reordering);
/// assert!(!TimingConfig::naive(8).reordering);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// DDR device timing (banks, access cycle, reuse gap, turnaround).
    pub ddr: DdrConfig,
    /// ZBT SRAM clock in whole MHz (200 MHz — 5 ns per pointer access —
    /// the fastest clock domain the paper's platforms use).
    pub zbt_mhz: u32,
    /// ZBT pipeline latency in SRAM cycles (issue → data valid).
    pub zbt_latency: u64,
    /// Drain data accesses with §3's reordering scheduler (`true`) or
    /// the naive round-robin (`false`).
    pub reordering: bool,
    /// Segment size in bytes (the DDR block size; 64 in the paper).
    pub segment_bytes: u32,
    /// Address-interleave granularity in bytes (64 stripes consecutive
    /// segments across consecutive banks, the paper's geometry).
    pub interleave_bytes: u32,
}

impl TimingConfig {
    /// The paper's organisation: `banks` DDR banks with the §3 timing
    /// constants, reordering scheduler, 64-byte segments striped
    /// one-per-bank, pointers in a 200 MHz / 2-cycle-latency ZBT SRAM.
    pub fn paper(banks: u32) -> Self {
        TimingConfig {
            ddr: DdrConfig::paper(banks),
            zbt_mhz: 200,
            zbt_latency: 2,
            reordering: true,
            segment_bytes: 64,
            interleave_bytes: 64,
        }
    }

    /// Same device, but the naive round-robin scheduler (the "no
    /// optimization" columns of Table 1).
    pub fn naive(banks: u32) -> Self {
        TimingConfig {
            reordering: false,
            ..Self::paper(banks)
        }
    }

    /// The drain policy implied by [`TimingConfig::reordering`].
    pub fn drain_policy(&self) -> DrainPolicy {
        if self.reordering {
            DrainPolicy::Reordering
        } else {
            DrainPolicy::Naive
        }
    }
}

/// Cycle-accurate memory model replaying recorded streams through the
/// `npqm-mem` ZBT and DDR models.
///
/// # Example
///
/// ```
/// use npqm_core::timing::{PaperTiming, TimingConfig};
/// use npqm_core::{Command, FlowId, QmConfig, QueueManager};
/// use npqm_core::manager::SegmentPosition;
///
/// let mut qm = QueueManager::new(QmConfig::small());
/// let mut model = PaperTiming::new(TimingConfig::paper(8));
/// let (r, cost) = qm.execute_costed(
///     Command::Enqueue {
///         flow: FlowId::new(1),
///         data: vec![7u8; 64],
///         pos: SegmentPosition::Only,
///     },
///     &mut model,
/// );
/// r.unwrap();
/// assert!(cost.ptr_accesses > 0, "enqueue touches the queue table");
/// assert_eq!(cost.data_writes, 1, "one 64-byte payload burst");
/// assert!(cost.time() > npqm_sim::time::Picos::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct PaperTiming {
    cfg: TimingConfig,
    map: AddressMap,
    zbt: ZbtSram,
    /// Next free ZBT issue cycle (kept outside [`ZbtSram`], which hides
    /// its cursor; invariant: always ≥ the SRAM's internal `next_issue`).
    zbt_next: Cycle,
    zbt_issued: u64,
    ddr: DdrChannel,
    scratch: Vec<Access>,
}

impl PaperTiming {
    /// Creates the model with fresh (idle) memory clocks.
    pub fn new(cfg: TimingConfig) -> Self {
        PaperTiming {
            map: AddressMap::new(cfg.segment_bytes, cfg.interleave_bytes, cfg.ddr.banks),
            zbt: ZbtSram::new(cfg.zbt_latency),
            zbt_next: Cycle::ZERO,
            zbt_issued: 0,
            ddr: DdrChannel::new(cfg.ddr, cfg.drain_policy()),
            cfg,
            scratch: Vec::new(),
        }
    }

    /// The model's configuration.
    pub const fn config(&self) -> &TimingConfig {
        &self.cfg
    }

    /// The underlying DDR channel (lifetime slot accounting).
    pub const fn ddr(&self) -> &DdrChannel {
        &self.ddr
    }

    /// Total pointer accesses charged so far.
    pub const fn ptr_accesses(&self) -> u64 {
        self.zbt_issued
    }

    fn zbt_freq(&self) -> Freq {
        Freq::from_mhz(self.cfg.zbt_mhz)
    }

    /// Absolute time of the ZBT leg: the last issued access completes
    /// `latency` cycles after its issue slot.
    fn zbt_elapsed(&self) -> Picos {
        if self.zbt_issued == 0 {
            return self.zbt_freq().picos_of(self.zbt_next);
        }
        self.zbt_freq()
            .picos_of(self.zbt_next + self.cfg.zbt_latency)
    }

    /// A short stable name for reports.
    pub fn name(&self) -> &'static str {
        if self.cfg.reordering {
            "paper-timing/reordering"
        } else {
            "paper-timing/naive"
        }
    }

    /// Charges one span's traffic and returns its cost. The model is a
    /// *channel*: it keeps absolute memory clocks across charges, so
    /// consecutive spans pipeline and bank state persists between them,
    /// and charging the same sequence of streams always yields the same
    /// costs.
    pub fn charge(&mut self, stream: &OpStream) -> CommandCost {
        let mut cost = CommandCost {
            ptr_accesses: stream.ptr_accesses(),
            data_reads: stream.data_reads(),
            data_writes: stream.data_writes(),
            ..CommandCost::default()
        };
        if cost.ptr_accesses > 0 {
            let start = self.zbt_next;
            let done = self.zbt.issue_burst(start, cost.ptr_accesses);
            self.zbt_next = start + cost.ptr_accesses;
            self.zbt_issued += cost.ptr_accesses;
            // Busy span of the burst: issue slots plus the tail latency.
            let busy = (done + 1).saturating_sub(start);
            cost.ptr_time = self.zbt_freq().picos_of(busy);
        }
        if !stream.data.is_empty() {
            self.scratch.clear();
            self.scratch.extend(stream.data.iter().map(|d| Access {
                bank: self.map.bank_of_segment(d.segment),
                kind: if d.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            }));
            let sc = self.ddr.drain(&self.scratch);
            cost.conflict_slots = sc.conflict_slots;
            cost.turnaround_slots = sc.turnaround_slots;
            cost.data_time = sc.duration(&self.cfg.ddr);
        }
        cost
    }

    /// Absolute channel time: when the last charged access completes.
    pub fn elapsed(&self) -> Picos {
        self.zbt_elapsed().max(self.ddr.elapsed())
    }

    /// Returns the channel to idle (clock zero, cold banks).
    pub fn reset(&mut self) {
        *self = PaperTiming::new(self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptrmem::PtrMemCounters;
    use crate::timing::stream::DataAccess;

    fn ptr_only(n: u64) -> OpStream {
        OpStream {
            ptr: PtrMemCounters {
                qt_reads: n,
                ..PtrMemCounters::default()
            },
            data: Vec::new(),
        }
    }

    fn write_burst(segments: &[u32]) -> OpStream {
        OpStream {
            ptr: PtrMemCounters::default(),
            data: segments
                .iter()
                .map(|&segment| DataAccess {
                    segment,
                    write: true,
                })
                .collect(),
        }
    }

    #[test]
    fn pointer_burst_is_pipelined() {
        let mut m = PaperTiming::new(TimingConfig::paper(8));
        let c = m.charge(&ptr_only(10));
        // 10 accesses at 5 ns/cycle: 9 issue cycles + 2 latency + 1.
        assert_eq!(c.ptr_time, Picos::from_nanos(5 * 12));
        assert_eq!(c.data_time, Picos::ZERO);
        assert_eq!(c.time(), c.ptr_time);
        assert_eq!(m.ptr_accesses(), 10);
        // The next burst starts where the first left off.
        let c2 = m.charge(&ptr_only(1));
        assert_eq!(c2.ptr_time, Picos::from_nanos(5 * 3));
        assert_eq!(m.elapsed(), Picos::from_nanos(5 * 13));
    }

    #[test]
    fn striped_data_burst_is_conflict_free() {
        let mut m = PaperTiming::new(TimingConfig::paper(8));
        let c = m.charge(&write_burst(&[0, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(c.data_writes, 8);
        assert_eq!(c.conflict_slots, 0);
        assert_eq!(c.data_time, Picos::from_nanos(8 * 40));
        assert_eq!(c.time(), c.data_time, "DDR leg dominates");
    }

    #[test]
    fn hot_bank_burst_pays_the_reuse_gap() {
        let mut m = PaperTiming::new(TimingConfig::paper(8));
        // Segments 0 and 8 share bank 0 under 8-way striping.
        let c = m.charge(&write_burst(&[0, 8]));
        assert!(c.conflict_slots > 0, "same-bank reuse must stall");
        assert_eq!(c.data_time, Picos::from_nanos((1 + 4) * 40));
    }

    #[test]
    fn single_bank_serializes_everything() {
        let mut m = PaperTiming::new(TimingConfig::paper(1));
        let c = m.charge(&write_burst(&[0, 1, 2]));
        // Every access maps to bank 0: issues at slots 0, 4, 8.
        assert_eq!(c.data_time, Picos::from_nanos(9 * 40));
    }

    #[test]
    fn legs_run_in_parallel() {
        let mut m = PaperTiming::new(TimingConfig::paper(8));
        let mut s = ptr_only(4);
        s.data = write_burst(&[0]).data;
        let c = m.charge(&s);
        assert_eq!(c.ptr_time, Picos::from_nanos(5 * 6));
        assert_eq!(c.data_time, Picos::from_nanos(40));
        assert_eq!(c.time(), Picos::from_nanos(40), "max, not sum");
    }

    #[test]
    fn reset_returns_to_idle() {
        let mut m = PaperTiming::new(TimingConfig::naive(4));
        m.charge(&write_burst(&[0, 0, 0]));
        assert!(m.elapsed() > Picos::ZERO);
        m.reset();
        assert_eq!(m.elapsed(), Picos::ZERO);
        assert_eq!(m.ptr_accesses(), 0);
        assert_eq!(m.name(), "paper-timing/naive");
    }
}
