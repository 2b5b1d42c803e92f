//! The Data Memory Controller (DMC).
//!
//! "The DMC performs the low level read and write segment commands to the
//! data memory; it issues interleaved commands so as to minimize bank
//! conflicts" (§6). The model runs in the MMS clock domain (125 MHz,
//! 8 ns/cycle) against the paper's DDR timing: a new 64-byte access every
//! 40 ns (5 cycles), 160 ns same-bank reuse (20 cycles), 60 ns read /
//! 40 ns write access delay (8 / 5 cycles).

use npqm_sim::rng::Xoshiro256pp;
use npqm_sim::stats::MeanVar;
use npqm_sim::time::Cycle;
use std::collections::VecDeque;

/// DMC timing configuration (cycles of the 125 MHz MMS clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmcConfig {
    /// DDR banks backing the data memory.
    pub banks: u32,
    /// Minimum spacing between issued accesses (40 ns = 5 cycles).
    pub slot_cycles: u64,
    /// Same-bank reuse gap (160 ns = 20 cycles).
    pub reuse_cycles: u64,
    /// Read access delay (60 ns ≈ 8 cycles).
    pub read_cycles: u64,
    /// Write access delay (40 ns = 5 cycles).
    pub write_cycles: u64,
    /// Fixed controller pipeline overhead added to every transfer
    /// (address decode, command path, data alignment).
    pub overhead_cycles: u64,
    /// How many queued requests the interleaver may look ahead to find a
    /// non-conflicting bank (1 = strict in-order).
    pub lookahead: usize,
}

impl DmcConfig {
    /// The paper's configuration at 125 MHz with 8 banks.
    ///
    /// The 21-cycle pipeline overhead is calibrated once so that the
    /// unloaded data latency lands at Table 5's low-load value (28 cycles).
    pub fn paper() -> Self {
        DmcConfig {
            banks: 8,
            slot_cycles: 5,
            reuse_cycles: 20,
            read_cycles: 8,
            write_cycles: 5,
            overhead_cycles: 21,
            lookahead: 4,
        }
    }
}

impl Default for DmcConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One queued segment transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    /// Cycle at which the DQM kicked this transfer.
    kick: Cycle,
    /// Target bank (derived from the segment address).
    bank: u32,
    /// Write (enqueue/overwrite) or read (dequeue/read).
    is_write: bool,
}

/// The DMC model.
///
/// # Example
///
/// ```
/// use npqm_mms::dmc::{Dmc, DmcConfig};
/// use npqm_sim::time::Cycle;
///
/// let mut dmc = Dmc::new(DmcConfig::paper(), 1);
/// dmc.push(Cycle::new(4), false); // a read kicked at cycle 4
/// for c in 0..64 {
///     dmc.tick(Cycle::new(c));
/// }
/// assert_eq!(dmc.completed(), 1);
/// // Unloaded: overhead (21) + read access (8) = 29 cycles of data latency.
/// assert!((dmc.delay_stats().mean() - 29.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Dmc {
    cfg: DmcConfig,
    queue: VecDeque<Request>,
    bank_free: Vec<u64>,
    next_issue: u64,
    rng: Xoshiro256pp,
    delay: MeanVar,
    queue_depth: MeanVar,
    completed: u64,
    reads: u64,
    writes: u64,
    /// Completion events scheduled in the future: (cycle, kick) pairs.
    in_flight: VecDeque<(u64, Cycle)>,
}

impl Dmc {
    /// Creates a DMC with the given timing and RNG seed (bank placement).
    pub fn new(cfg: DmcConfig, seed: u64) -> Self {
        Dmc {
            queue: VecDeque::new(),
            bank_free: vec![0; cfg.banks as usize],
            next_issue: 0,
            rng: Xoshiro256pp::seed_from_u64(seed),
            delay: MeanVar::new(),
            queue_depth: MeanVar::new(),
            completed: 0,
            reads: 0,
            writes: 0,
            in_flight: VecDeque::new(),
            cfg,
        }
    }

    /// Queues a segment transfer kicked by the DQM at `kick`.
    ///
    /// The target bank is drawn uniformly — the random-bank placement of a
    /// large number of active queues (§3's "realistic common case").
    pub fn push(&mut self, kick: Cycle, is_write: bool) {
        let bank = self.rng.next_below(self.cfg.banks as u64) as u32;
        self.queue.push_back(Request {
            kick,
            bank,
            is_write,
        });
        self.queue_depth.push(self.queue.len() as f64);
    }

    /// Advances the controller by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        let t = now.as_u64();
        // Retire finished transfers.
        while let Some(&(done, kick)) = self.in_flight.front() {
            if done > t {
                break;
            }
            self.in_flight.pop_front();
            self.delay.push((done - kick.as_u64()) as f64);
            self.completed += 1;
        }
        // Issue at most one access per DDR slot, interleaving across banks.
        if t < self.next_issue || self.queue.is_empty() {
            return;
        }
        let window = self.cfg.lookahead.min(self.queue.len());
        let pick = (0..window).find(|&i| {
            let r = &self.queue[i];
            r.kick.as_u64() <= t && self.bank_free[r.bank as usize] <= t
        });
        if let Some(i) = pick {
            let r = self.queue.remove(i).expect("index in window");
            let access = if r.is_write {
                self.writes += 1;
                self.cfg.write_cycles
            } else {
                self.reads += 1;
                self.cfg.read_cycles
            };
            self.bank_free[r.bank as usize] = t + self.cfg.reuse_cycles;
            self.next_issue = t + self.cfg.slot_cycles;
            self.in_flight
                .push_back((t + access + self.cfg.overhead_cycles, r.kick));
            // Keep completions ordered (read/write delays differ).
            self.in_flight
                .make_contiguous()
                .sort_unstable_by_key(|&(done, _)| done);
        }
    }

    /// Data-latency statistics (kick → transfer complete), in cycles.
    pub const fn delay_stats(&self) -> &MeanVar {
        &self.delay
    }

    /// Queue-depth statistics, sampled at each push.
    pub const fn queue_depth_stats(&self) -> &MeanVar {
        &self.queue_depth
    }

    /// Transfers completed.
    pub const fn completed(&self) -> u64 {
        self.completed
    }

    /// Reads issued.
    pub const fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes issued.
    pub const fn writes(&self) -> u64 {
        self.writes
    }

    /// Transfers still queued or in flight.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.in_flight.len()
    }

    /// Clears the measurement state (not the timing state) — used to
    /// discard warm-up transients before a measurement window.
    pub fn reset_stats(&mut self) {
        self.delay = MeanVar::new();
        self.queue_depth = MeanVar::new();
        self.completed = 0;
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(dmc: &mut Dmc, until: u64) {
        for c in 0..until {
            dmc.tick(Cycle::new(c));
        }
    }

    #[test]
    fn unloaded_read_latency() {
        let mut dmc = Dmc::new(DmcConfig::paper(), 7);
        dmc.push(Cycle::new(0), false);
        drain(&mut dmc, 100);
        assert_eq!(dmc.completed(), 1);
        assert_eq!(dmc.reads(), 1);
        // overhead 21 + read 8 = 29
        assert!((dmc.delay_stats().mean() - 29.0).abs() < 1e-9);
    }

    #[test]
    fn unloaded_write_latency() {
        let mut dmc = Dmc::new(DmcConfig::paper(), 7);
        dmc.push(Cycle::new(3), true);
        drain(&mut dmc, 100);
        assert_eq!(dmc.writes(), 1);
        // overhead 21 + write 5 = 26
        assert!((dmc.delay_stats().mean() - 26.0).abs() < 1e-9);
    }

    #[test]
    fn issue_rate_is_one_per_slot() {
        let mut dmc = Dmc::new(DmcConfig::paper(), 1);
        // Plenty of requests to different banks (lookahead avoids conflicts).
        for _ in 0..8 {
            dmc.push(Cycle::new(0), true);
        }
        drain(&mut dmc, 200);
        assert_eq!(dmc.completed(), 8);
        // 8 transfers at one per 5 cycles: last issues at cycle >= 35.
        // Mean delay must exceed the unloaded 26 due to slot queueing.
        assert!(dmc.delay_stats().mean() > 26.0 + 5.0);
    }

    #[test]
    fn same_bank_requests_respect_reuse_gap() {
        let mut cfg = DmcConfig::paper();
        cfg.banks = 1; // force every request onto one bank
        cfg.lookahead = 4;
        let mut dmc = Dmc::new(cfg, 2);
        dmc.push(Cycle::new(0), true);
        dmc.push(Cycle::new(0), true);
        drain(&mut dmc, 200);
        assert_eq!(dmc.completed(), 2);
        // Second transfer waits the 20-cycle reuse gap: delay 20 + 26.
        assert!((dmc.delay_stats().max() - 46.0).abs() < 1e-9);
    }

    #[test]
    fn lookahead_reorders_around_busy_bank() {
        let mut cfg = DmcConfig::paper();
        cfg.banks = 2;
        let mut in_order = Dmc::new(cfg, 0);
        let mut reordered = Dmc::new(cfg, 0);
        in_order.cfg.lookahead = 1;
        // Seed 0 gives some same-bank adjacency over 32 requests; the
        // 4-deep lookahead must finish no later than strict order.
        for _ in 0..32 {
            in_order.push(Cycle::new(0), true);
            reordered.push(Cycle::new(0), true);
        }
        drain(&mut in_order, 2_000);
        drain(&mut reordered, 2_000);
        assert_eq!(in_order.completed(), 32);
        assert_eq!(reordered.completed(), 32);
        assert!(reordered.delay_stats().mean() <= in_order.delay_stats().mean() + 1e-9);
    }

    #[test]
    fn kick_in_future_is_not_issued_early() {
        let mut dmc = Dmc::new(DmcConfig::paper(), 3);
        dmc.push(Cycle::new(50), false);
        drain(&mut dmc, 50);
        assert_eq!(dmc.completed(), 0);
        drain(&mut dmc, 120);
        assert_eq!(dmc.completed(), 1);
        assert!((dmc.delay_stats().mean() - 29.0).abs() < 1e-9);
    }

    #[test]
    fn pending_accounting() {
        let mut dmc = Dmc::new(DmcConfig::paper(), 4);
        dmc.push(Cycle::new(0), true);
        dmc.push(Cycle::new(0), false);
        assert_eq!(dmc.pending(), 2);
        drain(&mut dmc, 200);
        assert_eq!(dmc.pending(), 0);
        assert_eq!(dmc.completed(), 2);
        assert!(dmc.queue_depth_stats().mean() > 0.0);
    }
}
