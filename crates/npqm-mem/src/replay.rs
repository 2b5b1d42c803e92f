//! The DDR access cycle, and replaying *recorded* access streams through it.
//!
//! [`DdrChannel::step`] is §3's mechanism, written once: four port heads,
//! one 40 ns access slot, the bank-reuse gap, the one-slot write-after-read
//! turnaround and a naive or a reordering scheduler. It has two drivers.
//! [`crate::sched::run_schedule`] keeps all four heads full for a fixed
//! number of slots — the saturated steady state Table 1 is measured in. A
//! queue engine does not look like that: it emits a *finite* burst of
//! accesses per command (or per batch of commands) whose bank pattern is
//! dictated by the free-list allocation order. [`DdrChannel::drain`] steps
//! until such a stream has issued and then stops the clock, keeping the
//! bank state and the slot cursor **across** streams: the last write of
//! one command can still stall the first read of the next, exactly as in
//! the device.
//!
//! This is the integration surface `npqm_core::timing` builds on: the
//! engine records which segments each operation touched, the address map
//! ([`crate::addrmap::AddressMap`]) turns segment indices into banks, and
//! the channel turns the resulting [`Access`] stream into occupied access
//! slots.

use crate::ddr::{Access, AccessKind, BankTracker, DdrConfig};
use crate::sched::{NaiveRoundRobin, Reordering, Sched, NUM_PORTS};
use npqm_sim::time::Picos;
use std::collections::VecDeque;

/// Which §3 scheduler a [`DdrChannel`] drains its streams with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DrainPolicy {
    /// Strict round-robin serialization ([`NaiveRoundRobin`]).
    Naive,
    /// Per-port FIFOs with bank-history reordering ([`Reordering`]).
    Reordering,
}

/// Slot accounting of one [`DdrChannel::drain`] call.
///
/// Every simulated slot is exactly one of useful, conflict or turnaround,
/// so `useful_slots + conflict_slots + turnaround_slots ==
/// end_slot - start_slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamCost {
    /// Accesses drained (equals the input stream length).
    pub accesses: u64,
    /// Slots that carried a transfer.
    pub useful_slots: u64,
    /// Slots lost to bank conflicts (no eligible access).
    pub conflict_slots: u64,
    /// Slots lost to write-after-read bus turnaround.
    pub turnaround_slots: u64,
    /// Channel slot cursor when the drain started.
    pub start_slot: u64,
    /// Channel slot cursor when the drain finished.
    pub end_slot: u64,
}

impl StreamCost {
    /// Slots this drain occupied on the channel.
    pub const fn slots(&self) -> u64 {
        self.end_slot - self.start_slot
    }

    /// Wall time of the drain under `cfg`'s access cycle.
    pub fn duration(&self, cfg: &DdrConfig) -> Picos {
        cfg.access_cycle * self.slots()
    }
}

/// A persistent DDR channel: bank state, scheduler state, a slot cursor
/// and lifetime slot counters, advanced one access cycle at a time.
///
/// [`DdrChannel::drain`] runs until a given stream has fully drained and
/// then *stops the clock*, so successive streams are charged back to
/// back. Writes feed ports 0/1 and reads ports 2/3 (alternating),
/// matching the paper's 2-write/2-read port arrangement.
///
/// # Example
///
/// ```
/// use npqm_mem::ddr::{Access, AccessKind, DdrConfig};
/// use npqm_mem::replay::{DdrChannel, DrainPolicy};
///
/// let mut ch = DdrChannel::new(DdrConfig::paper_conflicts_only(1), DrainPolicy::Naive);
/// let hit = |_| Access { bank: 0, kind: AccessKind::Write };
/// let accesses: Vec<Access> = (0..3).map(hit).collect();
/// let cost = ch.drain(&accesses);
/// // One bank: each access after the first waits out the 160 ns reuse
/// // gap (4 slots), so 3 accesses occupy 1 + 4 + 4 slots.
/// assert_eq!(cost.slots(), 9);
/// assert_eq!(cost.useful_slots, 3);
/// ```
#[derive(Debug, Clone)]
pub struct DdrChannel {
    cfg: DdrConfig,
    banks: BankTracker,
    sched: Sched,
    /// A write selected in the slot right after a read, held over one slot.
    held: Option<(usize, Access)>,
    slot: u64,
    useful: u64,
    conflicts: u64,
    turnarounds: u64,
}

impl DdrChannel {
    /// Creates a channel over `cfg` with the given scheduling policy.
    pub fn new(cfg: DdrConfig, policy: DrainPolicy) -> Self {
        match policy {
            DrainPolicy::Naive => Self::with_sched(cfg, NaiveRoundRobin::new().into()),
            DrainPolicy::Reordering => Self::with_sched(cfg, Reordering::new().into()),
        }
    }

    pub(crate) fn with_sched(cfg: DdrConfig, sched: Sched) -> Self {
        DdrChannel {
            banks: BankTracker::new(&cfg),
            sched,
            held: None,
            cfg,
            slot: 0,
            useful: 0,
            conflicts: 0,
            turnarounds: 0,
        }
    }

    /// The channel's timing configuration.
    pub const fn config(&self) -> &DdrConfig {
        &self.cfg
    }

    /// The configured scheduling policy.
    pub fn policy(&self) -> DrainPolicy {
        match self.sched {
            Sched::Naive(_) => DrainPolicy::Naive,
            Sched::Reordering(_) => DrainPolicy::Reordering,
        }
    }

    /// The slot cursor: the first slot the next drain may issue in.
    pub const fn slot(&self) -> u64 {
        self.slot
    }

    /// Absolute channel time: slot cursor times the access cycle.
    pub fn elapsed(&self) -> Picos {
        self.cfg.access_cycle * self.slot
    }

    /// Total slots that carried a transfer, over the channel's lifetime.
    pub const fn useful_slots(&self) -> u64 {
        self.useful
    }

    /// Total slots lost to bank conflicts, over the channel's lifetime.
    pub const fn conflict_slots(&self) -> u64 {
        self.conflicts
    }

    /// Total slots lost to write-after-read turnaround.
    pub const fn turnaround_slots(&self) -> u64 {
        self.turnarounds
    }

    /// One access cycle over the four port `heads` (`None`: that port
    /// has nothing pending). Returns the port whose head issued — the
    /// caller replaces that head before the next cycle — or `None` when
    /// the slot was lost: to a bank conflict (no head eligible), or to
    /// the turnaround of a write selected right after a read, which is
    /// held over and issues in the next cycle whatever the heads say then
    /// (its bank cannot have become busy meanwhile).
    ///
    /// # Panics
    ///
    /// Panics if a head addresses a bank outside the configured count.
    pub fn step(&mut self, heads: &[Option<Access>; NUM_PORTS]) -> Option<usize> {
        let slot = self.slot;
        self.slot += 1;
        let (port, access) = match self.held.take() {
            Some(held) => held,
            None => {
                let Some(port) = self.sched.select(heads, &self.banks, slot) else {
                    self.conflicts += 1;
                    return None;
                };
                let access = heads[port].expect("the scheduler selects a present head");
                if self.cfg.model_turnaround && self.banks.turnaround_penalty(access.kind, slot) {
                    self.turnarounds += 1;
                    self.held = Some((port, access));
                    return None;
                }
                (port, access)
            }
        };
        self.banks.issue(access, slot);
        self.sched.issued(port, access, slot);
        self.useful += 1;
        Some(port)
    }

    /// Drains `accesses` through the channel, starting at the current
    /// slot cursor, and advances the cursor to the first free slot after
    /// the last issue. An empty stream costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if any access addresses a bank outside the configured bank
    /// count.
    pub fn drain(&mut self, accesses: &[Access]) -> StreamCost {
        for a in accesses {
            assert!(
                a.bank < self.cfg.banks,
                "access to bank {} but the channel has {}",
                a.bank,
                self.cfg.banks
            );
        }
        // Writes feed ports 0/1, reads ports 2/3, alternating — the
        // paper's two write + two read ports over one recorded stream.
        let mut ports: [VecDeque<Access>; NUM_PORTS] = Default::default();
        let (mut wr, mut rd) = (0usize, 0usize);
        for &a in accesses {
            let (base, turn) = match a.kind {
                AccessKind::Write => (0, &mut wr),
                AccessKind::Read => (2, &mut rd),
            };
            ports[base + *turn].push_back(a);
            *turn ^= 1;
        }
        let (start, useful, conflicts, turnarounds) =
            (self.slot, self.useful, self.conflicts, self.turnarounds);
        let mut remaining = accesses.len();
        while remaining > 0 {
            let heads = core::array::from_fn(|p| ports[p].front().copied());
            if let Some(port) = self.step(&heads) {
                ports[port].pop_front();
                remaining -= 1;
            }
        }
        StreamCost {
            accesses: accesses.len() as u64,
            useful_slots: self.useful - useful,
            conflict_slots: self.conflicts - conflicts,
            turnaround_slots: self.turnarounds - turnarounds,
            start_slot: start,
            end_slot: self.slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(bank: u32) -> Access {
        Access {
            bank,
            kind: AccessKind::Write,
        }
    }

    fn r(bank: u32) -> Access {
        Access {
            bank,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn empty_stream_is_free() {
        let mut ch = DdrChannel::new(DdrConfig::paper(4), DrainPolicy::Reordering);
        let cost = ch.drain(&[]);
        assert_eq!(cost.slots(), 0);
        assert_eq!(ch.slot(), 0);
        assert_eq!(ch.elapsed(), Picos::ZERO);
    }

    #[test]
    fn striped_stream_is_conflict_free() {
        let mut ch = DdrChannel::new(DdrConfig::paper_conflicts_only(8), DrainPolicy::Naive);
        let accesses: Vec<Access> = (0..32).map(|i| w(i % 8)).collect();
        let cost = ch.drain(&accesses);
        assert_eq!(cost.useful_slots, 32);
        assert_eq!(cost.conflict_slots, 0);
        assert_eq!(cost.slots(), 32);
    }

    #[test]
    fn single_bank_pays_the_reuse_gap() {
        let mut ch = DdrChannel::new(DdrConfig::paper_conflicts_only(1), DrainPolicy::Naive);
        let cost = ch.drain(&[w(0), w(0), w(0)]);
        assert_eq!(cost.useful_slots, 3);
        // First at slot 0, then every 4th slot: 0, 4, 8 -> cursor 9.
        assert_eq!(cost.slots(), 9);
        assert_eq!(cost.conflict_slots, 6);
    }

    #[test]
    fn accounting_is_exact() {
        let mut ch = DdrChannel::new(DdrConfig::paper(4), DrainPolicy::Reordering);
        let accesses: Vec<Access> = (0..64)
            .map(|i| if i % 3 == 0 { r(i % 4) } else { w((i * 7) % 4) })
            .collect();
        let cost = ch.drain(&accesses);
        assert_eq!(
            cost.useful_slots + cost.conflict_slots + cost.turnaround_slots,
            cost.slots()
        );
        assert_eq!(cost.useful_slots, 64);
        assert_eq!(ch.useful_slots(), 64);
        assert_eq!(cost.duration(ch.config()), ch.elapsed());
    }

    #[test]
    fn bank_state_persists_across_drains() {
        let mut ch = DdrChannel::new(DdrConfig::paper_conflicts_only(2), DrainPolicy::Naive);
        let first = ch.drain(&[w(0)]);
        assert_eq!(first.slots(), 1);
        // Bank 0 is still precharging: the follow-up drain must wait out
        // the rest of the 4-slot gap even though it is a new stream.
        let second = ch.drain(&[w(0)]);
        assert_eq!(second.start_slot, 1);
        assert_eq!(second.conflict_slots, 3);
        assert_eq!(second.end_slot, 5);
    }

    #[test]
    fn reordering_overtakes_a_blocked_head() {
        // Stream [bank0, bank0, bank1]: writes land on ports 0,1,0. Naive
        // stalls on the second bank-0 access; reordering issues the
        // bank-1 write from the other port meanwhile.
        let stream = [w(0), w(0), w(1)];
        let mut naive = DdrChannel::new(DdrConfig::paper_conflicts_only(2), DrainPolicy::Naive);
        let mut opt = DdrChannel::new(DdrConfig::paper_conflicts_only(2), DrainPolicy::Reordering);
        let n = naive.drain(&stream);
        let o = opt.drain(&stream);
        assert!(
            o.slots() < n.slots(),
            "reordering {} vs naive {}",
            o.slots(),
            n.slots()
        );
        assert_eq!(o.useful_slots, 3);
        assert_eq!(n.useful_slots, 3);
    }

    #[test]
    fn turnaround_charged_on_write_after_read() {
        let mut ch = DdrChannel::new(DdrConfig::paper(8), DrainPolicy::Naive);
        // Naive port order serves ports 0(w),1(w),2(r),3(r),0(w): the
        // write following the reads pays one turnaround slot.
        let cost = ch.drain(&[w(0), w(1), w(2), r(3), r(4)]);
        assert_eq!(cost.useful_slots, 5);
        assert!(cost.turnaround_slots >= 1, "cost {cost:?}");
    }

    #[test]
    fn step_holds_a_write_over_the_turnaround_slot() {
        let mut ch = DdrChannel::new(DdrConfig::paper(8), DrainPolicy::Naive);
        // Only port 2 (read) then only port 0 (write) have a head.
        assert_eq!(ch.step(&[None, None, Some(r(0)), None]), Some(2));
        let write = [Some(w(1)), None, None, None];
        assert_eq!(ch.step(&write), None, "the slot after a read is lost");
        assert_eq!(ch.turnaround_slots(), 1);
        assert_eq!(ch.step(&write), Some(0), "the held write issues");
        assert_eq!(ch.step(&[None; NUM_PORTS]), None, "nothing pending");
        assert_eq!(
            (ch.slot(), ch.useful_slots(), ch.conflict_slots()),
            (4, 2, 1)
        );
    }

    #[test]
    fn policy_accessor_reports_construction() {
        let n = DdrChannel::new(DdrConfig::paper(4), DrainPolicy::Naive);
        let o = DdrChannel::new(DdrConfig::paper(4), DrainPolicy::Reordering);
        assert_eq!(n.policy(), DrainPolicy::Naive);
        assert_eq!(o.policy(), DrainPolicy::Reordering);
    }

    #[test]
    #[should_panic(expected = "bank 5")]
    fn out_of_range_bank_panics() {
        let mut ch = DdrChannel::new(DdrConfig::paper(4), DrainPolicy::Naive);
        ch.drain(&[w(5)]);
    }
}
