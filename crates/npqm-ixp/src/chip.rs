//! The chip model: N microengines sharing three memory units.
//!
//! Each engine runs the queue-management loop: per packet it executes the
//! regime's [`OpProfile`] — compute cycles interleaved with blocking
//! references spread round-robin over the packet's units. Engines advance
//! in global time order so contention at the shared units emerges naturally.

use crate::memunit::MemUnit;
use crate::profile::OpProfile;
use npqm_sim::rate::Kpps;
use npqm_sim::time::Freq;

/// IXP1200 core clock.
pub const ENGINE_FREQ: Freq = Freq::from_mhz(200);

/// Maximum number of microengines on the chip.
pub const MAX_ENGINES: u32 = 6;

/// Which unit a reference targets, in issue order within a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ref {
    Scratch,
    Sram,
    Sdram,
}

/// The chip: engines + shared scratch/SRAM/SDRAM units.
#[derive(Debug, Clone)]
pub struct IxpChip {
    engines: u32,
    profile: OpProfile,
    refs: Vec<Ref>,
    scratch: MemUnit,
    sram: MemUnit,
    sdram: MemUnit,
}

impl IxpChip {
    /// Creates a chip with `engines` engines running the queue-management
    /// program for `queues` queues.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is zero or exceeds [`MAX_ENGINES`].
    pub fn new(engines: u32, queues: u32) -> Self {
        assert!(
            (1..=MAX_ENGINES).contains(&engines),
            "IXP1200 has 1..=6 microengines"
        );
        let profile = OpProfile::for_queues(queues);
        // Interleave the reference kinds across the packet so traffic to
        // the units is spread (scratch first and last: RX/TX doorbells).
        let mut refs = Vec::new();
        for i in 0..profile.scratch_refs {
            if i < profile.scratch_refs / 2 {
                refs.insert(0, Ref::Scratch);
            } else {
                refs.push(Ref::Scratch);
            }
        }
        let mid = refs.len() / 2;
        let mut inner = Vec::new();
        let (mut s, mut d) = (profile.sram_refs, profile.sdram_refs);
        while s > 0 || d > 0 {
            if s > 0 {
                inner.push(Ref::Sram);
                s -= 1;
            }
            if d > 0 {
                inner.push(Ref::Sdram);
                d -= 1;
            }
            if d > 0 {
                inner.push(Ref::Sdram);
                d -= 1;
            }
        }
        refs.splice(mid..mid, inner);
        IxpChip {
            engines,
            profile,
            refs,
            scratch: MemUnit::scratch(),
            sram: MemUnit::sram(),
            sdram: MemUnit::sdram(),
        }
    }

    /// The active per-packet profile.
    pub const fn profile(&self) -> &OpProfile {
        &self.profile
    }

    /// Number of engines.
    pub const fn engines(&self) -> u32 {
        self.engines
    }

    /// Runs the chip for `horizon` cycles with every engine saturated;
    /// returns total packets completed.
    pub fn run_packets(&mut self, horizon: u64) -> u64 {
        #[derive(Clone)]
        struct EngineState {
            time: u64,
            /// Index into `refs` for the packet in progress.
            next_ref: usize,
            packets: u64,
        }
        let mut engines: Vec<EngineState> = (0..self.engines)
            .map(|i| EngineState {
                // Stagger starts so engines do not issue in lockstep.
                time: i as u64 * 7,
                next_ref: 0,
                packets: 0,
            })
            .collect();
        let n_refs = self.refs.len();
        let compute_chunk = self.profile.compute_cycles / (n_refs as u64 + 1);
        let compute_rem = self.profile.compute_cycles % (n_refs as u64 + 1);

        loop {
            // Advance the engine that is earliest in time.
            let (idx, _) = engines
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.time)
                .expect("at least one engine");
            if engines[idx].time >= horizon {
                break;
            }
            let e = &mut engines[idx];
            // One step: compute chunk, then the next reference (or packet
            // completion after the final chunk).
            e.time += compute_chunk;
            if e.next_ref < n_refs {
                let target = self.refs[e.next_ref];
                let unit = match target {
                    Ref::Scratch => &mut self.scratch,
                    Ref::Sram => &mut self.sram,
                    Ref::Sdram => &mut self.sdram,
                };
                e.time = unit.access(e.time);
                e.next_ref += 1;
            } else {
                e.time += compute_rem;
                e.packets += 1;
                e.next_ref = 0;
            }
        }
        engines.iter().map(|e| e.packets).sum()
    }

    /// Runs for `horizon` cycles and reports the aggregate packet rate.
    pub fn run_kpps(&mut self, horizon: u64) -> Kpps {
        let packets = self.run_packets(horizon);
        let seconds = horizon as f64 / ENGINE_FREQ.hz() as f64;
        Kpps::new(packets as f64 / seconds / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_engine_16_queues_is_956kpps_class() {
        let kpps = IxpChip::new(1, 16).run_kpps(2_000_000).get();
        // Paper: 956 Kpps. Calibrated budget: 208 cycles -> 961 Kpps.
        assert!((930.0..990.0).contains(&kpps), "{kpps}");
    }

    #[test]
    fn one_engine_128_queues_is_390kpps_class() {
        let kpps = IxpChip::new(1, 128).run_kpps(2_000_000).get();
        assert!((370.0..410.0).contains(&kpps), "{kpps}");
    }

    #[test]
    fn one_engine_1024_queues_is_60kpps_class() {
        let kpps = IxpChip::new(1, 1024).run_kpps(4_000_000).get();
        assert!((55.0..65.0).contains(&kpps), "{kpps}");
    }

    #[test]
    fn six_engines_scale_nearly_linearly_on_scratch() {
        let one = IxpChip::new(1, 16).run_kpps(1_000_000).get();
        let six = IxpChip::new(6, 16).run_kpps(1_000_000).get();
        let scaling = six / one;
        assert!((5.5..6.05).contains(&scaling), "scaling {scaling}");
    }

    #[test]
    fn six_engines_saturate_sdram_at_1k_queues() {
        let mut chip = IxpChip::new(6, 1024);
        let six = chip.run_kpps(4_000_000).get();
        let one = IxpChip::new(1, 1024).run_kpps(4_000_000).get();
        let scaling = six / one;
        // Paper: 0.3 Mpps / 60 Kpps = 5.0x — the SDRAM wall.
        assert!((4.5..5.6).contains(&scaling), "scaling {scaling}");
        assert!(
            chip.sdram.wait_cycles() > 0,
            "SDRAM contention must be visible"
        );
    }

    #[test]
    fn engine_count_validated() {
        let ok = IxpChip::new(6, 16);
        assert_eq!(ok.engines(), 6);
    }

    #[test]
    #[should_panic(expected = "1..=6 microengines")]
    fn zero_engines_panics() {
        let _ = IxpChip::new(0, 16);
    }

    #[test]
    #[should_panic(expected = "1..=6 microengines")]
    fn seven_engines_panics() {
        let _ = IxpChip::new(7, 16);
    }

    #[test]
    fn determinism() {
        let a = IxpChip::new(3, 128).run_packets(500_000);
        let b = IxpChip::new(3, 128).run_packets(500_000);
        assert_eq!(a, b);
    }
}
