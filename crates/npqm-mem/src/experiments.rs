//! Experiment driver regenerating Table 1 of the paper.
//!
//! "By simulating a behavioral model of a DDR-SDRAM memory, we have
//! estimated the impact of bank conflicts and read-write interleaving on
//! memory utilization" (§3). `run_table1` sweeps the bank counts of the
//! paper's table under both schedulers with and without the turnaround
//! penalty and returns the throughput-loss matrix.

use crate::ddr::DdrConfig;
use crate::pattern::RandomBanks;
use crate::sched::{run_schedule, NaiveRoundRobin, Reordering};

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Number of DDR banks.
    pub banks: u32,
    /// No optimization, bank conflicts only.
    pub naive_conflicts: f64,
    /// No optimization, conflicts + write-read interleaving.
    pub naive_both: f64,
    /// Optimized (reordering), bank conflicts only.
    pub opt_conflicts: f64,
    /// Optimized, conflicts + write-read interleaving.
    pub opt_both: f64,
}

/// The paper's published Table 1, for comparison in reports and tests.
pub const PAPER_TABLE1: [Table1Row; 5] = [
    Table1Row {
        banks: 1,
        naive_conflicts: 0.750,
        naive_both: 0.75,
        opt_conflicts: 0.750,
        opt_both: 0.750,
    },
    Table1Row {
        banks: 4,
        naive_conflicts: 0.522,
        naive_both: 0.5,
        opt_conflicts: 0.260,
        opt_both: 0.331,
    },
    Table1Row {
        banks: 8,
        naive_conflicts: 0.384,
        naive_both: 0.39,
        opt_conflicts: 0.046,
        opt_both: 0.199,
    },
    Table1Row {
        banks: 12,
        naive_conflicts: 0.305,
        naive_both: 0.347,
        opt_conflicts: 0.012,
        opt_both: 0.159,
    },
    Table1Row {
        banks: 16,
        naive_conflicts: 0.253,
        naive_both: 0.317,
        opt_conflicts: 0.003,
        opt_both: 0.139,
    },
];

/// Bank counts swept by Table 1.
pub const TABLE1_BANKS: [u32; 5] = [1, 4, 8, 12, 16];

/// Regenerates Table 1 by simulation.
///
/// `slots` is the number of 40 ns access cycles simulated per cell
/// (100 000 gives ±0.005 repeatability).
pub fn run_table1(seed: u64, slots: u64) -> Vec<Table1Row> {
    TABLE1_BANKS
        .iter()
        .map(|&banks| {
            let conflicts_cfg = DdrConfig::paper_conflicts_only(banks);
            let both_cfg = DdrConfig::paper(banks);
            Table1Row {
                banks,
                naive_conflicts: run_schedule(
                    &conflicts_cfg,
                    NaiveRoundRobin::new(),
                    RandomBanks::new(banks, seed),
                    slots,
                )
                .loss(),
                naive_both: run_schedule(
                    &both_cfg,
                    NaiveRoundRobin::new(),
                    RandomBanks::new(banks, seed ^ 0x9E37),
                    slots,
                )
                .loss(),
                opt_conflicts: run_schedule(
                    &conflicts_cfg,
                    Reordering::new(),
                    RandomBanks::new(banks, seed ^ 0x79B9),
                    slots,
                )
                .loss(),
                opt_both: run_schedule(
                    &both_cfg,
                    Reordering::new(),
                    RandomBanks::new(banks, seed ^ 0x7F4A),
                    slots,
                )
                .loss(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_shape() {
        let rows = run_table1(42, 100_000);
        assert_eq!(rows.len(), 5);
        for (sim, paper) in rows.iter().zip(PAPER_TABLE1.iter()) {
            assert_eq!(sim.banks, paper.banks);
            // Structural claims of §3:
            // (1) loss decreases with banks under every policy (checked
            //     against the previous row below);
            // (2) the optimized scheduler never loses to the naive one;
            assert!(
                sim.opt_conflicts <= sim.naive_conflicts + 0.01,
                "banks {}: opt {} naive {}",
                sim.banks,
                sim.opt_conflicts,
                sim.naive_conflicts
            );
            assert!(
                sim.opt_both <= sim.naive_both + 0.01,
                "banks {}: opt {} naive {}",
                sim.banks,
                sim.opt_both,
                sim.naive_both
            );
        }
        // (3) the paper's headline: at 8 banks the simple optimization
        //     halves the loss relative to no optimization.
        let eight = &rows[2];
        assert!(
            eight.opt_both <= eight.naive_both * 0.6,
            "8 banks: opt {} vs naive {}",
            eight.opt_both,
            eight.naive_both
        );
        // (4) single-bank row is 0.75 everywhere.
        let one = &rows[0];
        for loss in [
            one.naive_conflicts,
            one.naive_both,
            one.opt_conflicts,
            one.opt_both,
        ] {
            assert!((loss - 0.75).abs() < 0.002, "1 bank loss {loss}");
        }
    }

    #[test]
    fn table1_monotone_in_banks() {
        let rows = run_table1(7, 60_000);
        for w in rows.windows(2) {
            assert!(w[1].naive_conflicts <= w[0].naive_conflicts + 0.01);
            assert!(w[1].opt_conflicts <= w[0].opt_conflicts + 0.01);
            assert!(w[1].opt_both <= w[0].opt_both + 0.01);
        }
    }

    #[test]
    fn table1_close_to_paper_values() {
        // Quantitative check with tolerance: the model is the paper's own
        // behavioral model, so values should land near the published ones.
        let rows = run_table1(42, 200_000);
        for (sim, paper) in rows.iter().zip(PAPER_TABLE1.iter()) {
            assert!(
                (sim.naive_conflicts - paper.naive_conflicts).abs() < 0.08,
                "banks {} naive_conflicts sim {} paper {}",
                sim.banks,
                sim.naive_conflicts,
                paper.naive_conflicts
            );
            assert!(
                (sim.opt_both - paper.opt_both).abs() < 0.08,
                "banks {} opt_both sim {} paper {}",
                sim.banks,
                sim.opt_both,
                paper.opt_both
            );
        }
    }

    #[test]
    fn table1_rows_are_pinned() {
        // To the bit: the tolerances above would not notice a slot loop
        // that moved one turnaround slot. Constants recorded at e204bb5,
        // before `run_schedule` and `DdrChannel::drain` shared a loop.
        use crate::ddr::{Access, AccessKind};
        use crate::replay::{DdrChannel, DrainPolicy};
        use npqm_sim::rng::Xoshiro256pp;

        fn fnv(hash: u64, value: u64) -> u64 {
            value.to_le_bytes().iter().fold(hash, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        }
        const BASIS: u64 = 0xCBF2_9CE4_8422_2325;

        let table = run_table1(42, 20_000).iter().fold(BASIS, |h, r| {
            [r.naive_conflicts, r.naive_both, r.opt_conflicts, r.opt_both]
                .iter()
                .fold(h, |h, loss| fnv(h, loss.to_bits()))
        });
        assert_eq!(table, 0xB7EC_CD9D_410A_F926, "Table 1 moved: {table:#018X}");

        // One recorded stream per policy and bank count, drained in three
        // consecutive calls so bank and scheduler state cross drains.
        let mut drained = BASIS;
        for policy in [DrainPolicy::Naive, DrainPolicy::Reordering] {
            for banks in [1u32, 4, 8] {
                let mut rng = Xoshiro256pp::seed_from_u64(42 + u64::from(banks));
                let stream: Vec<Access> = (0..2_000)
                    .map(|_| Access {
                        bank: rng.next_below(u64::from(banks)) as u32,
                        kind: if rng.chance(0.5) {
                            AccessKind::Read
                        } else {
                            AccessKind::Write
                        },
                    })
                    .collect();
                let mut ch = DdrChannel::new(DdrConfig::paper(banks), policy);
                for part in [&stream[..700], &stream[700..1_300], &stream[1_300..]] {
                    let c = ch.drain(part);
                    for field in [
                        c.accesses,
                        c.useful_slots,
                        c.conflict_slots,
                        c.turnaround_slots,
                        c.start_slot,
                        c.end_slot,
                    ] {
                        drained = fnv(drained, field);
                    }
                }
            }
        }
        assert_eq!(
            drained, 0xB5B4_63E1_D557_626A,
            "a StreamCost moved: {drained:#018X}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_table1(1, 20_000);
        let b = run_table1(1, 20_000);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod debug_print {
    use super::*;
    #[test]
    #[ignore]
    fn print_table1() {
        for r in run_table1(42, 200_000) {
            println!(
                "banks {:2}: naive {:.3}/{:.3}  opt {:.3}/{:.3}",
                r.banks, r.naive_conflicts, r.naive_both, r.opt_conflicts, r.opt_both
            );
        }
    }
}
