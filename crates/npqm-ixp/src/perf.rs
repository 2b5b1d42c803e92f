//! The Table 2 experiment: maximum serviced rate vs. number of queues.

use crate::chip::IxpChip;
use npqm_sim::rate::{Kpps, Mbps, Mpps};

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Number of queues managed.
    pub queues: u32,
    /// Aggregate rate with one microengine.
    pub one_engine: Kpps,
    /// Aggregate rate with all six microengines.
    pub six_engines: Mpps,
}

/// The paper's published Table 2.
pub const PAPER_TABLE2: [Table2Row; 3] = [
    Table2Row {
        queues: 16,
        one_engine: Kpps::new(956.0),
        six_engines: Mpps::new(5.6),
    },
    Table2Row {
        queues: 128,
        one_engine: Kpps::new(390.0),
        six_engines: Mpps::new(2.3),
    },
    Table2Row {
        queues: 1024,
        one_engine: Kpps::new(60.0),
        six_engines: Mpps::new(0.3),
    },
];

/// Queue counts swept by Table 2.
pub const TABLE2_QUEUES: [u32; 3] = [16, 128, 1024];

/// Regenerates Table 2 by simulation (`horizon` engine cycles per cell;
/// 4 M cycles = 20 ms of chip time keeps the 60 Kpps cell statistically
/// stable).
pub fn run_table2(horizon: u64) -> Vec<Table2Row> {
    TABLE2_QUEUES
        .iter()
        .map(|&queues| Table2Row {
            queues,
            one_engine: IxpChip::new(1, queues).run_kpps(horizon),
            six_engines: IxpChip::new(6, queues).run_kpps(horizon).to_mpps(),
        })
        .collect()
}

/// The §4 claim: with 1 K queues and worst-case 64-byte Ethernet packets,
/// "the whole of the IXP cannot support more than 150 Mbps of network
/// bandwidth". Returns the simulated bound.
pub fn claim_max_bandwidth_1k_queues(horizon: u64) -> Mbps {
    IxpChip::new(6, 1024).run_kpps(horizon).to_mbps(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 4_000_000;

    #[test]
    fn table2_matches_paper_within_10_percent() {
        for (sim, paper) in run_table2(HORIZON).iter().zip(PAPER_TABLE2.iter()) {
            assert_eq!(sim.queues, paper.queues);
            let one_ratio = sim.one_engine.get() / paper.one_engine.get();
            assert!(
                (0.9..1.1).contains(&one_ratio),
                "queues {}: 1 engine {} vs paper {}",
                sim.queues,
                sim.one_engine,
                paper.one_engine
            );
            let six_ratio = sim.six_engines.get() / paper.six_engines.get();
            assert!(
                (0.9..1.15).contains(&six_ratio),
                "queues {}: 6 engines {} vs paper {}",
                sim.queues,
                sim.six_engines,
                paper.six_engines
            );
        }
    }

    #[test]
    fn throughput_collapses_with_queue_count() {
        let rows = run_table2(HORIZON);
        // Structural claim: each regime costs at least 2x the previous.
        assert!(rows[0].one_engine.get() > 2.0 * rows[1].one_engine.get());
        assert!(rows[1].one_engine.get() > 2.0 * rows[2].one_engine.get());
    }

    #[test]
    fn bandwidth_claim_150mbps() {
        let mbps = claim_max_bandwidth_1k_queues(HORIZON).get();
        // 0.3 Mpps x 512 bit = ~154 Mbps; "cannot support more than 150".
        assert!(
            (140.0..175.0).contains(&mbps),
            "1K-queue bandwidth {mbps} Mbps"
        );
    }
}

#[cfg(test)]
mod debug_print {
    use super::*;
    #[test]
    #[ignore]
    fn print_table2() {
        for r in run_table2(8_000_000) {
            println!(
                "queues {:5}: 1 engine {:>9}   6 engines {:>9}",
                r.queues,
                r.one_engine.to_string(),
                r.six_engines.to_string()
            );
        }
        println!(
            "1K-queue bandwidth: {}",
            claim_max_bandwidth_1k_queues(8_000_000)
        );
    }
}
