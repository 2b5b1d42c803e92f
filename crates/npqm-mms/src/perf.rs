//! The Table 5 experiment: MMS delays as a function of offered load.
//!
//! "Table 5 shows the MMS average latency for different loads. The total
//! latency of a command consists of three parts: the FIFO delay, the
//! execution latency and the data latency." (§6.1)
//!
//! Workload model: four request ports submit an enqueue/dequeue mix of
//! 64-byte segment commands. Commands arrive in small bursts ("FIFOs …
//! smooth the bursts of commands that may arrive simultaneously"), and each
//! port is a request/acknowledge requester that keeps at most
//! [`LoadGenConfig::window`] commands outstanding — the closed loop that
//! bounds FIFO delay at full saturation.

use crate::command::MmsCommand;
use crate::mms::{Mms, MmsConfig};
use crate::scheduler::Port;
use npqm_core::FlowId;
use npqm_sim::rate::{Gbps, Mpps};
use npqm_sim::rng::Xoshiro256pp;
use npqm_sim::time::Cycle;

/// One row of Table 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table5Row {
    /// Offered load in Gbit/s of 64-byte segments.
    pub load_gbps: f64,
    /// Mean FIFO delay in cycles.
    pub fifo_delay: f64,
    /// Mean execution delay in cycles (10.5 for the enqueue/dequeue mix).
    pub execution_delay: f64,
    /// Mean data latency in cycles.
    pub data_delay: f64,
    /// Total delay per command (sum of the three, as the paper reports it).
    pub total: f64,
}

/// The paper's published Table 5 (loads in the paper's row order).
pub const PAPER_TABLE5: [Table5Row; 5] = [
    Table5Row {
        load_gbps: 6.14,
        fifo_delay: 68.0,
        execution_delay: 10.5,
        data_delay: 31.3,
        total: 109.8,
    },
    Table5Row {
        load_gbps: 4.8,
        fifo_delay: 57.0,
        execution_delay: 10.5,
        data_delay: 30.8,
        total: 98.3,
    },
    Table5Row {
        load_gbps: 4.0,
        fifo_delay: 20.0,
        execution_delay: 10.5,
        data_delay: 30.0,
        total: 60.5,
    },
    Table5Row {
        load_gbps: 3.2,
        fifo_delay: 20.0,
        execution_delay: 10.5,
        data_delay: 29.1,
        total: 59.6,
    },
    Table5Row {
        load_gbps: 1.6,
        fifo_delay: 20.0,
        execution_delay: 10.5,
        data_delay: 28.0,
        total: 58.5,
    },
];

/// Workload-generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenConfig {
    /// Mean burst length (geometric), calibrated once to the paper's
    /// low-load FIFO delay of ~20 cycles.
    pub burst_mean: f64,
    /// Maximum outstanding commands per port (request/acknowledge window).
    pub window: u32,
    /// Flows exercised by the workload.
    pub flows: u32,
    /// Segments pre-loaded per flow before measurement.
    pub preload: u32,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            burst_mean: 4.0,
            window: 4,
            flows: 64,
            preload: 24,
        }
    }
}

/// Per-port burst source with a request/acknowledge window.
#[derive(Debug, Clone)]
struct PortSource {
    port: Port,
    /// Commands left in the current burst.
    remaining: u32,
    /// Cycle at which the next burst starts.
    next_burst: u64,
    /// Whether this port issues enqueues (else dequeues).
    enqueues: bool,
}

/// Runs one load point and reports the measured row plus the achieved
/// throughput.
pub fn run_load(
    load: Gbps,
    gen_cfg: LoadGenConfig,
    seed: u64,
    warmup_cycles: u64,
    measure_cycles: u64,
) -> (Table5Row, Gbps) {
    let mut mms = Mms::new(MmsConfig {
        seed,
        ..MmsConfig::paper()
    });
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xC0FF_EE00);
    // Pre-load so dequeue ports always find data.
    let mut credits = vec![0i64; gen_cfg.flows as usize];
    for f in 0..gen_cfg.flows {
        mms.preload(FlowId::new(f), gen_cfg.preload);
        credits[f as usize] = gen_cfg.preload as i64;
    }

    // Per-port command rate in commands per cycle.
    let total_rate = load.get() / 64.0; // load/(512 bits) ops/ns * 8 ns/cycle
    let port_rate = total_rate / 4.0;
    let burst_interval = gen_cfg.burst_mean / port_rate;

    // Ports start phase-staggered (line cards clock segments in on a TDM
    // schedule), so bursts from different ports only begin to collide once
    // a burst's service time approaches the inter-burst spacing.
    let mut sources: Vec<PortSource> = Port::ALL
        .iter()
        .enumerate()
        .map(|(i, &port)| PortSource {
            port,
            remaining: 0,
            next_burst: (i as f64 * burst_interval / 4.0) as u64,
            enqueues: i % 2 == 0, // In, Cpu0 enqueue; Out, Cpu1 dequeue
        })
        .collect();

    let mut enq_flow = 0u32;
    let mut deq_flow = 0u32;
    let horizon = warmup_cycles + measure_cycles;
    let mut served_at_measure_start = 0u64;

    for t in 0..horizon {
        let now = Cycle::new(t);
        if t == warmup_cycles {
            mms.reset_stats();
            served_at_measure_start = 0; // stats were reset
        }
        let _ = served_at_measure_start;
        for s in &mut sources {
            if s.remaining == 0 {
                if t >= s.next_burst {
                    s.remaining = rng.next_geometric(1.0 - 1.0 / gen_cfg.burst_mean) as u32;
                    // Bursts are regularly spaced per port (a line card
                    // clocks segments in at wire rate); ±4% jitter models
                    // clock drift between the port domains.
                    let jitter = 0.96 + 0.08 * rng.next_f64();
                    s.next_burst = t + (burst_interval * jitter) as u64 + 1;
                } else {
                    continue;
                }
            }
            // Window and backpressure gate the actual submission.
            if mms.outstanding(s.port) >= gen_cfg.window || mms.backpressured(s.port) {
                continue;
            }
            let submitted = if s.enqueues {
                let f = enq_flow % gen_cfg.flows;
                enq_flow += 1;
                if mms.submit(now, s.port, MmsCommand::Enqueue, FlowId::new(f)) {
                    credits[f as usize] += 1;
                    true
                } else {
                    false
                }
            } else {
                // Pick the next flow holding data.
                let mut pick = None;
                for i in 0..gen_cfg.flows {
                    let f = (deq_flow + i) % gen_cfg.flows;
                    if credits[f as usize] > 0 {
                        pick = Some(f);
                        break;
                    }
                }
                match pick {
                    Some(f) => {
                        deq_flow = f + 1;
                        if mms.submit(now, s.port, MmsCommand::Dequeue, FlowId::new(f)) {
                            credits[f as usize] -= 1;
                            true
                        } else {
                            false
                        }
                    }
                    None => false,
                }
            };
            if submitted {
                s.remaining -= 1;
            }
        }
        mms.tick(now);
    }

    let stats = mms.stats();
    let fifo = stats.fifo_delay.mean();
    let exec = stats.execution_delay.mean();
    let data = mms.data_delay_stats().mean();
    let served = stats.served.get();
    let achieved_ops_per_cycle = served as f64 / measure_cycles as f64;
    // ops/cycle * 125e6 cycles/s * 512 bits = Gbps
    let achieved = Gbps::new(achieved_ops_per_cycle * 125e6 * 512.0 / 1e9);
    (
        Table5Row {
            load_gbps: load.get(),
            fifo_delay: fifo,
            execution_delay: exec,
            data_delay: data,
            total: fifo + exec + data,
        },
        achieved,
    )
}

/// Regenerates Table 5 (rows in the paper's order, highest load first).
pub fn run_table5(seed: u64) -> Vec<Table5Row> {
    PAPER_TABLE5
        .iter()
        .map(|row| {
            run_load(
                Gbps::new(row.load_gbps),
                LoadGenConfig::default(),
                seed,
                40_000,
                260_000,
            )
            .0
        })
        .collect()
}

/// Measures the saturation throughput: offered load far above capacity,
/// report what the MMS actually serves. The paper's headline: "one
/// operation per 84 ns or 12 Mops/sec … 6.145 Gbps".
pub fn saturation_throughput(seed: u64) -> (Mpps, Gbps) {
    let (_, achieved) = run_load(
        Gbps::new(9.0),
        LoadGenConfig {
            window: 8,
            ..LoadGenConfig::default()
        },
        seed,
        20_000,
        200_000,
    );
    (achieved.to_mpps(64), achieved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_delay_is_exactly_10_5_at_every_load() {
        for row in run_table5(3) {
            assert!(
                (row.execution_delay - 10.5).abs() < 0.05,
                "load {}: exec {}",
                row.load_gbps,
                row.execution_delay
            );
        }
    }

    #[test]
    fn fifo_delay_rises_toward_saturation() {
        let rows = run_table5(3); // highest load first
        let top = &rows[0]; // 6.14 Gbps
        let low = &rows[4]; // 1.6 Gbps
        assert!(
            top.fifo_delay > 2.0 * low.fifo_delay,
            "top {} low {}",
            top.fifo_delay,
            low.fifo_delay
        );
        // Low-load FIFO delay is the burst-smoothing floor (~20 cycles).
        assert!(
            (10.0..35.0).contains(&low.fifo_delay),
            "low-load fifo {}",
            low.fifo_delay
        );
        // Saturation FIFO delay lands near the paper's 68 cycles.
        assert!(
            (45.0..95.0).contains(&top.fifo_delay),
            "saturation fifo {}",
            top.fifo_delay
        );
    }

    #[test]
    fn data_delay_grows_mildly_with_load() {
        let rows = run_table5(5);
        let top = &rows[0];
        let low = &rows[4];
        assert!(
            top.data_delay > low.data_delay,
            "top {} low {}",
            top.data_delay,
            low.data_delay
        );
        // Paper: 28 cycles at 1.6 Gbps, 31.3 at 6.14 Gbps.
        assert!(
            (25.0..32.0).contains(&low.data_delay),
            "low {}",
            low.data_delay
        );
        assert!(
            (27.0..38.0).contains(&top.data_delay),
            "top {}",
            top.data_delay
        );
    }

    #[test]
    fn totals_are_sums() {
        for row in run_table5(7) {
            assert!(
                (row.total - (row.fifo_delay + row.execution_delay + row.data_delay)).abs() < 1e-9
            );
        }
    }

    #[test]
    fn saturation_hits_the_6_gbps_headline() {
        let (mpps, gbps) = saturation_throughput(11);
        // Paper: 12 Mops/s and 6.145 Gbps at 125 MHz. The model's ceiling
        // is 125 MHz / 10.5 cycles = 11.9 Mops = 6.095 Gbps.
        assert!(
            (11.0..12.2).contains(&mpps.get()),
            "saturation {} Mops",
            mpps.get()
        );
        assert!(
            (5.6..6.2).contains(&gbps.get()),
            "saturation {} Gbps",
            gbps.get()
        );
    }
}

#[cfg(test)]
mod debug_print {
    use super::*;
    #[test]
    #[ignore]
    fn print_table5() {
        for r in run_table5(42) {
            println!(
                "load {:5.2} Gbps: fifo {:6.1}  exec {:4.1}  data {:5.1}  total {:6.1}",
                r.load_gbps, r.fifo_delay, r.execution_delay, r.data_delay, r.total
            );
        }
        let (mpps, gbps) = saturation_throughput(42);
        println!("saturation: {mpps} = {gbps}");
    }
}
