//! The assembled MMS: scheduler + DQM + DMC + functional queue engine.
//!
//! The model is cycle-stepped in the 125 MHz MMS clock domain. Commands
//! enter through [`Mms::submit`] (the request side of the paper's
//! request/acknowledge ports), wait in the per-port FIFOs, execute on the
//! DQM according to their [`crate::microcode`] schedule, and — for
//! data-carrying commands — kick a segment transfer on the [`crate::dmc`].
//! Each completed command is also applied to an embedded
//! [`npqm_core::QueueManager`], so the timing model and the functional
//! engine can never drift apart.

use crate::command::MmsCommand;
use crate::dmc::{Dmc, DmcConfig};
use crate::microcode::{dmc_kick_offset, execution_cycles};
use crate::scheduler::{InternalScheduler, Port};
use npqm_core::manager::DequeuedSegment;
use npqm_core::{FlowId, QmConfig, QueueManager, SegmentPosition};
use npqm_sim::stats::{Counter, MeanVar};
use npqm_sim::time::{Cycle, Freq};
use std::collections::VecDeque;

/// Configuration of the MMS model.
#[derive(Debug, Clone, Copy)]
pub struct MmsConfig {
    /// Core clock (the paper's conservative 125 MHz).
    pub freq: Freq,
    /// Per-port command FIFO depth.
    pub fifo_capacity: usize,
    /// Number of flow queues in the functional engine.
    pub flows: u32,
    /// Number of data-memory segments in the functional engine.
    pub segments: u32,
    /// DMC timing.
    pub dmc: DmcConfig,
    /// RNG seed for bank placement.
    pub seed: u64,
}

impl MmsConfig {
    /// The paper's system, scaled to a test-friendly functional memory
    /// (1 K flows instead of 32 K; the timing model is size-independent).
    pub fn paper() -> Self {
        MmsConfig {
            freq: Freq::from_mhz(125),
            fifo_capacity: 64,
            flows: 1024,
            segments: 64 * 1024,
            dmc: DmcConfig::paper(),
            seed: 1,
        }
    }
}

impl Default for MmsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A command waiting in a port FIFO.
#[derive(Debug, Clone)]
struct Pending {
    cmd: MmsCommand,
    flow: FlowId,
    /// Destination flow for move-class commands.
    dst: FlowId,
    /// Originating port (for the acknowledge wire).
    port: Port,
    /// Real payload for enqueue commands from the segmentation block
    /// (None = the synthetic load-generator payload).
    data: Option<Vec<u8>>,
    /// SOP/EOP delimiting for segmentation traffic.
    pos: SegmentPosition,
}

/// Aggregated measurements, one [`MeanVar`] per Table 5 column.
#[derive(Debug, Clone, Default)]
pub struct MmsStats {
    /// FIFO delay: arrival → DQM pop (Table 5 column 2).
    pub fifo_delay: MeanVar,
    /// Execution delay: the DQM schedule length (column 3).
    pub execution_delay: MeanVar,
    /// Commands completed.
    pub served: Counter,
    /// Commands rejected by a full port FIFO (backpressure events).
    pub backpressured: Counter,
    /// Commands whose functional execution failed (e.g. dequeue on an
    /// empty queue — a workload-generator bug if non-zero).
    pub functional_misses: Counter,
}

/// The MMS system model.
///
/// See the [crate-level documentation](crate) for the block diagram.
#[derive(Debug, Clone)]
pub struct Mms {
    cfg: MmsConfig,
    sched: InternalScheduler<Pending>,
    dmc: Dmc,
    engine: QueueManager,
    dqm_busy_until: Cycle,
    dqm_current: Option<Pending>,
    outstanding: [u32; 4],
    stats: MmsStats,
    payload: Vec<u8>,
    egress: VecDeque<(FlowId, DequeuedSegment)>,
}

impl Mms {
    /// Builds the system.
    pub fn new(cfg: MmsConfig) -> Self {
        let qm_cfg = QmConfig::builder()
            .num_flows(cfg.flows)
            .num_segments(cfg.segments)
            .segment_bytes(64)
            .build()
            .expect("valid MMS functional configuration");
        Mms {
            sched: InternalScheduler::new(cfg.fifo_capacity),
            dmc: Dmc::new(cfg.dmc, cfg.seed),
            engine: QueueManager::new(qm_cfg),
            dqm_busy_until: Cycle::ZERO,
            dqm_current: None,
            outstanding: [0; 4],
            stats: MmsStats::default(),
            payload: vec![0xA5; 64],
            egress: VecDeque::new(),
            cfg,
        }
    }

    /// The configuration.
    pub const fn config(&self) -> &MmsConfig {
        &self.cfg
    }

    /// Measurements so far.
    pub const fn stats(&self) -> &MmsStats {
        &self.stats
    }

    /// Data-latency statistics from the DMC (Table 5 column 4).
    pub fn data_delay_stats(&self) -> &MeanVar {
        self.dmc.delay_stats()
    }

    /// The embedded functional engine (read-only).
    pub const fn engine(&self) -> &QueueManager {
        &self.engine
    }

    /// Commands currently submitted-but-not-completed on `port` — the
    /// window a closed-loop requester tracks via the acknowledge wire.
    pub const fn outstanding(&self, port: Port) -> u32 {
        self.outstanding[port.index()]
    }

    /// Whether `port`'s FIFO is full (the BACKPRESSURE signal).
    pub fn backpressured(&self, port: Port) -> bool {
        self.sched.backpressured(port)
    }

    /// Free command slots in `port`'s FIFO (used by the segmentation
    /// block's all-or-nothing packet admission).
    pub fn fifo_headroom(&self, port: Port) -> usize {
        self.sched.headroom(port)
    }

    /// Submits a command on `port` at cycle `now`.
    ///
    /// Returns `false` (and counts a backpressure event) if the port FIFO
    /// is full; the command is then NOT accepted.
    pub fn submit(&mut self, now: Cycle, port: Port, cmd: MmsCommand, flow: FlowId) -> bool {
        self.submit_move(now, port, cmd, flow, flow)
    }

    /// Submits a move-class command with distinct source and destination.
    ///
    /// Returns `false` on backpressure.
    pub fn submit_move(
        &mut self,
        now: Cycle,
        port: Port,
        cmd: MmsCommand,
        flow: FlowId,
        dst: FlowId,
    ) -> bool {
        let pending = Pending {
            cmd,
            flow,
            dst,
            port,
            data: None,
            pos: SegmentPosition::Only,
        };
        match self.sched.push(port, now, pending) {
            Ok(()) => {
                self.outstanding[port.index()] += 1;
                true
            }
            Err(_) => {
                self.stats.backpressured.incr();
                false
            }
        }
    }

    /// Pre-loads `flow` with `packets` single-segment packets so dequeue
    /// workloads have something to drain (warm-up).
    pub fn preload(&mut self, flow: FlowId, packets: u32) {
        for _ in 0..packets {
            self.engine
                .enqueue(flow, &self.payload.clone(), SegmentPosition::Only)
                .expect("preload within memory budget");
        }
    }

    /// Submits one SAR segment (real payload + SOP/EOP flags) as an
    /// enqueue command — the path the segmentation block uses.
    ///
    /// Returns `false` on backpressure.
    pub fn submit_segment(
        &mut self,
        now: Cycle,
        port: Port,
        flow: FlowId,
        data: Vec<u8>,
        pos: SegmentPosition,
    ) -> bool {
        let pending = Pending {
            cmd: MmsCommand::Enqueue,
            flow,
            dst: flow,
            port,
            data: Some(data),
            pos,
        };
        match self.sched.push(port, now, pending) {
            Ok(()) => {
                self.outstanding[port.index()] += 1;
                true
            }
            Err(_) => {
                self.stats.backpressured.incr();
                false
            }
        }
    }

    /// Pops the next dequeued segment from the egress side (consumed by
    /// the reassembly block).
    pub fn pop_egress(&mut self) -> Option<(FlowId, DequeuedSegment)> {
        self.egress.pop_front()
    }

    /// Advances the model by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        self.dmc.tick(now);
        // Complete the running command.
        if let Some(p) = self.dqm_current.take() {
            if now >= self.dqm_busy_until {
                self.complete(p);
            } else {
                self.dqm_current = Some(p);
            }
        }
        // Start the next one.
        if self.dqm_current.is_none() {
            if let Some((p, _port, waited)) = self.sched.pop(now) {
                self.stats.fifo_delay.push(waited.as_f64());
                let exec = execution_cycles(p.cmd);
                self.stats.execution_delay.push(exec as f64);
                self.dqm_busy_until = now + exec;
                if let Some(offset) = dmc_kick_offset(p.cmd) {
                    self.dmc.push(now + offset, p.cmd.data_is_write());
                }
                self.dqm_current = Some(p);
            }
        }
    }

    /// Applies the functional effect of a completed command.
    fn complete(&mut self, p: Pending) {
        let payload = p.data.clone().unwrap_or_else(|| self.payload.clone());
        let pos = if p.data.is_some() {
            p.pos
        } else {
            SegmentPosition::Only
        };
        let ok = match p.cmd {
            MmsCommand::Enqueue => self.engine.enqueue(p.flow, &payload, pos).is_ok(),
            MmsCommand::Dequeue => match self.engine.dequeue(p.flow) {
                Ok(seg) => {
                    self.egress.push_back((p.flow, seg));
                    true
                }
                Err(_) => false,
            },
            MmsCommand::Read => self.engine.read_head(p.flow).is_ok(),
            MmsCommand::Overwrite => self.engine.overwrite_head(p.flow, &payload).is_ok(),
            MmsCommand::Move => self.engine.move_packet(p.flow, p.dst).is_ok(),
            MmsCommand::Delete => self.engine.delete_segment(p.flow).is_ok(),
            MmsCommand::OverwriteSegmentLength => {
                self.engine.overwrite_head_len(p.flow, 60).is_ok()
            }
            MmsCommand::OverwriteSegmentLengthAndMove => self
                .engine
                .overwrite_len_and_move(p.flow, p.dst, 60)
                .is_ok(),
            MmsCommand::OverwriteSegmentAndMove => self
                .engine
                .overwrite_and_move(p.flow, p.dst, &payload)
                .is_ok(),
        };
        if !ok {
            self.stats.functional_misses.incr();
        }
        self.stats.served.incr();
        // The acknowledge wire: the requester's window opens again.
        self.outstanding[p.port.index()] -= 1;
    }

    /// Runs the model for `cycles` cycles starting at `from`, with no new
    /// arrivals (drains queued work). Returns the cycle after the last tick.
    pub fn run(&mut self, from: Cycle, cycles: u64) -> Cycle {
        let mut now = from;
        for _ in 0..cycles {
            self.tick(now);
            now += 1;
        }
        now
    }

    /// Whether all FIFOs, the DQM and the DMC are idle.
    pub fn is_idle(&self) -> bool {
        self.sched.is_empty() && self.dqm_current.is_none() && self.dmc.pending() == 0
    }

    /// Discards measurements accumulated so far (functional and timing
    /// state are untouched) — call after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.stats = MmsStats::default();
        self.dmc.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(i: u32) -> FlowId {
        FlowId::new(i)
    }

    #[test]
    fn single_enqueue_completes_and_is_functional() {
        let mut mms = Mms::new(MmsConfig::paper());
        assert!(mms.submit(Cycle::ZERO, Port::In, MmsCommand::Enqueue, flow(3)));
        mms.run(Cycle::ZERO, 100);
        assert!(mms.is_idle());
        assert_eq!(mms.stats().served.get(), 1);
        assert_eq!(mms.engine().queue_len_segments(flow(3)), 1);
        assert_eq!(mms.stats().functional_misses.get(), 0);
    }

    #[test]
    fn enqueue_then_dequeue_round_trip() {
        let mut mms = Mms::new(MmsConfig::paper());
        mms.submit(Cycle::ZERO, Port::In, MmsCommand::Enqueue, flow(1));
        mms.run(Cycle::ZERO, 50);
        mms.submit(Cycle::new(50), Port::Out, MmsCommand::Dequeue, flow(1));
        mms.run(Cycle::new(50), 100);
        assert!(mms.is_idle());
        assert_eq!(mms.stats().served.get(), 2);
        assert!(mms.engine().is_empty(flow(1)));
        // Execution delay mean: (10 + 11) / 2 = 10.5.
        assert!((mms.stats().execution_delay.mean() - 10.5).abs() < 1e-12);
    }

    #[test]
    fn preload_enables_immediate_dequeues() {
        let mut mms = Mms::new(MmsConfig::paper());
        mms.preload(flow(9), 5);
        assert_eq!(mms.engine().queue_len_segments(flow(9)), 5);
        for i in 0..5u64 {
            mms.submit(Cycle::new(i), Port::Out, MmsCommand::Dequeue, flow(9));
        }
        mms.run(Cycle::ZERO, 400);
        assert_eq!(mms.stats().functional_misses.get(), 0);
        assert!(mms.engine().is_empty(flow(9)));
    }

    #[test]
    fn functional_miss_is_counted() {
        let mut mms = Mms::new(MmsConfig::paper());
        mms.submit(Cycle::ZERO, Port::Out, MmsCommand::Dequeue, flow(0));
        mms.run(Cycle::ZERO, 50);
        assert_eq!(mms.stats().functional_misses.get(), 1);
    }

    #[test]
    fn backpressure_rejects_when_fifo_full() {
        let mut cfg = MmsConfig::paper();
        cfg.fifo_capacity = 2;
        let mut mms = Mms::new(cfg);
        // The DQM drains one command per ~10 cycles; submitting 4 commands
        // at cycle 0 overflows a 2-deep FIFO (one may start execution).
        let mut accepted = 0;
        for _ in 0..4 {
            if mms.submit(Cycle::ZERO, Port::Cpu0, MmsCommand::Enqueue, flow(0)) {
                accepted += 1;
            }
        }
        assert!(accepted < 4);
        assert!(mms.stats().backpressured.get() > 0);
        assert!(mms.backpressured(Port::Cpu0));
    }

    #[test]
    fn move_commands_carry_destination() {
        let mut mms = Mms::new(MmsConfig::paper());
        mms.preload(flow(1), 1);
        mms.submit_move(Cycle::ZERO, Port::Cpu0, MmsCommand::Move, flow(1), flow(2));
        mms.run(Cycle::ZERO, 100);
        assert_eq!(mms.stats().functional_misses.get(), 0);
        assert_eq!(mms.engine().queue_len_packets(flow(2)), 1);
        assert!(mms.engine().is_empty(flow(1)));
    }

    #[test]
    fn pointer_only_commands_skip_the_dmc() {
        let mut mms = Mms::new(MmsConfig::paper());
        mms.preload(flow(4), 2);
        mms.submit(Cycle::ZERO, Port::Cpu0, MmsCommand::Delete, flow(4));
        mms.submit(
            Cycle::ZERO,
            Port::Cpu0,
            MmsCommand::OverwriteSegmentLength,
            flow(4),
        );
        mms.run(Cycle::ZERO, 200);
        assert_eq!(mms.stats().served.get(), 2);
        assert_eq!(mms.data_delay_stats().count(), 0, "no data transfers");
    }

    #[test]
    fn sustained_mix_executes_at_10_5_cycles_per_command() {
        let mut mms = Mms::new(MmsConfig::paper());
        for f in 0..8 {
            mms.preload(flow(f), 50);
        }
        // Keep the FIFOs saturated with an enqueue/dequeue mix.
        let mut now = Cycle::ZERO;
        let mut submitted = 0u64;
        for step in 0..20_000u64 {
            now = Cycle::new(step);
            if step % 2 == 0 {
                if mms.submit(now, Port::In, MmsCommand::Enqueue, flow((step % 8) as u32)) {
                    submitted += 1;
                }
            } else if mms.submit(now, Port::Out, MmsCommand::Dequeue, flow((step % 8) as u32)) {
                submitted += 1;
            }
            mms.tick(now);
        }
        // Saturation throughput: ~1 command per 10.5 cycles.
        let served = mms.stats().served.get();
        let rate = served as f64 / now.as_f64();
        assert!(
            (rate - 1.0 / 10.5).abs() < 0.005,
            "rate {rate} served {served} submitted {submitted}"
        );
        assert!((mms.stats().execution_delay.mean() - 10.5).abs() < 0.1);
    }
}
