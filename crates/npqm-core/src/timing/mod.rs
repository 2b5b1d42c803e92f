//! Cycle-accurate memory-timing subsystem.
//!
//! The paper's central claim is that a queue manager's throughput is
//! bounded by its pointer-memory (ZBT SRAM) and data-memory (DDR bank)
//! access patterns — not by abstract operation counts. This module makes
//! that claim executable for the *software* engine:
//!
//! 1. a traced [`crate::QueueManager`] logs every pointer-memory and
//!    data-memory access it performs (one [`stream::OpStream`] per cut);
//! 2. [`PaperTiming`] converts recorded streams into time by replaying
//!    them through the faithful `npqm-mem` models (pipelined ZBT bursts,
//!    DDR bank tracking under §3's naive or reordering scheduler); an
//!    engine nobody traces pays nothing for it;
//! 3. [`MemoryChannels`] gives a sharded engine one memory channel per
//!    shard and charges each shard's log to its channel, turning the
//!    N-engine composite's critical path into **memory-derived** time.
//!    Shards share no state, so the channels never wait for each other.
//!
//! Costing is fully deterministic: streams are pure functions of the
//! commands and their per-engine order, and the models contain no randomness,
//! so the same seed and configuration produce the same cycle counts.
//! The `table8` binary gates this in CI.

pub mod paper;
pub mod stream;

pub use paper::{PaperTiming, TimingConfig};
pub use stream::{DataAccess, OpStream};

use crate::command::{Command, Outcome};
use crate::error::QueueError;
use crate::manager::QueueManager;
use crate::shard::ShardedQueueManager;
use npqm_sim::time::Picos;

/// The cost of one charged stream, split by memory leg.
///
/// Pointer manipulation and data transfer run in parallel in the
/// hardware (§6), so the stream's wall time is [`CommandCost::time`] — the
/// maximum of the two legs, not their sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCost {
    /// Pointer-memory (ZBT SRAM) accesses charged.
    pub ptr_accesses: u64,
    /// Data-memory read bursts charged.
    pub data_reads: u64,
    /// Data-memory write bursts charged.
    pub data_writes: u64,
    /// DDR access slots lost to bank conflicts.
    pub conflict_slots: u64,
    /// DDR access slots lost to write-after-read turnaround.
    pub turnaround_slots: u64,
    /// Busy time of the pointer leg.
    pub ptr_time: Picos,
    /// Busy time of the data leg.
    pub data_time: Picos,
}

impl CommandCost {
    /// Wall time of the stream: the slower of the two parallel legs.
    pub fn time(&self) -> Picos {
        self.ptr_time.max(self.data_time)
    }

    /// Adds `other` into `self` (totals over several charged streams; the
    /// summed `ptr_time`/`data_time` are per-leg busy totals, not a
    /// critical path).
    pub fn absorb(&mut self, other: &CommandCost) {
        self.ptr_accesses += other.ptr_accesses;
        self.data_reads += other.data_reads;
        self.data_writes += other.data_writes;
        self.conflict_slots += other.conflict_slots;
        self.turnaround_slots += other.turnaround_slots;
        self.ptr_time += other.ptr_time;
        self.data_time += other.data_time;
    }
}

/// Refuses a model that would misprice `qm`: [`PaperTiming`] maps banks
/// and counts one burst per segment at its own `segment_bytes`.
fn assert_same_segment_bytes(qm: &QueueManager, model: &PaperTiming) {
    let (model, engine) = (model.config().segment_bytes, qm.config().segment_bytes());
    assert_eq!(
        model, engine,
        "timing model has {model}-byte segments, the engine {engine}-byte segments"
    );
}

impl QueueManager {
    /// Executes one command and charges its memory traffic to `model`,
    /// returning the command's outcome and its [`CommandCost`].
    ///
    /// Enables tracing if it was off (and leaves it on); any traffic
    /// accumulated since the last cut is discarded first so the cost
    /// covers exactly this command. A failed command still charges the
    /// accesses it performed before failing (hardware pays for the
    /// queue-table read that discovers an empty queue).
    ///
    /// # Errors
    ///
    /// The command's own [`QueueError`], alongside the (possibly
    /// partial) cost.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s `segment_bytes` differs from the engine's.
    pub fn execute_costed(
        &mut self,
        cmd: Command,
        model: &mut PaperTiming,
    ) -> (Result<Outcome, QueueError>, CommandCost) {
        assert_same_segment_bytes(self, model);
        if !self.tracing() {
            self.set_tracing(true);
        }
        let _ = self.cut_trace();
        let result = self.execute(cmd);
        let stream = self.cut_trace();
        let cost = model.charge(&stream);
        (result, cost)
    }
}

/// The cost of one charged engine trace (a batch, a round, or whatever
/// window the caller charged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchCost {
    /// Time each shard's channel advanced during the charge.
    pub per_shard: Vec<Picos>,
    /// The busiest channel's advance — the N-engine composite's
    /// memory-derived critical path for this window.
    pub critical_path: Picos,
    /// Summed counters over every charged stream.
    pub totals: CommandCost,
}

/// One memory channel per shard: the memory-derived replacement for the
/// sharded engine's wall-clock busy-time composite.
///
/// # Charging discipline
///
/// Each engine keeps one access log, and only
/// [`MemoryChannels::charge_engine`] cuts it (every engine, once). So the
/// cost depends only on the per-shard access *sequence* and when the
/// caller charged. Shards share no state — a command that would span two
/// is refused without touching either — so each shard's log is charged to
/// its own channel, and no channel ever waits for another.
///
/// # Example
///
/// ```
/// use npqm_core::manager::SegmentPosition;
/// use npqm_core::shard::ShardedQueueManager;
/// use npqm_core::timing::{MemoryChannels, PaperTiming, TimingConfig};
/// use npqm_core::{Command, FlowId, QmConfig};
///
/// let mut engine = ShardedQueueManager::new(QmConfig::small(), 2);
/// engine.set_tracing(true);
/// for i in 0..8 {
///     let data = vec![i as u8; 64];
///     let flow = FlowId::new(i);
///     engine.execute(Command::Enqueue { flow, data, pos: SegmentPosition::Only })?;
/// }
/// let mut channels = MemoryChannels::from_fn(2, |_| PaperTiming::new(TimingConfig::paper(8)));
/// let cost = channels.charge_engine(&mut engine);
/// assert_eq!(cost.totals.data_writes, 8);
/// assert!(cost.critical_path > npqm_sim::time::Picos::ZERO);
/// # Ok::<(), npqm_core::QueueError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryChannels {
    channels: Vec<PaperTiming>,
}

impl MemoryChannels {
    /// Builds one channel per shard with `make(shard_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn from_fn(num_shards: usize, make: impl FnMut(usize) -> PaperTiming) -> Self {
        assert!(num_shards > 0, "need at least one channel");
        MemoryChannels {
            channels: (0..num_shards).map(make).collect(),
        }
    }

    /// Absolute time of each channel.
    pub fn per_channel_elapsed(&self) -> Vec<Picos> {
        self.channels.iter().map(PaperTiming::elapsed).collect()
    }

    /// Absolute time of the busiest channel — the composite's
    /// memory-derived makespan.
    pub fn elapsed(&self) -> Picos {
        self.channels
            .iter()
            .map(PaperTiming::elapsed)
            .max()
            .unwrap_or(Picos::ZERO)
    }

    /// Resets every channel to idle.
    pub fn reset(&mut self) {
        for c in &mut self.channels {
            c.reset();
        }
    }

    /// Drains the engine's recorded trace and charges each shard's log to
    /// its channel (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if the engine's shard count differs from the channel
    /// count, or a channel's `segment_bytes` from its shard's.
    pub fn charge_engine(&mut self, engine: &mut ShardedQueueManager) -> BatchCost {
        assert_eq!(
            engine.num_shards(),
            self.channels.len(),
            "engine shard count and channel count differ"
        );
        // Every shard has shard 0's configuration.
        (self.channels.iter()).for_each(|c| assert_same_segment_bytes(engine.shard(0), c));
        let trace = engine.take_trace();
        let before = self.per_channel_elapsed();
        let mut totals = CommandCost::default();
        for (channel, stream) in self.channels.iter_mut().zip(&trace) {
            totals.absorb(&channel.charge(stream));
        }
        let per_shard: Vec<Picos> = self
            .channels
            .iter()
            .zip(&before)
            .map(|(c, &b)| c.elapsed().saturating_sub(b))
            .collect();
        let critical_path = per_shard.iter().copied().max().unwrap_or(Picos::ZERO);
        BatchCost {
            per_shard,
            critical_path,
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::id::FlowId;
    use crate::manager::SegmentPosition;

    fn cfg() -> QmConfig {
        QmConfig::builder()
            .num_flows(16)
            .num_segments(128)
            .segment_bytes(64)
            .build()
            .unwrap()
    }

    fn enqueue(flow: u32, len: usize) -> Command {
        Command::Enqueue {
            flow: FlowId::new(flow),
            data: vec![flow as u8; len],
            pos: SegmentPosition::Only,
        }
    }

    #[test]
    fn execute_costed_isolates_the_command() {
        let mut qm = QueueManager::new(cfg());
        let mut model = PaperTiming::new(TimingConfig::paper(8));
        // Traffic outside execute_costed must not leak into the cost.
        qm.enqueue_packet(FlowId::new(3), &[1u8; 200]).unwrap();
        let (r, cost) = qm.execute_costed(
            Command::Dequeue {
                flow: FlowId::new(3),
            },
            &mut model,
        );
        r.unwrap();
        assert_eq!(cost.data_reads, 1, "one segment read");
        assert_eq!(cost.data_writes, 0);
        assert!(cost.ptr_accesses > 0);
    }

    #[test]
    fn failed_command_still_charges_its_lookup() {
        let mut qm = QueueManager::new(cfg());
        let mut model = PaperTiming::new(TimingConfig::paper(8));
        let (r, cost) = qm.execute_costed(
            Command::Dequeue {
                flow: FlowId::new(5),
            },
            &mut model,
        );
        assert!(r.is_err());
        assert!(cost.ptr_accesses > 0, "the queue-table read is real");
        assert_eq!(cost.data_reads + cost.data_writes, 0);
    }

    #[test]
    fn tracing_changes_no_behavior() {
        let batch: Vec<Command> = (0..24).map(|i| enqueue(i % 16, 40 + i as usize)).collect();
        let mut plain = ShardedQueueManager::new(cfg(), 4);
        let mut traced = ShardedQueueManager::new(cfg(), 4);
        traced.set_tracing(true);
        for cmd in batch {
            assert_eq!(plain.execute(cmd.clone()), traced.execute(cmd));
        }
        assert_eq!(plain.state_digest(), traced.state_digest());
        assert_eq!(plain.ptr_counters(), traced.ptr_counters());
    }

    #[test]
    fn charge_engine_is_invariant_to_span_boundaries() {
        // The same commands through the sharded engine or straight to
        // each flow's home shard: only a charge cuts a shard's log, so
        // both cost the same.
        let cmds: Vec<Command> = (0..16)
            .map(|i| enqueue(i % 8, 64))
            .chain((0..8).map(|i| Command::Dequeue {
                flow: FlowId::new(i % 8),
            }))
            .collect();
        let run = |direct: bool| {
            let mut engine = ShardedQueueManager::new(cfg(), 2);
            engine.set_tracing(true);
            let mut ch = MemoryChannels::from_fn(2, |_| PaperTiming::new(TimingConfig::paper(4)));
            for c in &cmds {
                let _ = match direct {
                    true => engine.shard_for_mut(c.primary_flow()).execute(c.clone()),
                    false => engine.execute(c.clone()),
                };
            }
            let cost = ch.charge_engine(&mut engine);
            (cost, ch.per_channel_elapsed())
        };
        let (a, ea) = run(true);
        let (b, eb) = run(false);
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }

    /// A seeded 400-command script, three commands in ten a `Move` or
    /// `Copy` between random flows, charged every 100 commands: every
    /// `BatchCost` and the final channel clocks, folded into one word.
    /// With `swap`, each two-queue command across shards is first replaced
    /// by a refusal that touches no memory (a dequeue past the queue
    /// table).
    fn pinned_fold(tc: TimingConfig, swap: bool) -> u64 {
        use crate::check::{fnv1a_fold, FNV_OFFSET_BASIS};
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) % n
        };
        let mut engine = ShardedQueueManager::new(cfg(), 4);
        let across = |c: &Command| {
            let home = |f| engine.shard_of(f);
            c.secondary_flow()
                .is_some_and(|d| home(d) != home(c.primary_flow()))
        };
        let cmds: Vec<Command> = (0..400)
            .map(|_| {
                let flow = FlowId::new(draw(16) as u32);
                let dst = FlowId::new(draw(16) as u32);
                match draw(10) {
                    0..=3 => enqueue(flow.index(), 1 + draw(64) as usize),
                    4..=5 => Command::Dequeue { flow },
                    6 => Command::DeletePacket { flow },
                    7..=8 => Command::Move { src: flow, dst },
                    _ => Command::Copy { src: flow, dst },
                }
            })
            .map(|c| match swap && across(&c) {
                true => Command::Dequeue {
                    flow: FlowId::new(16),
                },
                false => c,
            })
            .collect();
        engine.set_tracing(true);
        let mut ch = MemoryChannels::from_fn(4, |_| PaperTiming::new(tc));
        let mut h = FNV_OFFSET_BASIS;
        for round in cmds.chunks(100) {
            round.iter().for_each(|c| drop(engine.execute(c.clone())));
            let cost = ch.charge_engine(&mut engine);
            let t = cost.totals;
            let words = [
                t.ptr_accesses,
                t.data_reads,
                t.data_writes,
                t.conflict_slots,
                t.turnaround_slots,
                t.ptr_time.as_u64(),
                t.data_time.as_u64(),
                cost.critical_path.as_u64(),
            ];
            h = (words.into_iter())
                .chain(cost.per_shard.iter().map(|p| p.as_u64()))
                .fold(h, fnv1a_fold);
        }
        (ch.per_channel_elapsed().iter()).fold(h, |h, p| fnv1a_fold(h, p.as_u64()))
    }

    #[test]
    fn charge_engine_costs_are_pinned() {
        // (banks, reordering, fold). A two-queue command across shards is
        // refused before it touches memory, so the script costs what it
        // costs with each such command swapped for a refusal that reads
        // nothing; the pins are that fold. One bank leaves nothing to
        // reorder.
        let pins: [(u32, bool, u64); 6] = [
            (1, true, 0x6BB8_A6E7_1084_ACA9),
            (1, false, 0x6BB8_A6E7_1084_ACA9),
            (4, true, 0xED57_A5B5_12AA_A460),
            (4, false, 0xE169_F29B_FDC2_AF92),
            (8, true, 0xC9A9_3CB4_A19A_17D4),
            (8, false, 0x4D12_7E5E_C225_E73B),
        ];
        for (banks, reordering, pin) in pins {
            let tc = if reordering {
                TimingConfig::paper(banks)
            } else {
                TimingConfig::naive(banks)
            };
            let fold = pinned_fold(tc, false);
            let at = format!("banks={banks} reordering={reordering}: {fold:#018X}");
            assert_eq!(fold, pinned_fold(tc, true), "{at}");
            assert_eq!(fold, pin, "{at}");
        }
    }
}
