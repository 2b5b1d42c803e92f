//! Multithreading ablation: why the IXP1200's hardware threads do not help
//! queue management.
//!
//! §4: "One can argue that using the multithreading capability of the IXP,
//! someone can hide this memory latency. However, as it was demonstrated
//! in \[10\], the overhead for the context switch, in the case of
//! multithreading, exceeds the memory latency and thus this IXP feature
//! cannot increase the performance of the memory management system."
//!
//! This model makes the claim quantitative: one engine runs `threads`
//! contexts; on every blocking memory reference the engine may switch to a
//! ready context at a cost of `switch_cycles` (pipeline flush, CSR updates
//! and — per \[10\] — re-acquiring the queue-structure locks that make
//! queue state consistent across contexts). The throughput ratio against
//! the single-threaded engine shows the break-even: threads help while
//! `switch_cycles` is below the blocked time they reclaim, and become a
//! pure loss beyond it.

use crate::memunit::MemUnit;
use crate::profile::OpProfile;

/// A single microengine with hardware thread contexts.
#[derive(Debug, Clone)]
pub struct ThreadedEngine {
    threads: u32,
    switch_cycles: u64,
    profile: OpProfile,
}

impl ThreadedEngine {
    /// Creates an engine with `threads` contexts and the given
    /// context-switch cost, running the workload of `queues` queues.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: u32, switch_cycles: u64, queues: u32) -> Self {
        assert!(threads > 0, "need at least one thread context");
        ThreadedEngine {
            threads,
            switch_cycles,
            profile: OpProfile::for_queues(queues),
        }
    }

    /// Runs for `horizon` cycles; returns packets completed across all
    /// contexts.
    ///
    /// Model: each context alternates compute chunks and blocking memory
    /// references (as in [`crate::chip::IxpChip`], with the references
    /// merged into one average unit for clarity). When the running context
    /// blocks, the engine switches to the earliest-ready context if the
    /// switch pays for itself mechanically (i.e. always, as the hardware
    /// does); the cost is paid on every switch.
    pub fn run_packets(&self, horizon: u64) -> u64 {
        let p = &self.profile;
        // Average blocking latency over the profile's references.
        let total_refs = (p.scratch_refs + p.sram_refs + p.sdram_refs).max(1) as u64;
        let (mut scratch, mut sram, mut sdram) =
            (MemUnit::scratch(), MemUnit::sram(), MemUnit::sdram());
        let compute_chunk = p.compute_cycles / (total_refs + 1);

        // Per-context state: when the context's outstanding reference
        // completes (0 = ready), and its progress through the packet.
        #[derive(Clone)]
        struct Ctx {
            ready_at: u64,
            ref_idx: u64,
            packets: u64,
        }
        let mut ctxs = vec![
            Ctx {
                ready_at: 0,
                ref_idx: 0,
                packets: 0
            };
            self.threads as usize
        ];
        let mut now = 0u64;
        let mut current = 0usize;

        while now < horizon {
            // Run the current context: compute, then issue its next ref.
            let ctx = &mut ctxs[current];
            now = now.max(ctx.ready_at);
            if now >= horizon {
                break;
            }
            now += compute_chunk;
            ctx.ref_idx += 1;
            if ctx.ref_idx > total_refs {
                // Packet finished; next packet starts immediately.
                ctx.packets += 1;
                ctx.ref_idx = 0;
                continue;
            }
            // Issue the reference in scratch->sram->sdram order.
            let unit: &mut MemUnit = if ctx.ref_idx <= p.scratch_refs as u64 {
                &mut scratch
            } else if ctx.ref_idx <= (p.scratch_refs + p.sram_refs) as u64 {
                &mut sram
            } else {
                &mut sdram
            };
            let done = unit.access(now);
            ctx.ready_at = done;
            if self.threads == 1 {
                // Single-threaded: block in place.
                now = done;
                continue;
            }
            // Switch to the earliest-ready other context, paying the cost.
            now += self.switch_cycles;
            let next = (0..ctxs.len())
                .min_by_key(|&i| ctxs[i].ready_at.max(now))
                .expect("at least one context");
            current = next;
        }
        ctxs.iter().map(|c| c.packets).sum()
    }

    /// Throughput relative to the single-threaded engine (>1 means
    /// multithreading helps).
    pub fn speedup_vs_single_thread(&self, horizon: u64) -> f64 {
        let single = ThreadedEngine {
            threads: 1,
            ..self.clone()
        };
        self.run_packets(horizon) as f64 / single.run_packets(horizon) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: u64 = 2_000_000;

    #[test]
    fn free_switching_would_help_at_128_queues() {
        // Sanity: with a (hypothetical) zero-cost switch, 4 threads hide
        // the SRAM latency and throughput rises substantially.
        let free = ThreadedEngine::new(4, 0, 128);
        let speedup = free.speedup_vs_single_thread(HORIZON);
        assert!(speedup > 1.4, "speedup {speedup}");
    }

    #[test]
    fn costly_switching_erases_the_gain() {
        // The paper/[10] regime: switch cost (60 cycles) exceeds the SRAM
        // latency (51), and a 4-threaded engine is no faster than one.
        let costly = ThreadedEngine::new(4, 60, 128);
        let speedup = costly.speedup_vs_single_thread(HORIZON);
        assert!(speedup <= 1.05, "speedup {speedup}");
    }

    #[test]
    fn break_even_is_monotone_in_switch_cost() {
        let mut last = f64::INFINITY;
        for cost in [0u64, 10, 25, 60, 100] {
            let s = ThreadedEngine::new(4, cost, 128).speedup_vs_single_thread(HORIZON);
            assert!(
                s <= last + 0.02,
                "speedup must not increase with cost: {s} after {last}"
            );
            last = s;
        }
    }

    #[test]
    fn scratch_only_workload_has_little_to_hide() {
        // At 16 queues references are short scratch hits (12 cycles in a
        // 208-cycle packet): even FREE switching is capped at 208/160 = 1.3x,
        // versus the 1.5x+ available in the SRAM regime.
        let scratch_gain = ThreadedEngine::new(4, 0, 16).speedup_vs_single_thread(HORIZON);
        let sram_gain = ThreadedEngine::new(4, 0, 128).speedup_vs_single_thread(HORIZON);
        assert!(scratch_gain <= 1.32, "speedup {scratch_gain}");
        assert!(
            sram_gain > scratch_gain,
            "more external latency -> more to hide ({sram_gain} vs {scratch_gain})"
        );
    }

    #[test]
    fn single_thread_matches_itself() {
        let e = ThreadedEngine::new(1, 999, 128);
        let s = e.speedup_vs_single_thread(500_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = ThreadedEngine::new(0, 0, 16);
    }
}
