//! A fixed piece of work that tells how fast the host is *right now*.
//!
//! The sandbox this benchmark's bounds were fixed on slows down and speeds
//! up by 15–30% for minutes at a time (a busy neighbour on the same core),
//! with the process on-CPU throughout: CPU time inflates with wall time and
//! no statistic over the repetitions of one run can see through it. So
//! every timed repetition is bracketed by this kernel, and its wall and CPU
//! time are divided by how much slower than [`REFERENCE_S`] the kernel ran
//! around it. The kernel is the benchmark's own code and calls nothing of
//! the program's: a faster program cannot make it faster.
//!
//! Its instruction mix is the workloads': dependent loads through an index
//! table, a binary heap of events, data-dependent branches and 64-byte
//! copies, over a working set that fits the second-level cache.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What one kernel run takes on the quiet reference host, in seconds.
/// Reported times are in this host's seconds.
pub const REFERENCE_S: f64 = 0.0043;

const NODES: usize = 1 << 15;
const STEPS: usize = 150_000;
const BLOCK: usize = 64;
const BLOCKS: usize = 1 << 13;

/// The kernel's tables, built once per process.
pub struct Kernel {
    next: Vec<u32>,
    src: Vec<u8>,
    dst: Vec<u8>,
    heap: BinaryHeap<u64>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Kernel {
    pub fn new() -> Self {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        // One cycle through every node (Sattolo's shuffle), so the walk
        // never falls into a short loop.
        let mut next: Vec<u32> = (0..NODES as u32).collect();
        for i in (1..NODES).rev() {
            let j = (xorshift(&mut rng) % i as u64) as usize;
            next.swap(i, j);
        }
        Kernel {
            next,
            src: (0..BLOCK * BLOCKS).map(|i| i as u8).collect(),
            dst: vec![0; BLOCK * BLOCKS],
            heap: BinaryHeap::with_capacity(1024),
        }
    }

    /// Runs the kernel once; the checksum keeps the work alive.
    pub fn run(&mut self) -> u64 {
        let mut at = 0usize;
        let mut sum = 0u64;
        self.heap.clear();
        for step in 0..STEPS {
            at = self.next[at] as usize;
            let key = (at as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ step as u64;
            self.heap.push(key);
            if key & 3 != 0 || self.heap.len() > 512 {
                sum = sum.wrapping_add(self.heap.pop().unwrap_or(0));
            }
            let from = (at % BLOCKS) * BLOCK;
            let to = (key as usize % BLOCKS) * BLOCK;
            self.dst[to..to + BLOCK].copy_from_slice(&self.src[from..from + BLOCK]);
            sum = sum.wrapping_add(u64::from(self.dst[to + (step & 63)]));
        }
        sum
    }

    /// Seconds per kernel run now: the mean over about `beside_s` seconds
    /// of runs (three at least), interruptions and all. A slice as long as
    /// the repetition beside it is exposed to the slow spells that last
    /// milliseconds exactly as much as the repetition is; a shorter one
    /// would slip between them and understate the slowdown.
    pub fn seconds(&mut self, beside_s: f64) -> f64 {
        let t = Instant::now();
        let mut runs = 0u32;
        while runs < 3 || t.elapsed().as_secs_f64() < beside_s {
            black_box(self.run());
            runs += 1;
        }
        t.elapsed().as_secs_f64() / f64::from(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_walks_one_full_cycle() {
        let mut k = Kernel::new();
        assert_eq!(k.run(), k.run());
        let mut at = 0usize;
        for step in 1..=NODES {
            at = k.next[at] as usize;
            assert_eq!(at == 0, step == NODES, "short cycle at step {step}");
        }
        assert!(k.seconds(0.0) > 0.0);
    }
}
