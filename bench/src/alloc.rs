//! A counting wrapper over the system allocator.
//!
//! Allocations per packet are the one per-layer cost that repeats exactly
//! from run to run, so the traced pass counts them. Counting is off (one
//! relaxed load per call) during the timed pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator plus two counters, installed as the benchmark's
/// `#[global_allocator]`.
pub struct Counting;

// Statistics only: no other data is published through these, so `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing `Vec` asks the allocator for memory as surely as a
        // fresh one does: count it as one allocation of the new size.
        count(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested while counting was on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` with counting on and returns what it allocated (on any thread).
/// Not reentrant: nested or concurrent calls would share the counters.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ENABLED.store(true, Ordering::Relaxed);
    let r = f();
    ENABLED.store(false, Ordering::Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed) - before.0,
        bytes: BYTES.load(Ordering::Relaxed) - before.1,
    };
    (r, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    // One test, because the counters are process-wide and `cargo test`
    // runs tests on parallel threads.
    #[test]
    fn counts_a_known_pattern_and_nothing_while_off() {
        let (_, c) = counted(|| {
            let boxed: Vec<Box<[u8; 100]>> = (0..10).map(|_| Box::new([0u8; 100])).collect();
            black_box(boxed);
        });
        // Other test threads may allocate while counting is on, so the
        // pattern is a floor, not an equality.
        assert!(c.allocs >= 11, "ten boxes and one vec, got {c:?}");
        assert!(c.bytes >= 10 * 100 + 10 * 8, "got {c:?}");

        let off_before = ALLOCS.load(Ordering::Relaxed);
        black_box(vec![0u8; 4096]);
        assert_eq!(ALLOCS.load(Ordering::Relaxed), off_before);
    }
}
