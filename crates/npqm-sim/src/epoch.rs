//! A wall-clock-free virtual epoch clock.
//!
//! Streaming experiments observe a long-running engine through fixed-width
//! **epochs** of virtual time: per-window statistics, snapshot digests and
//! online verification all happen at epoch boundaries. The clock is
//! driven purely by the virtual timestamps of the events a loop processes
//! — no wall clock is ever read — so two runs of the same workload cross
//! the same boundaries at the same points in their event streams
//! regardless of host speed or thread count.
//!
//! Window `k` covers the half-open interval `[k·len, (k+1)·len)`: an
//! event exactly on a boundary belongs to the *next* window, so "the
//! state at boundary `b`" is unambiguously the state after every event
//! with timestamp `< b` has been processed.
//!
//! # Example
//!
//! ```
//! use npqm_sim::epoch::EpochClock;
//! use npqm_sim::time::Picos;
//!
//! let mut clock = EpochClock::new(Picos::from_micros(10));
//! assert_eq!(clock.epoch_of(Picos::from_micros(25)), 2);
//! // Advancing to 25 µs completes windows 0 and 1.
//! let done: Vec<u64> = clock.advance_to(Picos::from_micros(25)).collect();
//! assert_eq!(done, vec![0, 1]);
//! // Nothing new completes within the same window.
//! assert_eq!(clock.advance_to(Picos::from_micros(29)).count(), 0);
//! assert_eq!(clock.completed(), 2);
//! ```

use crate::time::Picos;

/// Fixed-width virtual-time window clock (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct EpochClock {
    len: Picos,
    completed: u64,
    /// The exclusive end of window `completed`, in picoseconds, or
    /// `u64::MAX` when that end lies past every instant: below it,
    /// [`advance_to`](Self::advance_to) completes nothing without a
    /// division.
    next_boundary: u64,
}

impl EpochClock {
    /// Creates a clock with windows of `len` virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero (every instant would complete infinitely
    /// many windows).
    pub fn new(len: Picos) -> Self {
        assert!(len > Picos::ZERO, "epoch length must be positive");
        EpochClock {
            len,
            completed: 0,
            next_boundary: len.as_u64(),
        }
    }

    /// The window width.
    pub const fn epoch_len(&self) -> Picos {
        self.len
    }

    /// The window an instant falls into: `at / len` (boundaries belong to
    /// the next window).
    pub fn epoch_of(&self, at: Picos) -> u64 {
        at.as_u64() / self.len.as_u64()
    }

    /// The boundary that *closes* window `epoch` (its exclusive end).
    pub fn boundary(&self, epoch: u64) -> Picos {
        Picos::new((epoch + 1) * self.len.as_u64())
    }

    /// Advances the clock to `at` (the timestamp of the event about to be
    /// processed) and returns the indices of the windows this completes,
    /// in order. A window completes when the clock first reaches an
    /// instant at or beyond its exclusive end, i.e. *before* the first
    /// event of a later window is applied — so a snapshot taken per
    /// completed window observes exactly the state at that boundary.
    ///
    /// Going backwards in time completes nothing (the range is empty).
    /// Inlined: a loop calls it once per event, and an event that
    /// completes no window costs one compare.
    #[inline]
    pub fn advance_to(&mut self, at: Picos) -> std::ops::Range<u64> {
        if at.as_u64() < self.next_boundary {
            return self.completed..self.completed;
        }
        let reached = self.epoch_of(at);
        if reached <= self.completed {
            return self.completed..self.completed;
        }
        let range = self.completed..reached;
        self.completed = reached;
        self.next_boundary = reached.saturating_add(1).saturating_mul(self.len.as_u64());
        range
    }

    /// Number of windows completed so far — equivalently, the index of
    /// the oldest window still open.
    pub const fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_belong_to_the_next_window() {
        let clock = EpochClock::new(Picos::from_nanos(100));
        assert_eq!(clock.epoch_of(Picos::ZERO), 0);
        assert_eq!(clock.epoch_of(Picos::from_nanos(99)), 0);
        assert_eq!(clock.epoch_of(Picos::from_nanos(100)), 1);
        assert_eq!(clock.boundary(0), Picos::from_nanos(100));
    }

    #[test]
    fn advance_completes_each_window_exactly_once() {
        let mut clock = EpochClock::new(Picos::from_nanos(10));
        assert_eq!(clock.advance_to(Picos::from_nanos(5)).count(), 0);
        let first: Vec<u64> = clock.advance_to(Picos::from_nanos(10)).collect();
        assert_eq!(first, vec![0]);
        let jump: Vec<u64> = clock.advance_to(Picos::from_nanos(47)).collect();
        assert_eq!(jump, vec![1, 2, 3]);
        assert_eq!(clock.completed(), 4);
        // Re-advancing to the same instant is idempotent.
        assert_eq!(clock.advance_to(Picos::from_nanos(47)).count(), 0);
    }

    #[test]
    fn time_never_runs_backwards() {
        let mut clock = EpochClock::new(Picos::from_nanos(10));
        clock.advance_to(Picos::from_nanos(35));
        assert_eq!(clock.advance_to(Picos::from_nanos(12)).count(), 0);
        assert_eq!(clock.completed(), 3);
    }

    /// The cached boundary completes what `epoch_of` says, from one
    /// picosecond before a boundary to the boundary itself, at the
    /// smallest window and where the boundary's product passes `u64::MAX`.
    #[test]
    fn advance_agrees_with_epoch_of_at_and_before_boundaries() {
        let max = u64::MAX;
        for len in [1, 3, 10_000, max / 3, max / 2 + 1, max - 1, max] {
            let mut clock = EpochClock::new(Picos::new(len));
            let mut instants = Vec::new();
            for k in [1, 2, 3, 5, max / len] {
                if let Some(b) = k.checked_mul(len) {
                    instants.extend([b - 1, b, b.saturating_add(1)]);
                }
            }
            instants.extend([max - 2, max - 1, max, max, 0]);
            for at in instants {
                let was = clock.completed();
                let want = clock.epoch_of(Picos::new(at)).max(was);
                assert_eq!(
                    clock.advance_to(Picos::new(at)),
                    was..want,
                    "len {len}, at {at}"
                );
                assert_eq!(clock.completed(), want, "len {len}, at {at}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn zero_length_panics() {
        let _ = EpochClock::new(Picos::ZERO);
    }
}
