//! Bounded FIFOs with waiting-time and occupancy statistics.
//!
//! The paper's MMS "keeps incoming commands in FIFOs (one per port) so as to
//! smooth the bursts of commands" and Table 5 reports the *FIFO delay* — the
//! time a command waits before reaching the head. This FIFO records the
//! timestamps needed to measure exactly that.

use crate::time::Cycle;
use std::collections::VecDeque;

/// Error returned by [`Fifo::push`] when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoFullError;

impl core::fmt::Display for FifoFullError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "fifo is full")
    }
}

impl std::error::Error for FifoFullError {}

/// A bounded FIFO whose entries are timestamped on entry, so that the
/// *FIFO delay* (enqueue → dequeue interval) can be reported per element.
///
/// # Example
///
/// ```
/// use npqm_sim::fifo::Fifo;
/// use npqm_sim::time::Cycle;
///
/// let mut f = Fifo::new(4);
/// f.push(Cycle::new(0), "cmd-a")?;
/// f.push(Cycle::new(2), "cmd-b")?;
/// let (item, waited) = f.pop(Cycle::new(10)).unwrap();
/// assert_eq!(item, "cmd-a");
/// assert_eq!(waited, Cycle::new(10));
/// # Ok::<(), npqm_sim::fifo::FifoFullError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<(Cycle, T)>,
    capacity: usize,
    peak: usize,
    pushed: u64,
    popped: u64,
    rejected: u64,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Fifo {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            peak: 0,
            pushed: 0,
            popped: 0,
            rejected: 0,
        }
    }

    /// Appends an element stamped with the current cycle.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] (and counts the rejection) when the FIFO is
    /// at capacity — models backpressure toward the port.
    pub fn push(&mut self, now: Cycle, item: T) -> Result<(), FifoFullError> {
        if self.items.len() >= self.capacity {
            self.rejected += 1;
            return Err(FifoFullError);
        }
        self.items.push_back((now, item));
        self.pushed += 1;
        self.peak = self.peak.max(self.items.len());
        Ok(())
    }

    /// Removes the oldest element, returning it and how long it waited.
    ///
    /// Returns `None` when empty.
    pub fn pop(&mut self, now: Cycle) -> Option<(T, Cycle)> {
        let (entered, item) = self.items.pop_front()?;
        let waited = now.saturating_sub(entered);
        self.popped += 1;
        Some((item, waited))
    }

    /// Entry timestamp and reference to the element at the head.
    pub fn peek(&self) -> Option<(&T, Cycle)> {
        self.items.front().map(|(t, item)| (item, *t))
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Maximum number of elements the FIFO can hold.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Largest occupancy ever observed.
    pub const fn peak(&self) -> usize {
        self.peak
    }

    /// Total elements accepted.
    pub const fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total elements dequeued.
    pub const fn popped(&self) -> u64 {
        self.popped
    }

    /// Pushes rejected because the FIFO was full.
    pub const fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Drops all queued elements (statistics are retained).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_wait() {
        let mut f = Fifo::new(8);
        f.push(Cycle::new(0), 'a').unwrap();
        f.push(Cycle::new(1), 'b').unwrap();
        f.push(Cycle::new(2), 'c').unwrap();
        let (x, w) = f.pop(Cycle::new(5)).unwrap();
        assert_eq!((x, w), ('a', Cycle::new(5)));
        let (x, w) = f.pop(Cycle::new(5)).unwrap();
        assert_eq!((x, w), ('b', Cycle::new(4)));
        let (x, w) = f.pop(Cycle::new(9)).unwrap();
        assert_eq!((x, w), ('c', Cycle::new(7)));
        assert!(f.pop(Cycle::new(10)).is_none());
    }

    #[test]
    fn fifo_backpressure() {
        let mut f = Fifo::new(2);
        f.push(Cycle::ZERO, 1).unwrap();
        f.push(Cycle::ZERO, 2).unwrap();
        assert!(f.is_full());
        assert_eq!(f.push(Cycle::ZERO, 3), Err(FifoFullError));
        assert_eq!(f.rejected(), 1);
        assert_eq!(f.len(), 2);
        f.pop(Cycle::new(1)).unwrap();
        assert!(!f.is_full());
        f.push(Cycle::new(1), 3).unwrap();
        assert_eq!(f.pushed(), 3);
    }

    #[test]
    fn fifo_peek_does_not_consume() {
        let mut f = Fifo::new(4);
        f.push(Cycle::new(3), "x").unwrap();
        let (item, entered) = f.peek().unwrap();
        assert_eq!(*item, "x");
        assert_eq!(entered, Cycle::new(3));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn fifo_stats_track_occupancy() {
        let mut f = Fifo::new(16);
        for i in 0..4 {
            f.push(Cycle::new(i), i).unwrap();
        }
        assert_eq!(f.peak(), 4);
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.peak(), 4, "peak survives clear");
    }

    #[test]
    fn wait_saturates_at_zero() {
        let mut f = Fifo::new(2);
        f.push(Cycle::new(10), ()).unwrap();
        // Pop "before" the push stamp (different clock bookkeeping): wait is 0.
        let (_, w) = f.pop(Cycle::new(3)).unwrap();
        assert_eq!(w, Cycle::ZERO);
    }

    #[test]
    fn error_display() {
        assert_eq!(FifoFullError.to_string(), "fifo is full");
    }

    #[test]
    #[should_panic(expected = "fifo capacity must be non-zero")]
    fn zero_capacity_panics() {
        let _: Fifo<u8> = Fifo::new(0);
    }
}
