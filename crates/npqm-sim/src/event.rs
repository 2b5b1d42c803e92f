//! A deterministic time-ordered event queue.
//!
//! Earliest-first with ties broken by insertion order, so a model that
//! drives it is a pure function of its inputs and RNG seed. Neither
//! closed loop uses it: an egress server sends one packet at a time, so
//! each keeps its one pending completion in a slot
//! (`npqm_traffic::pipeline`). Its one caller is the repo benchmark's
//! `sim.event` rung.

use crate::time::Picos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at an absolute time.
#[derive(Debug, Clone)]
struct Scheduled<T> {
    at: Picos,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Earliest-first event queue with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use npqm_sim::event::EventQueue;
/// use npqm_sim::time::Picos;
///
/// let mut q = EventQueue::new();
/// q.schedule(Picos::from_nanos(40), "dram-done");
/// q.schedule(Picos::from_nanos(8), "dqm-step");
/// q.schedule(Picos::from_nanos(8), "sched-step"); // same time: FIFO order
/// assert_eq!(q.pop().unwrap().1, "dqm-step");
/// assert_eq!(q.pop().unwrap().1, "sched-step");
/// assert_eq!(q.pop().unwrap().1, "dram-done");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
    now: Picos,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Picos::ZERO,
        }
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (time travel would
    /// silently corrupt causality in a model).
    pub fn schedule(&mut self, at: Picos, payload: T) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Schedules `payload` at `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Picos, payload: T) {
        self.schedule(self.now + delay, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(Picos, T)> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some((ev.at, ev.payload))
    }

    /// Current simulation time (time of the last popped event).
    pub const fn now(&self) -> Picos {
        self.now
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_nanos(100), 1);
        q.schedule(Picos::from_nanos(10), 2);
        q.schedule(Picos::from_nanos(50), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(Picos::from_nanos(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::default();
        q.schedule(Picos::from_nanos(7), ());
        assert_eq!(q.now(), Picos::ZERO);
        q.pop();
        assert_eq!(q.now(), Picos::from_nanos(7));
        q.schedule_in(Picos::from_nanos(3), ());
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, Picos::from_nanos(10));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_nanos(10), ());
        q.pop();
        q.schedule(Picos::from_nanos(5), ());
    }
}
