//! A deterministic time-ordered event queue.
//!
//! Discrete-event models (e.g. the MMS load experiment, where four command
//! ports, the DQM and the DMC advance on different schedules) use this queue
//! to interleave work. Ties in time are broken by insertion order, so a
//! simulation is a pure function of its inputs and RNG seed.

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
        let seq = self.ticket();
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Schedules `payload` at `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Picos, payload: T) {
        self.schedule(self.now + delay, payload);
    }

    /// Takes the next sequence ticket without queueing anything, for an
    /// event the caller holds outside the queue (a loop's next arrival):
    /// the event then orders against queued ones exactly as if it had
    /// been [`schedule`](EventQueue::schedule)d here. See
    /// [`precedes`](EventQueue::precedes).
    pub fn ticket(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Whether a held event at `at` with `ticket` goes before the queue's
    /// earliest event: earlier time, or the same time and an earlier
    /// ticket. `true` on an empty queue.
    ///
    /// ```
    /// use npqm_sim::event::EventQueue;
    /// use npqm_sim::time::Picos;
    ///
    /// let mut q = EventQueue::new();
    /// let held = q.ticket();
    /// q.schedule(Picos::from_nanos(8), "tx-done");
    /// assert!(q.precedes(Picos::from_nanos(8), held));
    /// assert!(!q.precedes(Picos::from_nanos(9), held));
    /// ```
    pub fn precedes(&self, at: Picos, ticket: u64) -> bool {
        self.heap
            .peek()
            .is_none_or(|head| (at, ticket) < (head.at, head.seq))
    }

    /// Removes and returns the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(Picos, T)> {
        let ev = self.heap.pop()?;
        self.now = ev.at;
        Some((ev.at, ev.payload))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Picos> {
        self.heap.peek().map(|e| e.at)
    }

    /// Advances the clock to `at` without popping an event, for loops
    /// that interleave externally-sourced events (e.g. arrivals merged
    /// from ingress rings) with scheduled ones: the caller advances to
    /// the external event's time so relative scheduling
    /// ([`schedule_in`](EventQueue::schedule_in)) is anchored correctly.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time, or if an event is
    /// still pending before `at` (skipping over it would corrupt
    /// causality exactly like scheduling into the past).
    pub fn advance_to(&mut self, at: Picos) {
        assert!(at >= self.now, "cannot advance into the past");
        assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "cannot advance past a pending event"
        );
        self.now = at;
    }

    /// Current simulation time (time of the last popped event).
    pub const fn now(&self) -> Picos {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    fn held_and_queued_events_at_one_instant_go_in_ticket_order() {
        let t = Picos::from_nanos(5);
        // Queued first: the held event, ticketed after it, goes second.
        let mut q = EventQueue::new();
        q.schedule(t, "queued");
        let held = q.ticket();
        assert!(!q.precedes(t, held));
        assert_eq!(q.pop(), Some((t, "queued")));
        assert!(q.precedes(t, held));
        // Held first: its earlier ticket wins the tie.
        let mut q = EventQueue::new();
        let held = q.ticket();
        q.schedule(t, "queued");
        assert!(q.precedes(t, held));
        assert!(!q.precedes(Picos::from_nanos(6), held));
        // Tickets and schedules share one counter.
        assert_eq!(q.ticket(), 2);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_nanos(7), ());
        assert_eq!(q.now(), Picos::ZERO);
        assert_eq!(q.peek_time(), Some(Picos::from_nanos(7)));
        q.pop();
        assert_eq!(q.now(), Picos::from_nanos(7));
        q.schedule_in(Picos::from_nanos(3), ());
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, Picos::from_nanos(10));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        q.schedule(Picos::ZERO, 1);
        q.schedule(Picos::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None.map(|(t, p): (Picos, u8)| (t, p)));
    }

    #[test]
    fn advance_to_moves_the_clock_without_popping() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule(Picos::from_nanos(50), 1);
        q.advance_to(Picos::from_nanos(20));
        assert_eq!(q.now(), Picos::from_nanos(20));
        assert_eq!(q.len(), 1);
        q.schedule_in(Picos::from_nanos(5), 2);
        assert_eq!(q.pop(), Some((Picos::from_nanos(25), 2)));
        // Advancing exactly to the earliest pending event is allowed.
        q.advance_to(Picos::from_nanos(50));
        assert_eq!(q.pop(), Some((Picos::from_nanos(50), 1)));
    }

    #[test]
    #[should_panic(expected = "cannot advance past a pending event")]
    fn advance_past_a_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(Picos::from_nanos(10), ());
        q.advance_to(Picos::from_nanos(11));
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
