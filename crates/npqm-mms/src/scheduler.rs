//! The MMS internal scheduler: per-port command FIFOs with priorities.
//!
//! "MMS keeps incoming commands in FIFOs (one per port) so as to smooth the
//! bursts of commands that may arrive simultaneously … The internal
//! scheduler forwards the incoming commands from the various ports to the
//! DQM giving different service priorities to each port."

use npqm_sim::fifo::{Fifo, FifoFullError};
use npqm_sim::time::Cycle;

/// Number of MMS request ports (IN, OUT, CPU, CPU — Figure 2).
pub const NUM_PORTS: usize = 4;

/// Identifies one of the four request ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Network ingress (enqueue traffic).
    In,
    /// Network egress (dequeue traffic).
    Out,
    /// First CPU interface.
    Cpu0,
    /// Second CPU interface.
    Cpu1,
}

impl Port {
    /// All ports, in index order.
    pub const ALL: [Port; NUM_PORTS] = [Port::In, Port::Out, Port::Cpu0, Port::Cpu1];

    /// Dense index of the port.
    pub const fn index(self) -> usize {
        match self {
            Port::In => 0,
            Port::Out => 1,
            Port::Cpu0 => 2,
            Port::Cpu1 => 3,
        }
    }

    /// Service priority (lower value = served first). The data-path ports
    /// outrank the CPU ports so that wire-speed traffic is never starved by
    /// management commands.
    pub const fn priority(self) -> u8 {
        match self {
            Port::In => 0,
            Port::Out => 0,
            Port::Cpu0 => 1,
            Port::Cpu1 => 1,
        }
    }
}

/// Per-port FIFOs plus the priority selection logic.
#[derive(Debug, Clone)]
pub struct InternalScheduler<T> {
    fifos: [Fifo<T>; NUM_PORTS],
    rr: usize,
}

impl<T> InternalScheduler<T> {
    /// Creates the scheduler with per-port FIFOs of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        InternalScheduler {
            fifos: core::array::from_fn(|_| Fifo::new(capacity)),
            rr: 0,
        }
    }

    /// Queues a command arriving on `port` at `now`.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when the port FIFO is full — this is the
    /// BACKPRESSURE signal of Figure 2.
    pub fn push(&mut self, port: Port, now: Cycle, item: T) -> Result<(), FifoFullError> {
        self.fifos[port.index()].push(now, item)
    }

    /// Selects and pops the next command for the DQM: the highest-priority
    /// non-empty port, round-robin among equal priorities. Returns the
    /// command, its source port, and its FIFO waiting time.
    pub fn pop(&mut self, now: Cycle) -> Option<(T, Port, Cycle)> {
        let mut best: Option<Port> = None;
        for i in 0..NUM_PORTS {
            let port = Port::ALL[(self.rr + i) % NUM_PORTS];
            if self.fifos[port.index()].is_empty() {
                continue;
            }
            match best {
                None => best = Some(port),
                Some(b) if port.priority() < b.priority() => best = Some(port),
                _ => {}
            }
        }
        let port = best?;
        let (item, waited) = self.fifos[port.index()]
            .pop(now)
            .expect("selected port is non-empty");
        self.rr = (port.index() + 1) % NUM_PORTS;
        Some((item, port, waited))
    }

    /// Whether all FIFOs are empty.
    pub fn is_empty(&self) -> bool {
        self.fifos.iter().all(Fifo::is_empty)
    }

    /// Total queued commands across ports.
    pub fn len(&self) -> usize {
        self.fifos.iter().map(Fifo::len).sum()
    }

    /// The FIFO of `port` (for statistics).
    pub fn fifo(&self, port: Port) -> &Fifo<T> {
        &self.fifos[port.index()]
    }

    /// Whether `port` currently signals backpressure.
    pub fn backpressured(&self, port: Port) -> bool {
        self.fifos[port.index()].is_full()
    }

    /// Free FIFO slots on `port`.
    pub fn headroom(&self, port: Port) -> usize {
        let f = &self.fifos[port.index()];
        f.capacity() - f.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_indices_and_priorities() {
        assert_eq!(Port::In.index(), 0);
        assert_eq!(Port::Cpu1.index(), 3);
        assert_eq!(Port::In.priority(), 0);
        assert_eq!(Port::Out.priority(), 0);
        assert_eq!(Port::Cpu0.priority(), 1);
        for (i, p) in Port::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn data_ports_outrank_cpu_ports() {
        let mut s: InternalScheduler<&str> = InternalScheduler::new(8);
        s.push(Port::Cpu0, Cycle::new(0), "cpu").unwrap();
        s.push(Port::In, Cycle::new(1), "in").unwrap();
        let (item, port, _) = s.pop(Cycle::new(2)).unwrap();
        assert_eq!(item, "in");
        assert_eq!(port, Port::In);
        let (item, _, _) = s.pop(Cycle::new(3)).unwrap();
        assert_eq!(item, "cpu");
    }

    #[test]
    fn round_robin_among_equal_priority() {
        let mut s: InternalScheduler<u32> = InternalScheduler::new(8);
        for i in 0..4 {
            s.push(Port::In, Cycle::ZERO, i).unwrap();
            s.push(Port::Out, Cycle::ZERO, 100 + i).unwrap();
        }
        let mut order = Vec::new();
        while let Some((_, port, _)) = s.pop(Cycle::new(1)) {
            order.push(port);
        }
        // Strict alternation between the two busy equal-priority ports.
        for w in order.windows(2) {
            assert_ne!(w[0], w[1], "order {order:?}");
        }
    }

    #[test]
    fn fifo_wait_is_reported() {
        let mut s: InternalScheduler<()> = InternalScheduler::new(4);
        s.push(Port::Out, Cycle::new(5), ()).unwrap();
        let (_, _, waited) = s.pop(Cycle::new(30)).unwrap();
        assert_eq!(waited, Cycle::new(25));
        assert!((s.fifo(Port::Out).wait_stats().mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn backpressure_when_full() {
        let mut s: InternalScheduler<u8> = InternalScheduler::new(2);
        s.push(Port::Cpu1, Cycle::ZERO, 1).unwrap();
        s.push(Port::Cpu1, Cycle::ZERO, 2).unwrap();
        assert!(s.backpressured(Port::Cpu1));
        assert!(s.push(Port::Cpu1, Cycle::ZERO, 3).is_err());
        assert!(!s.backpressured(Port::In));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_pop_returns_none() {
        let mut s: InternalScheduler<u8> = InternalScheduler::new(2);
        assert!(s.pop(Cycle::ZERO).is_none());
        assert!(s.is_empty());
    }
}
