//! Egress scheduling over flow queues.
//!
//! The paper's motivation (§1) is that "to support advanced Quality of
//! Service (QoS), a large number of independent queues is desirable" — the
//! queues exist so that a *scheduler* can pick which flow transmits next.
//! This module provides the three classic disciplines over a
//! [`QueueManager`]'s flows:
//!
//! * [`StrictPriority`] — lower-indexed class always wins (802.1p style);
//! * [`WeightedRoundRobin`] — packet-based weights, cheap but unfair for
//!   mixed packet sizes;
//! * [`DeficitRoundRobin`] — byte-accurate fairness (Shreedhar/Varghese),
//!   the discipline per-flow queuing hardware is usually paired with.
//!
//! Schedulers only *choose* flows; dequeuing stays on the engine, so any
//! discipline composes with any engine configuration. The flat disciplines
//! find their candidates in the engine's ready bits
//! ([`QueueManager::next_ready`]), so a pick at 32K queues visits the
//! backlogged flows, not every queue; HTB still visits every leaf.
//!
//! Beyond the flat disciplines, [`htb`] provides a hierarchical token
//! bucket (class tree with guaranteed/ceil rates, bursts, priorities and
//! parent borrowing), and [`from_spec`] builds any discipline from a
//! compact text spec (`"drr"`, `"wrr:4,2,1"`, `"sp"`, `"htb:..."`).

pub mod htb;
pub mod spec;

pub use htb::{HtbClass, HtbError, HtbScheduler, HtbStats, HtbTreeBuilder};
pub use spec::{from_spec, SpecError};

use crate::id::FlowId;
use crate::manager::QueueManager;
use std::iter::successors;

/// A scheduling discipline over a fixed set of flows.
pub trait FlowScheduler {
    /// Picks the next flow to serve, or `None` if every flow is empty.
    ///
    /// Implementations must only return flows with at least one complete
    /// packet ready (`complete_packets > 0`).
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId>;

    /// Informs the discipline that `bytes` were just served from `flow`
    /// (needed by byte-accounting disciplines like DRR).
    fn served(&mut self, flow: FlowId, bytes: usize);
}

/// Boxed schedulers schedule like their contents, so `Box<dyn
/// FlowScheduler>` slots into any generic pipeline bound.
impl<S: FlowScheduler + ?Sized> FlowScheduler for Box<S> {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        (**self).next_flow(qm)
    }

    fn served(&mut self, flow: FlowId, bytes: usize) {
        (**self).served(flow, bytes)
    }
}

/// Serves the lowest-indexed non-empty flow first.
///
/// # Example
///
/// ```
/// use npqm_core::sched::{FlowScheduler, StrictPriority};
/// use npqm_core::{FlowId, QmConfig, QueueManager};
///
/// # fn main() -> Result<(), npqm_core::QueueError> {
/// let mut qm = QueueManager::new(QmConfig::small());
/// qm.enqueue_packet(FlowId::new(5), b"low")?;
/// qm.enqueue_packet(FlowId::new(1), b"high")?;
/// let mut sched = StrictPriority::new(8);
/// assert_eq!(sched.next_flow(&qm), Some(FlowId::new(1)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StrictPriority {
    flows: u32,
}

impl StrictPriority {
    /// Creates a scheduler over flows `0..flows` (0 = highest priority).
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(flows: u32) -> Self {
        assert!(flows > 0, "need at least one flow");
        StrictPriority { flows }
    }
}

impl FlowScheduler for StrictPriority {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        qm.next_ready(0, self.flows as usize)
            .map(|f| FlowId::new(f as u32))
    }

    fn served(&mut self, _flow: FlowId, _bytes: usize) {}
}

/// Packet-based weighted round robin: flow `i` may send `weight[i]`
/// packets per round.
#[derive(Debug, Clone)]
pub struct WeightedRoundRobin {
    weights: Vec<u32>,
    credits: Vec<u32>,
    cursor: usize,
}

impl WeightedRoundRobin {
    /// Creates a scheduler with one weight per flow.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or any weight is zero.
    pub fn new(weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "need at least one flow");
        assert!(
            weights.iter().all(|&w| w > 0),
            "weights must be non-zero (a zero weight would starve the flow)"
        );
        let credits = weights.clone();
        WeightedRoundRobin {
            weights,
            credits,
            cursor: 0,
        }
    }

    fn refill(&mut self) {
        self.credits.copy_from_slice(&self.weights);
    }
}

impl FlowScheduler for WeightedRoundRobin {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        let n = self.weights.len();
        // Two passes over the ready flows: the current round with remaining
        // credits, then a refilled round. If both find nothing, the queues
        // are empty.
        for pass in 0..2 {
            if pass == 1 {
                self.refill();
            }
            let credits = &self.credits;
            let ready = |from, end| qm.next_ready(from, end);
            if let Some(idx) = visit_order(self.cursor, n, ready).find(|&idx| credits[idx] > 0) {
                self.cursor = idx;
                return Some(FlowId::new(idx as u32));
            }
        }
        None
    }

    fn served(&mut self, flow: FlowId, _bytes: usize) {
        let idx = flow.as_usize();
        self.credits[idx] = self.credits[idx].saturating_sub(1);
        if self.credits[idx] == 0 {
            self.cursor = (idx + 1) % self.weights.len();
        }
    }
}

/// The Shreedhar & Varghese deficit-round-robin selection loop over
/// abstract slots, shared verbatim by the flat [`DeficitRoundRobin`] and
/// the per-priority sibling rounds inside [`htb::HtbScheduler`].
///
/// The caller supplies three closures: `candidate(from, end)` returns the
/// first slot in `from..end` that may be backlogged (the flat discipline
/// asks the engine's ready bits, so a round visits only ready flows; HTB
/// names every slot), `head(slot)` returns the head-packet size when the
/// slot is backlogged *and currently eligible* (HTB gates eligibility on
/// token state; the flat discipline on backlog alone), and `empty(slot)`
/// reports a drained queue, which forfeits its deficit. A slot that is
/// not a candidate must have no `head`, so skipping it changes nothing.
/// Because both disciplines run this exact loop, a degenerate HTB tree
/// (every leaf permanently eligible) reproduces flat DRR's selection
/// sequence byte-for-byte — a property the test suite pins via
/// `state_digest`.
#[derive(Debug, Clone)]
pub(crate) struct DrrCore {
    quanta: Vec<u32>,
    deficit: Vec<u64>,
    cursor: usize,
    /// Slot currently holding the round (keeps serving while deficit and
    /// backlog allow, as the algorithm specifies).
    active: Option<usize>,
}

impl DrrCore {
    pub(crate) fn new(quanta: Vec<u32>) -> Self {
        assert!(!quanta.is_empty(), "need at least one slot");
        assert!(quanta.iter().all(|&q| q > 0), "quanta must be non-zero");
        let deficit = vec![0; quanta.len()];
        DrrCore {
            quanta,
            deficit,
            cursor: 0,
            active: None,
        }
    }

    /// Picks the next slot to serve, or `None` if no slot is eligible.
    pub(crate) fn next(
        &mut self,
        candidate: impl Fn(usize, usize) -> Option<usize> + Copy,
        head: impl Fn(usize) -> Option<u64>,
        empty: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        let n = self.quanta.len();
        // Keep serving the active slot while it can afford its head packet.
        if let Some(idx) = self.active {
            match head(idx) {
                Some(h) if h <= self.deficit[idx] => return Some(idx),
                _ => {
                    if empty(idx) {
                        self.deficit[idx] = 0; // empty queue forfeits deficit
                    }
                    self.active = None;
                    self.cursor = if idx + 1 == n { 0 } else { idx + 1 };
                }
            }
        }
        // Visit slots round-robin, granting each backlogged one its
        // quantum, until one can afford its head packet.
        let mut any_backlog = false;
        let order = visit_order(self.cursor, n, candidate);
        for idx in order.clone() {
            let Some(h) = head(idx) else {
                continue;
            };
            any_backlog = true;
            self.deficit[idx] += self.quanta[idx] as u64;
            if h <= self.deficit[idx] {
                self.active = Some(idx);
                self.cursor = idx;
                return Some(idx);
            }
        }
        if !any_backlog {
            return None;
        }
        self.skip_rounds(order, head)
    }

    /// A full pass fit nobody: the rounds the visiting loop would go on
    /// running, granted at once. Each backlogged slot needs
    /// `ceil((head - deficit) / quantum)` more rounds; the fewest win,
    /// ties to the earliest slot in visit order, and in that last round
    /// only the slots visited before the winner were granted. `order` is
    /// the pass just made.
    #[cold]
    fn skip_rounds(
        &mut self,
        order: impl Iterator<Item = usize> + Clone,
        head: impl Fn(usize) -> Option<u64>,
    ) -> Option<usize> {
        let order = order.enumerate();
        let need =
            |idx: usize| Some((head(idx)? - self.deficit[idx]).div_ceil(self.quanta[idx] as u64));
        let (rounds, at, winner) = (order.clone())
            .filter_map(|(i, idx)| Some((need(idx)?, i, idx)))
            .min()?;
        for (i, idx) in order.filter(|&(_, idx)| head(idx).is_some()) {
            self.deficit[idx] += self.quanta[idx] as u64 * (rounds - u64::from(i > at));
        }
        self.active = Some(winner);
        self.cursor = winner;
        Some(winner)
    }

    pub(crate) fn served(&mut self, slot: usize, bytes: usize) {
        self.deficit[slot] = self.deficit[slot].saturating_sub(bytes as u64);
    }
}

/// The candidate slots once round from `cursor`, in the order `(cursor +
/// i) % n` for `i` in `0..n`: `candidate(from, end)` is the first
/// candidate in `from..end`.
fn visit_order(
    cursor: usize,
    n: usize,
    candidate: impl Fn(usize, usize) -> Option<usize> + Copy,
) -> impl Iterator<Item = usize> + Clone {
    let run = move |from, end| successors(candidate(from, end), move |&s| candidate(s + 1, end));
    run(cursor, n).chain(run(0, cursor))
}

/// Every slot of `from..end` is a candidate.
fn every_slot(from: usize, end: usize) -> Option<usize> {
    (from < end).then_some(from)
}

/// Deficit round robin (Shreedhar & Varghese): byte-accurate fairness with
/// per-flow quanta.
#[derive(Debug, Clone)]
pub struct DeficitRoundRobin {
    core: DrrCore,
}

impl DeficitRoundRobin {
    /// Creates a scheduler with one byte-quantum per flow.
    ///
    /// # Panics
    ///
    /// Panics if `quanta` is empty or any quantum is zero.
    pub fn new(quanta: Vec<u32>) -> Self {
        assert!(!quanta.is_empty(), "need at least one flow");
        DeficitRoundRobin {
            core: DrrCore::new(quanta),
        }
    }

    fn head_bytes(qm: &QueueManager, flow: FlowId) -> Option<u64> {
        if qm.complete_packets(flow) == 0 {
            return None;
        }
        // The head packet's size: DRR compares it against the deficit.
        Some(qm.head_packet_bytes(flow).unwrap_or(0))
    }
}

impl FlowScheduler for DeficitRoundRobin {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        self.core
            .next(
                |from, end| qm.next_ready(from, end),
                |slot| Self::head_bytes(qm, FlowId::new(slot as u32)),
                |slot| qm.complete_packets(FlowId::new(slot as u32)) == 0,
            )
            .map(|slot| FlowId::new(slot as u32))
    }

    fn served(&mut self, flow: FlowId, bytes: usize) {
        self.core.served(flow.as_usize(), bytes);
    }
}

/// Drives a scheduler: dequeues the next packet according to `sched`.
///
/// Returns `None` when every scheduled flow is empty.
///
/// # Example
///
/// ```
/// use npqm_core::sched::{drain_next, DeficitRoundRobin};
/// use npqm_core::{FlowId, QmConfig, QueueManager};
///
/// # fn main() -> Result<(), npqm_core::QueueError> {
/// let mut qm = QueueManager::new(QmConfig::small());
/// qm.enqueue_packet(FlowId::new(0), &[1; 100])?;
/// let mut drr = DeficitRoundRobin::new(vec![1500, 1500]);
/// let (flow, pkt) = drain_next(&mut qm, &mut drr).unwrap();
/// assert_eq!(flow, FlowId::new(0));
/// assert_eq!(pkt.len(), 100);
/// # Ok(())
/// # }
/// ```
pub fn drain_next<S: FlowScheduler + ?Sized>(
    qm: &mut QueueManager,
    sched: &mut S,
) -> Option<(FlowId, Vec<u8>)> {
    let flow = sched.next_flow(qm)?;
    let pkt = qm
        .dequeue_packet(flow)
        .expect("scheduler picked a ready flow");
    sched.served(flow, pkt.len());
    Some((flow, pkt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;

    fn engine() -> QueueManager {
        QueueManager::new(QmConfig::small())
    }

    #[test]
    fn strict_priority_orders_classes() {
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(3), b"c3").unwrap();
        qm.enqueue_packet(FlowId::new(0), b"c0").unwrap();
        qm.enqueue_packet(FlowId::new(7), b"c7").unwrap();
        let mut sp = StrictPriority::new(8);
        let mut order = Vec::new();
        while let Some((f, _)) = drain_next(&mut qm, &mut sp) {
            order.push(f.index());
        }
        assert_eq!(order, vec![0, 3, 7]);
    }

    #[test]
    fn strict_priority_starves_low_classes() {
        let mut qm = engine();
        let mut sp = StrictPriority::new(2);
        qm.enqueue_packet(FlowId::new(1), b"low").unwrap();
        for _ in 0..5 {
            qm.enqueue_packet(FlowId::new(0), b"high").unwrap();
            let (f, _) = drain_next(&mut qm, &mut sp).unwrap();
            assert_eq!(f.index(), 0, "class 1 must wait");
        }
        let (f, _) = drain_next(&mut qm, &mut sp).unwrap();
        assert_eq!(f.index(), 1);
    }

    #[test]
    fn wrr_respects_weights() {
        let mut qm = engine();
        // Flows 0 and 1 with weights 3:1, both saturated.
        for _ in 0..12 {
            qm.enqueue_packet(FlowId::new(0), &[0; 64]).unwrap();
            qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
        }
        let mut wrr = WeightedRoundRobin::new(vec![3, 1]);
        let mut counts = [0u32; 2];
        for _ in 0..16 {
            let (f, _) = drain_next(&mut qm, &mut wrr).unwrap();
            counts[f.as_usize()] += 1;
        }
        assert_eq!(counts, [12, 4], "3:1 service ratio");
    }

    #[test]
    fn wrr_skips_empty_flows_without_wasting_credits() {
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(2), b"only").unwrap();
        let mut wrr = WeightedRoundRobin::new(vec![4, 4, 1]);
        let (f, _) = drain_next(&mut qm, &mut wrr).unwrap();
        assert_eq!(f.index(), 2);
        assert!(drain_next(&mut qm, &mut wrr).is_none());
    }

    /// Equal quanta split bytes, not packets: flow 0's one 256-byte packet
    /// against flow 2's four of 64 bytes.
    #[test]
    fn drr_is_byte_fair_with_mixed_packet_sizes() {
        let bytes = crate::model::drained_bytes("drr_splits_bytes_by_quantum");
        assert_eq!((bytes[0], bytes[2]), (256, 256));
    }

    /// Quanta of 32 and 64 bytes split 64-byte packets one to two.
    #[test]
    fn drr_weighted_quanta_split_bandwidth() {
        let bytes = crate::model::drained_bytes("drr_splits_bytes_by_quantum");
        assert_eq!((bytes[1], bytes[2]), (128, 256));
    }

    /// A queue that empties while it holds the round forfeits its
    /// deficit, so it sends one packet in its next turn where the kept
    /// deficit would have sent two.
    #[test]
    fn drr_empty_queue_forfeits_deficit() {
        let bytes = crate::model::drained_bytes("drr_empty_queue_forfeits_deficit");
        assert_eq!(bytes, [50, 64]);
    }

    /// A quantum far below the head packet once gave up after 64 rounds and
    /// answered `None` over a backlog.
    #[test]
    fn drr_small_quantum_serves_on_the_first_call() {
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(0), &[0; 1500]).unwrap();
        let mut drr = spec::from_spec("drr:1", 4).unwrap();
        assert_eq!(drr.next_flow(&qm), Some(FlowId::new(0)));
    }

    #[test]
    fn all_disciplines_terminate_on_empty_engine() {
        let qm = engine();
        assert!(StrictPriority::new(4).next_flow(&qm).is_none());
        assert!(WeightedRoundRobin::new(vec![1; 4]).next_flow(&qm).is_none());
        assert!(DeficitRoundRobin::new(vec![64; 4]).next_flow(&qm).is_none());
    }

    #[test]
    #[should_panic(expected = "weights must be non-zero")]
    fn zero_weight_panics() {
        let _ = WeightedRoundRobin::new(vec![1, 0]);
    }
}
