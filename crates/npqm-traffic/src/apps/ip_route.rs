//! IP routing: longest-prefix match plus per-next-hop queueing.
//!
//! The router decrements TTL and patches the header checksum — the
//! header-modification pattern the MMS serves with its overwrite command —
//! then enqueues the packet on the queue of its next hop.

use crate::packet::{internet_checksum, Ipv4Packet};
use npqm_core::sched::{
    drain_next, FlowScheduler, HtbClass, HtbError, HtbScheduler, HtbTreeBuilder, StrictPriority,
};
use npqm_core::{FlowId, QmConfig, QueueError, QueueManager};

/// A binary longest-prefix-match trie over IPv4 prefixes.
#[derive(Debug, Clone, Default)]
pub struct Lpm {
    nodes: Vec<LpmNode>,
}

#[derive(Debug, Clone, Copy, Default)]
struct LpmNode {
    children: [Option<u32>; 2],
    next_hop: Option<u32>,
}

impl Lpm {
    /// Creates an empty table.
    pub fn new() -> Self {
        Lpm {
            nodes: vec![LpmNode::default()],
        }
    }

    /// Inserts `prefix/len → next_hop`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn insert(&mut self, prefix: [u8; 4], len: u8, next_hop: u32) {
        assert!(len <= 32, "prefix length out of range");
        let addr = u32::from_be_bytes(prefix);
        let mut node = 0usize;
        for i in 0..len {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            let child = match self.nodes[node].children[bit] {
                Some(c) => c as usize,
                None => {
                    self.nodes.push(LpmNode::default());
                    let c = (self.nodes.len() - 1) as u32;
                    self.nodes[node].children[bit] = Some(c);
                    c as usize
                }
            };
            node = child;
        }
        self.nodes[node].next_hop = Some(next_hop);
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, addr: [u8; 4]) -> Option<u32> {
        let a = u32::from_be_bytes(addr);
        let mut node = 0usize;
        let mut best = self.nodes[0].next_hop;
        for i in 0..32 {
            let bit = ((a >> (31 - i)) & 1) as usize;
            match self.nodes[node].children[bit] {
                Some(c) => {
                    node = c as usize;
                    if let Some(nh) = self.nodes[node].next_hop {
                        best = Some(nh);
                    }
                }
                None => break,
            }
        }
        best
    }
}

/// Routing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RouteError {
    /// No route covers the destination.
    NoRoute,
    /// TTL expired.
    TtlExpired,
    /// The packet failed to parse.
    BadPacket,
    /// The queue engine rejected the packet.
    Queue(QueueError),
}

impl core::fmt::Display for RouteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RouteError::NoRoute => write!(f, "no matching route"),
            RouteError::TtlExpired => write!(f, "ttl expired"),
            RouteError::BadPacket => write!(f, "malformed packet"),
            RouteError::Queue(e) => write!(f, "queue error: {e}"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<QueueError> for RouteError {
    fn from(e: QueueError) -> Self {
        RouteError::Queue(e)
    }
}

/// An IP router with per-next-hop output queues.
///
/// # Example
///
/// ```
/// use npqm_traffic::apps::{Lpm, Router};
/// use npqm_traffic::packet::Ipv4Packet;
///
/// let mut lpm = Lpm::new();
/// lpm.insert([10, 0, 0, 0], 8, 1);
/// let mut router = Router::new(lpm, 4)?;
/// let pkt = Ipv4Packet {
///     src: [192, 168, 0, 1],
///     dst: [10, 1, 2, 3],
///     protocol: 17,
///     ttl: 64,
///     payload: vec![1, 2, 3],
/// };
/// router.route(&pkt.to_bytes())?;
/// let out = router.poll(1)?.expect("queued on next hop 1");
/// let parsed = Ipv4Packet::parse(&out)?; // checksum still valid
/// assert_eq!(parsed.ttl, 63);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Router {
    lpm: Lpm,
    engine: QueueManager,
    next_hops: u32,
    uplink: Box<dyn FlowScheduler>,
    routed: u64,
    dropped: u64,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("lpm", &self.lpm)
            .field("engine", &self.engine)
            .field("next_hops", &self.next_hops)
            .field("routed", &self.routed)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl Router {
    /// Creates a router with `next_hops` output queues.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidConfig`] on a zero next-hop count.
    pub fn new(lpm: Lpm, next_hops: u32) -> Result<Self, QueueError> {
        let cfg = QmConfig::builder()
            .num_flows(next_hops)
            .num_segments(16 * 1024)
            .segment_bytes(64)
            .build()?;
        Ok(Router {
            lpm,
            engine: QueueManager::new(cfg),
            next_hops,
            uplink: Box::new(StrictPriority::new(next_hops)),
            routed: 0,
            dropped: 0,
        })
    }

    /// Installs a [`FlowScheduler`] over the next-hop queues, turning them
    /// into per-customer classes drained through [`Router::poll_uplink`]
    /// (it replaces the default [`StrictPriority`]).
    pub fn set_uplink_scheduler(&mut self, sched: Box<dyn FlowScheduler>) {
        self.uplink = sched;
    }

    /// Builds an HTB class tree for the uplink: one leaf per next hop under
    /// a shared "uplink" root, each guaranteed `guarantees[nh]` of
    /// `capacity` and allowed to borrow up to the whole link.
    ///
    /// # Errors
    ///
    /// Propagates [`HtbError`] for malformed shares (e.g. zero capacity).
    ///
    /// # Panics
    ///
    /// Panics if `guarantees.len()` differs from the next-hop count.
    pub fn htb_uplink(&self, capacity: u64, guarantees: &[u64]) -> Result<HtbScheduler, HtbError> {
        assert_eq!(
            guarantees.len(),
            self.next_hops as usize,
            "one guarantee per next hop"
        );
        let mut tree =
            HtbTreeBuilder::new(capacity).class("uplink", None, HtbClass::rate(capacity));
        for (nh, &rate) in guarantees.iter().enumerate() {
            tree = tree.leaf(
                &format!("customer{nh}"),
                Some("uplink"),
                FlowId::new(nh as u32),
                HtbClass::rate(rate).ceil(capacity),
            );
        }
        tree.build()
    }

    /// Pops the next packet across *all* next hops, chosen by the uplink
    /// scheduler (by default [`StrictPriority`]: the lowest-numbered
    /// backlogged hop). Returns `(next_hop, packet)`.
    ///
    /// # Errors
    ///
    /// None today: a scheduler only picks a hop with a complete packet.
    pub fn poll_uplink(&mut self) -> Result<Option<(u32, Vec<u8>)>, RouteError> {
        let next = drain_next(&mut self.engine, &mut self.uplink);
        Ok(next.map(|(flow, pkt)| (flow.index(), pkt)))
    }

    /// Routes one packet: LPM, TTL decrement, incremental checksum patch,
    /// enqueue on the next hop's queue.
    ///
    /// # Errors
    ///
    /// [`RouteError::BadPacket`], [`RouteError::NoRoute`],
    /// [`RouteError::TtlExpired`] or a queue error.
    pub fn route(&mut self, packet: &[u8]) -> Result<u32, RouteError> {
        let parsed = Ipv4Packet::parse(packet).map_err(|_| RouteError::BadPacket)?;
        if parsed.ttl <= 1 {
            self.dropped += 1;
            return Err(RouteError::TtlExpired);
        }
        let nh = self.lpm.lookup(parsed.dst).ok_or_else(|| {
            self.dropped += 1;
            RouteError::NoRoute
        })?;
        debug_assert!(nh < self.next_hops, "route table references a bad hop");
        // Rewrite TTL and recompute the checksum (full recompute; hardware
        // would patch incrementally per RFC 1624 — same result).
        let mut out = packet.to_vec();
        out[8] -= 1;
        out[10] = 0;
        out[11] = 0;
        let csum = internet_checksum(&out[..20]);
        out[10..12].copy_from_slice(&csum.to_be_bytes());
        self.engine.enqueue_packet(FlowId::new(nh), &out)?;
        self.routed += 1;
        Ok(nh)
    }

    /// Pops the next packet queued for `next_hop`.
    ///
    /// # Errors
    ///
    /// Propagates unexpected engine errors.
    pub fn poll(&mut self, next_hop: u32) -> Result<Option<Vec<u8>>, RouteError> {
        let flow = FlowId::new(next_hop);
        if self.engine.complete_packets(flow) == 0 {
            return Ok(None);
        }
        Ok(Some(self.engine.dequeue_packet(flow)?))
    }

    /// `(routed, dropped)` counters.
    pub const fn counters(&self) -> (u64, u64) {
        (self.routed, self.dropped)
    }

    /// The underlying engine (for invariant checks in tests).
    pub const fn engine(&self) -> &QueueManager {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(dst: [u8; 4], ttl: u8) -> Vec<u8> {
        Ipv4Packet {
            src: [1, 1, 1, 1],
            dst,
            protocol: 6,
            ttl,
            payload: vec![0xEE; 30],
        }
        .to_bytes()
    }

    #[test]
    fn lpm_longest_match_wins() {
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 1);
        lpm.insert([10, 1, 0, 0], 16, 2);
        lpm.insert([10, 1, 2, 0], 24, 3);
        assert_eq!(lpm.lookup([10, 9, 9, 9]), Some(1));
        assert_eq!(lpm.lookup([10, 1, 9, 9]), Some(2));
        assert_eq!(lpm.lookup([10, 1, 2, 9]), Some(3));
        assert_eq!(lpm.lookup([11, 0, 0, 1]), None);
    }

    #[test]
    fn default_route() {
        let mut lpm = Lpm::new();
        lpm.insert([0, 0, 0, 0], 0, 9);
        lpm.insert([192, 168, 0, 0], 16, 1);
        assert_eq!(lpm.lookup([8, 8, 8, 8]), Some(9));
        assert_eq!(lpm.lookup([192, 168, 3, 4]), Some(1));
    }

    #[test]
    fn host_route() {
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 1);
        lpm.insert([10, 0, 0, 7], 32, 2);
        assert_eq!(lpm.lookup([10, 0, 0, 7]), Some(2));
        assert_eq!(lpm.lookup([10, 0, 0, 8]), Some(1));
    }

    #[test]
    fn route_rewrites_ttl_and_checksum() {
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 2);
        let mut r = Router::new(lpm, 4).unwrap();
        assert_eq!(r.route(&pkt([10, 5, 5, 5], 64)).unwrap(), 2);
        let out = r.poll(2).unwrap().unwrap();
        let parsed = Ipv4Packet::parse(&out).expect("checksum must verify");
        assert_eq!(parsed.ttl, 63);
        assert_eq!(r.counters(), (1, 0));
        r.engine().verify().unwrap();
    }

    #[test]
    fn ttl_expiry_and_no_route() {
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 0);
        let mut r = Router::new(lpm, 1).unwrap();
        assert_eq!(r.route(&pkt([10, 0, 0, 1], 1)), Err(RouteError::TtlExpired));
        assert_eq!(r.route(&pkt([44, 0, 0, 1], 9)), Err(RouteError::NoRoute));
        assert_eq!(r.route(&[0u8; 5]), Err(RouteError::BadPacket));
        assert_eq!(r.counters(), (0, 2));
        assert!(r.poll(0).unwrap().is_none());
    }

    #[test]
    fn per_hop_queues_are_fifo() {
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 0);
        lpm.insert([20, 0, 0, 0], 8, 1);
        let mut r = Router::new(lpm, 2).unwrap();
        r.route(&pkt([10, 0, 0, 1], 10)).unwrap();
        r.route(&pkt([20, 0, 0, 1], 10)).unwrap();
        r.route(&pkt([10, 0, 0, 2], 10)).unwrap();
        let a = Ipv4Packet::parse(&r.poll(0).unwrap().unwrap()).unwrap();
        let b = Ipv4Packet::parse(&r.poll(0).unwrap().unwrap()).unwrap();
        assert_eq!(a.dst, [10, 0, 0, 1]);
        assert_eq!(b.dst, [10, 0, 0, 2]);
        assert!(r.poll(0).unwrap().is_none());
        assert!(r.poll(1).unwrap().is_some());
    }

    #[test]
    fn htb_uplink_serves_customers_by_guarantee() {
        let big = |dst| {
            Ipv4Packet {
                src: [1, 1, 1, 1],
                dst,
                protocol: 6,
                ttl: 10,
                payload: vec![0xEE; 1380], // MTU-sized so bursts deplete
            }
            .to_bytes()
        };
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 0);
        lpm.insert([20, 0, 0, 0], 8, 1);
        let mut r = Router::new(lpm, 2).unwrap();
        let tree = r.htb_uplink(1000, &[750, 250]).unwrap();
        r.set_uplink_scheduler(Box::new(tree));
        for _ in 0..300 {
            r.route(&big([10, 0, 0, 1])).unwrap();
            r.route(&big([20, 0, 0, 1])).unwrap();
        }
        // Warm up past the initial token bursts, then measure steady state.
        for _ in 0..100 {
            r.poll_uplink().unwrap().unwrap();
        }
        let mut served = [0u32; 2];
        for _ in 0..200 {
            let (nh, _) = r.poll_uplink().unwrap().unwrap();
            served[nh as usize] += 1;
        }
        // Equal packet sizes, so service counts track the 3:1 guarantees.
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((2.4..3.6).contains(&ratio), "ratio {ratio} ({served:?})");
        // Work conservation: every remaining packet still drains.
        let mut remaining = 0;
        while r.poll_uplink().unwrap().is_some() {
            remaining += 1;
        }
        assert_eq!(remaining, 600 - 300);
        r.engine().verify().unwrap();
    }

    #[test]
    fn poll_uplink_without_scheduler_drains_in_hop_order() {
        let mut lpm = Lpm::new();
        lpm.insert([10, 0, 0, 0], 8, 1);
        let mut r = Router::new(lpm, 2).unwrap();
        assert!(r.poll_uplink().unwrap().is_none());
        r.route(&pkt([10, 0, 0, 1], 10)).unwrap();
        assert_eq!(r.poll_uplink().unwrap().unwrap().0, 1);
        assert!(r.poll_uplink().unwrap().is_none());
    }
}
