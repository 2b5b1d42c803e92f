//! 802.1p/802.1Q-aware Ethernet switching over per-flow queues.
//!
//! Each output port owns eight class-of-service queues (the 802.1p
//! priorities); by default the egress scheduler serves them in strict
//! priority. A port can instead be turned into a **multi-tenant trunk**
//! with [`QosSwitch::set_port_scheduler`]: any [`FlowScheduler`] over
//! that port's class flows — typically an HTB tree from
//! [`QosSwitch::htb_trunk`] giving each class a guaranteed share of the
//! trunk, a ceiling and borrowing — decides which class transmits. The
//! MAC table is learned from source addresses, as in any L2 switch.

use crate::packet::{EthernetFrame, MacAddr};
use npqm_core::sched::{FlowScheduler, HtbClass, HtbError, HtbScheduler, HtbTreeBuilder};
use npqm_core::{QmConfig, QueueError, QueueManager};
use std::collections::HashMap;

/// Number of 802.1p traffic classes.
pub const NUM_CLASSES: u32 = 8;

/// A QoS-aware learning switch.
///
/// # Example
///
/// ```
/// use npqm_traffic::apps::QosSwitch;
/// use npqm_traffic::packet::{EthernetFrame, MacAddr, VlanTag};
///
/// let mut sw = QosSwitch::new(4)?;
/// let frame = EthernetFrame {
///     dst: MacAddr([0xFF; 6]), // unknown: floods to all other ports
///     src: MacAddr([1; 6]),
///     vlan: Some(VlanTag { pcp: 6, vid: 10 }),
///     ethertype: 0x0800,
///     payload: vec![0; 46],
/// };
/// sw.rx(0, &frame.to_bytes())?;
/// assert!(sw.tx(1)?.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct QosSwitch {
    engine: QueueManager,
    mac_table: HashMap<MacAddr, u32>,
    ports: u32,
    /// Per-port egress discipline; ports without an entry use the legacy
    /// strict 802.1p order.
    port_sched: HashMap<u32, Box<dyn FlowScheduler>>,
    flooded: u64,
    forwarded: u64,
    dropped: u64,
}

impl std::fmt::Debug for QosSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QosSwitch")
            .field("ports", &self.ports)
            .field("mac_table", &self.mac_table)
            .field(
                "scheduled_ports",
                &self.port_sched.keys().collect::<Vec<_>>(),
            )
            .field("flooded", &self.flooded)
            .field("forwarded", &self.forwarded)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl QosSwitch {
    /// Creates a switch with `ports` ports.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::InvalidConfig`] if `ports` is zero.
    pub fn new(ports: u32) -> Result<Self, QueueError> {
        let cfg = QmConfig::builder()
            .num_flows(ports.max(1) * NUM_CLASSES)
            .num_segments(16 * 1024)
            .segment_bytes(64)
            .build()?;
        if ports == 0 {
            return Err(QueueError::InvalidConfig {
                what: "switch needs at least one port",
            });
        }
        Ok(QosSwitch {
            engine: QueueManager::new(cfg),
            mac_table: HashMap::new(),
            ports,
            port_sched: HashMap::new(),
            flooded: 0,
            forwarded: 0,
            dropped: 0,
        })
    }

    /// Installs an egress discipline on `port`, replacing the default
    /// strict 802.1p order. The scheduler must cover (only) this port's
    /// eight class flows — [`QosSwitch::htb_trunk`] builds a suitable
    /// HTB tree.
    pub fn set_port_scheduler(&mut self, port: u32, sched: Box<dyn FlowScheduler>) {
        self.port_sched.insert(port, sched);
    }

    /// Builds the multi-tenant trunk tree for `port`: one HTB leaf per
    /// 802.1p class under a full-rate trunk class, with
    /// `guarantees[class]` as each class's assured share of `capacity`
    /// and a ceiling of the whole trunk (idle guarantees are borrowed,
    /// never wasted). Higher 802.1p classes get higher HTB priority for
    /// their guaranteed traffic.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`HtbError`] for invalid shares (e.g. a
    /// guarantee above `capacity`).
    pub fn htb_trunk(
        &self,
        port: u32,
        capacity: u64,
        guarantees: [u64; NUM_CLASSES as usize],
    ) -> Result<HtbScheduler, HtbError> {
        let mut tree = HtbTreeBuilder::new(capacity).class("trunk", None, HtbClass::rate(capacity));
        for (class, &rate) in guarantees.iter().enumerate() {
            let class = class as u32;
            // 802.1p class 7 is the most urgent -> HTB priority 0.
            let prio = (NUM_CLASSES - 1 - class) as u8;
            tree = tree.leaf(
                &format!("class{class}"),
                Some("trunk"),
                self.flow(port, class),
                HtbClass::rate(rate).ceil(capacity).priority(prio),
            );
        }
        tree.build()
    }

    /// The flow id of `(port, class)`.
    fn flow(&self, port: u32, class: u32) -> npqm_core::FlowId {
        npqm_core::FlowId::new(port * NUM_CLASSES + class)
    }

    /// Receives a frame on `in_port`: learns the source, classifies by the
    /// 802.1p priority, and enqueues on the destination port's class queue
    /// (flooding when the destination is unknown).
    ///
    /// # Errors
    ///
    /// Propagates codec errors as `InvalidConfig` is not applicable here;
    /// queue-full conditions surface as [`QueueError::OutOfSegments`].
    pub fn rx(&mut self, in_port: u32, frame_bytes: &[u8]) -> Result<(), QueueError> {
        let frame = EthernetFrame::parse(frame_bytes).map_err(|_| QueueError::EmptyPayload)?;
        self.mac_table.insert(frame.src, in_port);
        let class = frame.vlan.map_or(0, |t| t.pcp as u32);
        match self.mac_table.get(&frame.dst) {
            Some(&out) if out != in_port => {
                match self
                    .engine
                    .enqueue_packet(self.flow(out, class), frame_bytes)
                {
                    Ok(()) => self.forwarded += 1,
                    Err(QueueError::OutOfSegments) => self.dropped += 1,
                    Err(e) => return Err(e),
                }
            }
            Some(_) => self.dropped += 1, // destination on the ingress port
            None => {
                // Unknown destination: flood to every other port.
                for out in 0..self.ports {
                    if out == in_port {
                        continue;
                    }
                    match self
                        .engine
                        .enqueue_packet(self.flow(out, class), frame_bytes)
                    {
                        Ok(()) => {}
                        Err(QueueError::OutOfSegments) => {
                            self.dropped += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
                self.flooded += 1;
            }
        }
        Ok(())
    }

    /// Transmits the next frame from `port`: through the installed
    /// [`FlowScheduler`] if one is set (see
    /// [`set_port_scheduler`](Self::set_port_scheduler)), otherwise in
    /// strict 802.1p priority order (class 7 first). Returns `None` when
    /// the port is idle.
    ///
    /// # Errors
    ///
    /// Propagates unexpected engine errors.
    pub fn tx(&mut self, port: u32) -> Result<Option<Vec<u8>>, QueueError> {
        if let Some(sched) = self.port_sched.get_mut(&port) {
            let Some(flow) = sched.next_flow(&self.engine) else {
                return Ok(None);
            };
            let pkt = self.engine.dequeue_packet(flow)?;
            sched.served(flow, pkt.len());
            return Ok(Some(pkt));
        }
        for class in (0..NUM_CLASSES).rev() {
            let flow = self.flow(port, class);
            if self.engine.complete_packets(flow) > 0 {
                return self.engine.dequeue_packet(flow).map(Some);
            }
        }
        Ok(None)
    }

    /// Frames queued on `port` across all classes.
    pub fn backlog(&self, port: u32) -> u32 {
        (0..NUM_CLASSES)
            .map(|c| self.engine.queue_len_packets(self.flow(port, c)))
            .sum()
    }

    /// `(forwarded, flooded, dropped)` counters.
    pub const fn counters(&self) -> (u64, u64, u64) {
        (self.forwarded, self.flooded, self.dropped)
    }

    /// The underlying engine (for invariant checks in tests).
    pub const fn engine(&self) -> &QueueManager {
        &self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::VlanTag;

    fn frame(dst: u8, src: u8, pcp: u8, tag: bool) -> Vec<u8> {
        EthernetFrame {
            dst: MacAddr([dst; 6]),
            src: MacAddr([src; 6]),
            vlan: tag.then_some(VlanTag { pcp, vid: 1 }),
            ethertype: 0x0800,
            payload: vec![src; 50],
        }
        .to_bytes()
    }

    #[test]
    fn learns_and_forwards() {
        let mut sw = QosSwitch::new(4).unwrap();
        // A talks on port 0, B on port 2; first B->A floods, then A->B is
        // directed.
        sw.rx(2, &frame(0xAA, 0xBB, 0, false)).unwrap(); // B -> unknown A: flood
        sw.rx(0, &frame(0xBB, 0xAA, 0, false)).unwrap(); // A -> known B
        assert_eq!(sw.backlog(2), 1, "directed frame queued on B's port");
        let out = sw.tx(2).unwrap().unwrap();
        let parsed = EthernetFrame::parse(&out).unwrap();
        assert_eq!(parsed.dst, MacAddr([0xBB; 6]));
        let (forwarded, flooded, _) = sw.counters();
        assert_eq!((forwarded, flooded), (1, 1));
        sw.engine().verify().unwrap();
    }

    #[test]
    fn strict_priority_serves_high_class_first() {
        let mut sw = QosSwitch::new(2).unwrap();
        // Teach the switch where 0xAA lives (port 1).
        sw.rx(1, &frame(0x01, 0xAA, 0, false)).unwrap();
        // Low-priority then high-priority frame toward 0xAA.
        sw.rx(0, &frame(0xAA, 0x02, 1, true)).unwrap();
        sw.rx(0, &frame(0xAA, 0x03, 7, true)).unwrap();
        let first = sw.tx(1).unwrap().unwrap();
        let parsed = EthernetFrame::parse(&first).unwrap();
        assert_eq!(parsed.vlan.unwrap().pcp, 7, "class 7 must go first");
        let second = sw.tx(1).unwrap().unwrap();
        assert_eq!(EthernetFrame::parse(&second).unwrap().vlan.unwrap().pcp, 1);
        assert!(sw.tx(1).unwrap().is_none());
    }

    #[test]
    fn flood_reaches_all_other_ports() {
        let mut sw = QosSwitch::new(4).unwrap();
        sw.rx(0, &frame(0xEE, 0x01, 0, false)).unwrap();
        assert_eq!(sw.backlog(0), 0, "never back out the ingress port");
        for port in 1..4 {
            assert_eq!(sw.backlog(port), 1, "port {port}");
        }
    }

    #[test]
    fn hairpin_is_dropped() {
        let mut sw = QosSwitch::new(2).unwrap();
        sw.rx(0, &frame(0x01, 0xAA, 0, false)).unwrap(); // learn AA @ 0
        sw.rx(0, &frame(0xAA, 0xBB, 0, false)).unwrap(); // to AA, from port 0
        let (_, _, dropped) = sw.counters();
        assert_eq!(dropped, 1);
        assert_eq!(sw.backlog(0), 0);
    }

    #[test]
    fn zero_ports_rejected() {
        assert!(QosSwitch::new(0).is_err());
    }

    #[test]
    fn htb_trunk_guarantees_share_under_overload() {
        let mut sw = QosSwitch::new(2).unwrap();
        // Two tenant classes on the trunk: class 1 guaranteed 25%,
        // class 5 guaranteed 75%, both allowed up to the whole trunk.
        let mut guarantees = [0u64; NUM_CLASSES as usize];
        guarantees[1] = 250;
        guarantees[5] = 750;
        let tree = sw.htb_trunk(1, 1000, guarantees).unwrap();
        sw.set_port_scheduler(1, Box::new(tree));
        sw.rx(1, &frame(0x01, 0xAA, 0, false)).unwrap(); // learn AA @ 1
        for _ in 0..60 {
            sw.rx(0, &frame(0xAA, 0x02, 1, true)).unwrap();
            sw.rx(0, &frame(0xAA, 0x03, 5, true)).unwrap();
        }
        let mut served = [0u32; NUM_CLASSES as usize];
        for _ in 0..80 {
            let out = sw.tx(1).unwrap().unwrap();
            let pcp = EthernetFrame::parse(&out).unwrap().vlan.unwrap().pcp;
            served[pcp as usize] += 1;
        }
        // Equal frame sizes, so service counts track the 3:1 shares.
        let ratio = served[5] as f64 / served[1] as f64;
        assert!((2.2..3.8).contains(&ratio), "ratio {ratio} ({served:?})");
        // Once class 5 drains, class 1 borrows the whole trunk.
        while sw.tx(1).unwrap().is_some() {}
        assert_eq!(sw.backlog(1), 0, "work conservation on the trunk");
        sw.engine().verify().unwrap();
    }
}
