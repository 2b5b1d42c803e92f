//! Hierarchical token bucket (HTB) egress scheduling.
//!
//! The paper's engine keeps one queue per flow so that egress can enforce
//! QoS; this module supplies the class-tree discipline every production
//! deployment of such an engine actually runs: per-class **guaranteed
//! rate**, **ceil** (max) rate, **burst** size, **priority**, and
//! **borrowing** of idle guaranteed bandwidth from ancestors — the
//! MikroTik/`tc` queue-tree surface — with deficit round robin among
//! same-priority siblings (the smart-NIC weighted-credit inner loop).
//!
//! # The byte clock
//!
//! The scheduler sees no wall clock: the closed-loop pipelines pace time
//! by egress serialisation, and [`FlowScheduler::served`] is the only
//! signal. HTB therefore runs on a **byte clock**: every served byte
//! (from *any* flow) advances virtual time, refilling each class's token
//! bucket by `bytes × rate`, while the serving class's chain is charged
//! `bytes × capacity`. A class is within its guaranteed share over a
//! window exactly when `own_bytes / total_bytes ≤ rate / capacity`, so
//! `rate` is a share of the abstract link `capacity` in whatever unit you
//! choose. Ledgers are exact integers (scaled by `capacity`); no float
//! drift, so parallel-shard replays stay byte-identical.
//!
//! # Three-tier selection
//!
//! The closed loops re-arm service only on arrival/tx-done events, so a
//! scheduler that answers `None` while backlog exists would strand
//! packets and break byte conservation. `next_flow` therefore never
//! refuses work, however small a leaf's quantum (a DRR round that fits
//! nobody skips to the round that fits someone); it only orders it. The
//! test-only model predicts every pick of every `from_spec` tree,
//! `None` included (`model::engine_matches_the_model`), and the corpus
//! script `drr_small_quantum_never_idles_over_backlog` holds quantum-1
//! leaves to it:
//!
//! 1. **green** — leaves within their own guaranteed rate (and the whole
//!    chain within ceil), highest priority class first, DRR among equals;
//! 2. **borrow** — leaves whose chain is within ceil and some ancestor
//!    has guaranteed tokens to lend (idle guaranteed bandwidth is
//!    borrowed, never wasted);
//! 3. **over-ceil** — any backlogged leaf, so the link never idles. The
//!    [`HtbStats::over_ceil_packets`] counter exposes how often this
//!    safety valve fired.
//!
//! A degenerate tree — one always-green leaf per flow under a single
//! root — reduces tier 1 to plain DRR over the leaves and is
//! `state_digest`-identical to the flat [`DeficitRoundRobin`] on any
//! trace (see [`HtbScheduler::single_root`]).
//!
//! # Example
//!
//! ```
//! use npqm_core::sched::{drain_next, FlowScheduler, HtbClass, HtbTreeBuilder};
//! use npqm_core::{FlowId, QmConfig, QueueManager};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-tenant trunk: both guaranteed 40% of the link, both allowed to
//! // borrow up to the full link when the other is idle.
//! let mut sched = HtbTreeBuilder::new(1000)
//!     .class("trunk", None, HtbClass::rate(1000))
//!     .leaf("tenant-a", Some("trunk"), FlowId::new(0), HtbClass::rate(400).ceil(1000))
//!     .leaf("tenant-b", Some("trunk"), FlowId::new(1), HtbClass::rate(400).ceil(1000))
//!     .build()?;
//!
//! let mut qm = QueueManager::new(QmConfig::small());
//! qm.enqueue_packet(FlowId::new(1), &[0; 64])?;
//! // Tenant A is idle, so B borrows the whole link.
//! let (flow, _) = drain_next(&mut qm, &mut sched).unwrap();
//! assert_eq!(flow, FlowId::new(1));
//! # Ok(())
//! # }
//! ```

use super::{every_slot, DrrCore, FlowScheduler};
use crate::id::FlowId;
use crate::manager::QueueManager;
use std::collections::HashMap;
use std::fmt;

#[cfg(doc)]
use super::DeficitRoundRobin;

/// Default burst allowance: ten full-size Ethernet frames of headroom.
pub const DEFAULT_BURST_BYTES: u64 = 10 * 1518;

/// Default DRR quantum among siblings: one full-size Ethernet frame.
pub const DEFAULT_QUANTUM: u32 = 1518;

/// Default priority (0 = served first, 7 = last).
pub const DEFAULT_PRIORITY: u8 = 4;

/// Number of priority levels (`0..NUM_PRIORITIES`).
pub const NUM_PRIORITIES: u8 = 8;

/// The deepest token bucket, `burst × capacity`: half the `i128` range, so
/// that [`FlowScheduler::served`] adding one packet's earnings (`bytes ×
/// rate`, below 2^32 × 2^64 = 2^96) to a full bucket cannot overflow.
const MAX_BUCKET: i128 = i128::MAX / 2;

/// Per-class configuration for [`HtbTreeBuilder`].
///
/// `rate` is the guaranteed share of the link `capacity` (same units);
/// `ceil` defaults to `rate` (no borrowing above the guarantee unless
/// raised), `burst` to [`DEFAULT_BURST_BYTES`], `priority` to
/// [`DEFAULT_PRIORITY`] and `quantum` to [`DEFAULT_QUANTUM`].
#[derive(Debug, Clone, Copy)]
pub struct HtbClass {
    rate: u64,
    ceil: Option<u64>,
    burst_bytes: u64,
    priority: u8,
    quantum: u32,
}

impl HtbClass {
    /// Starts a class config with the given guaranteed rate.
    pub fn rate(rate: u64) -> Self {
        HtbClass {
            rate,
            ceil: None,
            burst_bytes: DEFAULT_BURST_BYTES,
            priority: DEFAULT_PRIORITY,
            quantum: DEFAULT_QUANTUM,
        }
    }

    /// Sets the ceiling (maximum) rate; must be `>= rate`.
    pub fn ceil(mut self, ceil: u64) -> Self {
        self.ceil = Some(ceil);
        self
    }

    /// Sets the burst allowance in bytes (token bucket depth).
    pub fn burst(mut self, bytes: u64) -> Self {
        self.burst_bytes = bytes;
        self
    }

    /// Sets the priority (`0` = served first; `< 8`).
    pub fn priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the DRR quantum in bytes used among same-priority siblings.
    pub fn quantum(mut self, quantum: u32) -> Self {
        self.quantum = quantum;
        self
    }

    fn effective_ceil(&self) -> u64 {
        self.ceil.unwrap_or(self.rate)
    }
}

/// Tree-construction error from [`HtbTreeBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtbError {
    /// The link capacity was zero.
    ZeroCapacity,
    /// Two classes share a name.
    DuplicateClass(String),
    /// A class names a parent that was not declared before it.
    UnknownParent {
        /// The class whose parent is missing.
        class: String,
        /// The missing parent name.
        parent: String,
    },
    /// A class is parented under a leaf.
    ParentIsLeaf {
        /// The offending class.
        class: String,
        /// The leaf named as parent.
        parent: String,
    },
    /// `ceil < rate` for a class.
    CeilBelowRate(String),
    /// Priority outside `0..8`.
    BadPriority(String),
    /// A class with a zero quantum.
    ZeroQuantum(String),
    /// A class with a zero burst.
    ZeroBurst(String),
    /// A class whose `burst × capacity` is too deep for the token
    /// arithmetic (2^126 or more).
    BurstTooLarge(String),
    /// Two leaves claim the same flow.
    DuplicateFlow(u32),
    /// The tree has no leaves, so nothing could ever be scheduled.
    NoLeaves,
}

impl fmt::Display for HtbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HtbError::ZeroCapacity => write!(f, "link capacity must be non-zero"),
            HtbError::DuplicateClass(name) => write!(f, "duplicate class name {name:?}"),
            HtbError::UnknownParent { class, parent } => write!(
                f,
                "class {class:?} names parent {parent:?}, which was not declared before it"
            ),
            HtbError::ParentIsLeaf { class, parent } => {
                write!(f, "class {class:?} is parented under leaf {parent:?}")
            }
            HtbError::CeilBelowRate(name) => write!(f, "class {name:?} has ceil < rate"),
            HtbError::BadPriority(name) => {
                write!(f, "class {name:?} has priority outside 0..{NUM_PRIORITIES}")
            }
            HtbError::ZeroQuantum(name) => write!(f, "class {name:?} has a zero quantum"),
            HtbError::ZeroBurst(name) => write!(f, "class {name:?} has a zero burst"),
            HtbError::BurstTooLarge(name) => {
                write!(
                    f,
                    "class {name:?} has a burst too large for the link capacity"
                )
            }
            HtbError::DuplicateFlow(flow) => {
                write!(f, "flow {flow} is claimed by more than one leaf")
            }
            HtbError::NoLeaves => write!(f, "the tree has no leaves"),
        }
    }
}

impl std::error::Error for HtbError {}

struct Entry {
    name: String,
    parent: Option<String>,
    flow: Option<FlowId>,
    cfg: HtbClass,
}

/// Builds an [`HtbScheduler`] class by class.
///
/// Parents must be declared before their children (this also rules out
/// cycles); classes with no parent hang directly off the link. Leaves
/// own exactly one flow each; inner classes own none.
pub struct HtbTreeBuilder {
    capacity: u64,
    entries: Vec<Entry>,
}

impl HtbTreeBuilder {
    /// Starts a tree over a link of the given abstract capacity (the
    /// unit all class rates are expressed in).
    pub fn new(capacity: u64) -> Self {
        HtbTreeBuilder {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Adds an inner class under `parent` (or directly under the link).
    #[must_use]
    pub fn class(mut self, name: &str, parent: Option<&str>, cfg: HtbClass) -> Self {
        self.entries.push(Entry {
            name: name.to_string(),
            parent: parent.map(str::to_string),
            flow: None,
            cfg,
        });
        self
    }

    /// Adds a leaf class owning `flow` under `parent` (or the link).
    #[must_use]
    pub fn leaf(mut self, name: &str, parent: Option<&str>, flow: FlowId, cfg: HtbClass) -> Self {
        self.entries.push(Entry {
            name: name.to_string(),
            parent: parent.map(str::to_string),
            flow: Some(flow),
            cfg,
        });
        self
    }

    /// Adds one leaf per flow in `flows`, each with the same per-leaf
    /// `cfg` (the rate is **per leaf**, not divided), named
    /// `"flow{n}"`.
    #[must_use]
    pub fn leaves(
        mut self,
        parent: Option<&str>,
        flows: std::ops::Range<u32>,
        cfg: HtbClass,
    ) -> Self {
        for n in flows {
            self = self.leaf(&format!("flow{n}"), parent, FlowId::new(n), cfg);
        }
        self
    }

    /// Validates the tree and freezes it into a scheduler.
    pub fn build(self) -> Result<HtbScheduler, HtbError> {
        if self.capacity == 0 {
            return Err(HtbError::ZeroCapacity);
        }
        let cap = i128::from(self.capacity);
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut nodes: Vec<Node> = Vec::with_capacity(self.entries.len());
        let mut leaves: Vec<LeafRef> = Vec::new();
        let mut slot_of_flow: HashMap<u32, usize> = HashMap::new();
        for entry in &self.entries {
            let cfg = &entry.cfg;
            if index.contains_key(&entry.name) {
                return Err(HtbError::DuplicateClass(entry.name.clone()));
            }
            if cfg.effective_ceil() < cfg.rate {
                return Err(HtbError::CeilBelowRate(entry.name.clone()));
            }
            if cfg.priority >= NUM_PRIORITIES {
                return Err(HtbError::BadPriority(entry.name.clone()));
            }
            if cfg.quantum == 0 {
                return Err(HtbError::ZeroQuantum(entry.name.clone()));
            }
            if cfg.burst_bytes == 0 {
                return Err(HtbError::ZeroBurst(entry.name.clone()));
            }
            let burst_scaled = i128::from(cfg.burst_bytes)
                .checked_mul(cap)
                .filter(|&scaled| scaled <= MAX_BUCKET)
                .ok_or_else(|| HtbError::BurstTooLarge(entry.name.clone()))?;
            let parent = match &entry.parent {
                None => None,
                Some(p) => {
                    let &pi = index.get(p).ok_or_else(|| HtbError::UnknownParent {
                        class: entry.name.clone(),
                        parent: p.clone(),
                    })?;
                    if nodes[pi].flow.is_some() {
                        return Err(HtbError::ParentIsLeaf {
                            class: entry.name.clone(),
                            parent: p.clone(),
                        });
                    }
                    Some(pi)
                }
            };
            let node_idx = nodes.len();
            nodes.push(Node {
                parent,
                rate: cfg.rate as i128,
                ceil: cfg.effective_ceil() as i128,
                burst_scaled,
                tokens: burst_scaled,
                ctokens: burst_scaled,
                flow: entry.flow,
            });
            index.insert(entry.name.clone(), node_idx);
            if let Some(flow) = entry.flow {
                if slot_of_flow.insert(flow.index(), leaves.len()).is_some() {
                    return Err(HtbError::DuplicateFlow(flow.index()));
                }
                leaves.push(LeafRef {
                    node: node_idx,
                    flow,
                    priority: cfg.priority,
                    quantum: cfg.quantum,
                });
            }
        }
        if leaves.is_empty() {
            return Err(HtbError::NoLeaves);
        }
        // One DRR round per (tier, priority level) over all leaf slots;
        // the head closure gates eligibility per tier, so levels with no
        // eligible leaf cost one skipped pass.
        let mut prio_levels: Vec<u8> = leaves.iter().map(|l| l.priority).collect();
        prio_levels.sort_unstable();
        prio_levels.dedup();
        let quanta: Vec<u32> = leaves.iter().map(|l| l.quantum).collect();
        let cores = vec![DrrCore::new(quanta); TIERS * prio_levels.len()];
        Ok(HtbScheduler {
            capacity: cap,
            nodes,
            leaves,
            slot_of_flow,
            prio_levels,
            cores,
            last_pick: None,
            stats: HtbStats::default(),
        })
    }
}

#[derive(Debug, Clone)]
struct Node {
    parent: Option<usize>,
    rate: i128,
    ceil: i128,
    burst_scaled: i128,
    /// Guaranteed-rate bucket, scaled by `capacity`.
    tokens: i128,
    /// Ceil-rate bucket, scaled by `capacity`.
    ctokens: i128,
    flow: Option<FlowId>,
}

#[derive(Debug, Clone)]
struct LeafRef {
    node: usize,
    flow: FlowId,
    priority: u8,
    quantum: u32,
}

const TIER_GREEN: usize = 0;
const TIER_BORROW: usize = 1;
const TIER_OVER_CEIL: usize = 2;
const TIERS: usize = 3;

/// Service-tier counters kept by [`HtbScheduler`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HtbStats {
    /// Packets served within the leaf's own guaranteed rate.
    pub green_packets: u64,
    /// Packets served by borrowing an ancestor's idle guaranteed tokens.
    pub borrowed_packets: u64,
    /// Packets served past every ceiling purely to keep the link busy.
    pub over_ceil_packets: u64,
}

/// A hierarchical token bucket over the engine's flows; see the
/// [module docs](self) for the discipline.
///
/// `Clone` is cheap and yields an independent replica with the same tree
/// and freshly equal ledgers, which is how per-shard pipelines get one
/// scheduler each.
#[derive(Debug, Clone)]
pub struct HtbScheduler {
    capacity: i128,
    nodes: Vec<Node>,
    leaves: Vec<LeafRef>,
    slot_of_flow: HashMap<u32, usize>,
    prio_levels: Vec<u8>,
    cores: Vec<DrrCore>,
    last_pick: Option<(usize, usize)>,
    stats: HtbStats,
}

impl HtbScheduler {
    /// The flat-DRR-equivalent tree: a single root at full link rate
    /// with one always-green leaf per flow (`rate = ceil = capacity`,
    /// equal `quantum`). Selection is provably identical to
    /// `DeficitRoundRobin::new(vec![quantum; flows])` on any trace.
    ///
    /// # Panics
    ///
    /// Panics if `flows` or `quantum` is zero.
    pub fn single_root(flows: u32, quantum: u32) -> Self {
        let full = HtbClass::rate(1000).quantum(quantum);
        HtbTreeBuilder::new(1000)
            .class("root", None, full)
            .leaves(Some("root"), 0..flows, full)
            .build()
            .expect("single-root tree is always valid")
    }

    /// Tier counters (green / borrowed / over-ceil serves).
    pub fn stats(&self) -> &HtbStats {
        &self.stats
    }

    fn within_ceil(nodes: &[Node], mut idx: usize) -> bool {
        loop {
            if nodes[idx].ctokens < 0 {
                return false;
            }
            match nodes[idx].parent {
                Some(p) => idx = p,
                None => return true,
            }
        }
    }

    fn eligible(nodes: &[Node], leaf_node: usize, tier: usize) -> bool {
        match tier {
            TIER_GREEN => nodes[leaf_node].tokens >= 0 && Self::within_ceil(nodes, leaf_node),
            TIER_BORROW => {
                if !Self::within_ceil(nodes, leaf_node) {
                    return false;
                }
                let mut idx = nodes[leaf_node].parent;
                while let Some(i) = idx {
                    if nodes[i].tokens >= 0 {
                        return true;
                    }
                    idx = nodes[i].parent;
                }
                false
            }
            _ => true,
        }
    }

    fn tier_of(&self, leaf_node: usize) -> usize {
        if Self::eligible(&self.nodes, leaf_node, TIER_GREEN) {
            TIER_GREEN
        } else if Self::eligible(&self.nodes, leaf_node, TIER_BORROW) {
            TIER_BORROW
        } else {
            TIER_OVER_CEIL
        }
    }
}

impl FlowScheduler for HtbScheduler {
    fn next_flow(&mut self, qm: &QueueManager) -> Option<FlowId> {
        let HtbScheduler {
            ref nodes,
            ref leaves,
            ref prio_levels,
            ref mut cores,
            ..
        } = *self;
        let nprio = prio_levels.len();
        for tier in 0..TIERS {
            for (p, &prio) in prio_levels.iter().enumerate() {
                let head = |slot: usize| {
                    let leaf = &leaves[slot];
                    if leaf.priority != prio || qm.complete_packets(leaf.flow) == 0 {
                        return None;
                    }
                    if !Self::eligible(nodes, leaf.node, tier) {
                        return None;
                    }
                    Some(qm.head_packet_bytes(leaf.flow).unwrap_or(0))
                };
                let empty = |slot: usize| qm.complete_packets(leaves[slot].flow) == 0;
                if let Some(slot) = cores[tier * nprio + p].next(every_slot, head, empty) {
                    self.last_pick = Some((slot, tier * nprio + p));
                    return Some(self.leaves[slot].flow);
                }
            }
        }
        None
    }

    fn served(&mut self, flow: FlowId, bytes: usize) {
        let &slot = self
            .slot_of_flow
            .get(&flow.index())
            .expect("served() called for a flow with no HTB leaf");
        let leaf_node = self.leaves[slot].node;
        // Attribute the serve to the (tier, priority) round that picked
        // it; if the caller skipped next_flow, recompute from ledgers.
        let core_idx = match self.last_pick.take() {
            Some((s, core_idx)) if s == slot => core_idx,
            _ => {
                let tier = self.tier_of(leaf_node);
                let p = self
                    .prio_levels
                    .iter()
                    .position(|&pr| pr == self.leaves[slot].priority)
                    .expect("leaf priority is always a known level");
                tier * self.prio_levels.len() + p
            }
        };
        let nprio = self.prio_levels.len();
        match core_idx / nprio {
            TIER_GREEN => self.stats.green_packets += 1,
            TIER_BORROW => self.stats.borrowed_packets += 1,
            _ => self.stats.over_ceil_packets += 1,
        }
        self.cores[core_idx].served(slot, bytes);
        // Byte clock tick: every class earns tokens for the bytes the
        // link just carried, capped at its burst depth.
        let b = bytes as i128;
        for node in &mut self.nodes {
            node.tokens = (node.tokens + b * node.rate).min(node.burst_scaled);
            node.ctokens = (node.ctokens + b * node.ceil).min(node.burst_scaled);
        }
        // The serving chain pays for the bytes at full link rate.
        let mut idx = Some(leaf_node);
        while let Some(i) = idx {
            let node = &mut self.nodes[i];
            node.tokens -= b * self.capacity;
            node.ctokens -= b * self.capacity;
            idx = node.parent;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;
    use crate::sched::drain_next;

    fn engine() -> QueueManager {
        QueueManager::new(QmConfig::small())
    }

    #[test]
    fn builder_rejects_malformed_trees() {
        let err = HtbTreeBuilder::new(0).build().unwrap_err();
        assert_eq!(err, HtbError::ZeroCapacity);

        let err = HtbTreeBuilder::new(100)
            .leaf("a", Some("missing"), FlowId::new(0), HtbClass::rate(10))
            .build()
            .unwrap_err();
        assert!(matches!(err, HtbError::UnknownParent { .. }));

        let err = HtbTreeBuilder::new(100)
            .leaf("a", None, FlowId::new(0), HtbClass::rate(10))
            .leaf("b", Some("a"), FlowId::new(1), HtbClass::rate(10))
            .build()
            .unwrap_err();
        assert!(matches!(err, HtbError::ParentIsLeaf { .. }));

        let err = HtbTreeBuilder::new(100)
            .leaf("a", None, FlowId::new(0), HtbClass::rate(10).ceil(5))
            .build()
            .unwrap_err();
        assert_eq!(err, HtbError::CeilBelowRate("a".into()));

        let err = HtbTreeBuilder::new(100)
            .leaf("a", None, FlowId::new(0), HtbClass::rate(10))
            .leaf("b", None, FlowId::new(0), HtbClass::rate(10))
            .build()
            .unwrap_err();
        assert_eq!(err, HtbError::DuplicateFlow(0));

        let err = HtbTreeBuilder::new(100)
            .class("only-inner", None, HtbClass::rate(10))
            .build()
            .unwrap_err();
        assert_eq!(err, HtbError::NoLeaves);
    }

    /// `burst × capacity` at `u64` extremes is refused, in debug and
    /// release alike; the deepest bucket accepted still serves a packet
    /// without overflowing.
    #[test]
    fn burst_times_capacity_past_the_bucket_range_is_an_error() {
        let extreme = HtbClass::rate(u64::MAX).burst(u64::MAX);
        let err = HtbTreeBuilder::new(u64::MAX)
            .leaf("deep", None, FlowId::new(0), extreme)
            .build()
            .unwrap_err();
        assert_eq!(err, HtbError::BurstTooLarge("deep".into()));
        assert!(err.to_string().contains("\"deep\""));

        let deepest = HtbClass::rate(u64::MAX).burst(1 << 62);
        let mut htb = HtbTreeBuilder::new(u64::MAX)
            .leaf("deep", None, FlowId::new(0), deepest)
            .build()
            .unwrap();
        let mut qm = engine();
        qm.enqueue_packet(FlowId::new(0), &[0; 1518]).unwrap();
        assert_eq!(drain_next(&mut qm, &mut htb).unwrap().0, FlowId::new(0));
        // The largest packet a record can hold, on a nearly full bucket.
        htb.served(FlowId::new(0), u32::MAX as usize);
        assert_eq!(htb.stats().green_packets, 2);
    }

    /// Leaves at rates 250 and 750 of the link that cannot borrow, both
    /// backlogged with 64-byte packets.
    #[test]
    fn rates_split_bandwidth_three_to_one() {
        let bytes = crate::model::drained_bytes("rates_split_bandwidth_three_to_one");
        assert_eq!(bytes, [128, 384]);
    }

    #[test]
    fn idle_guarantee_is_borrowed_not_wasted() {
        let mut qm = engine();
        let mut sched = HtbTreeBuilder::new(1000)
            .class("trunk", None, HtbClass::rate(1000))
            .leaf(
                "idle",
                Some("trunk"),
                FlowId::new(0),
                HtbClass::rate(800).ceil(1000),
            )
            .leaf(
                "busy",
                Some("trunk"),
                FlowId::new(1),
                HtbClass::rate(200).ceil(1000).burst(640),
            )
            .build()
            .unwrap();
        for _ in 0..200 {
            qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
        }
        let mut served = 0usize;
        while let Some((f, pkt)) = drain_next(&mut qm, &mut sched) {
            assert_eq!(f.index(), 1);
            served += pkt.len();
        }
        assert_eq!(served, 200 * 64, "the busy leaf got the whole link");
        assert!(
            sched.stats().borrowed_packets > 0,
            "past its 20% guarantee the leaf must borrow trunk tokens: {:?}",
            sched.stats()
        );
        assert_eq!(
            sched.stats().over_ceil_packets,
            0,
            "ceil == link, so nothing should be over-ceil: {:?}",
            sched.stats()
        );
    }

    #[test]
    fn higher_priority_class_is_served_first_while_green() {
        let mut qm = engine();
        let mut sched = HtbTreeBuilder::new(1000)
            .leaf(
                "voice",
                None,
                FlowId::new(0),
                HtbClass::rate(1000).priority(0),
            )
            .leaf(
                "bulk",
                None,
                FlowId::new(1),
                HtbClass::rate(1000).priority(5),
            )
            .build()
            .unwrap();
        for _ in 0..8 {
            qm.enqueue_packet(FlowId::new(1), &[1; 64]).unwrap();
            qm.enqueue_packet(FlowId::new(0), &[0; 64]).unwrap();
        }
        let mut order = Vec::new();
        while let Some((f, _)) = drain_next(&mut qm, &mut sched) {
            order.push(f.index());
        }
        assert_eq!(&order[..8], &[0; 8], "voice drains before bulk: {order:?}");
        assert_eq!(&order[8..], &[1; 8]);
    }

    #[test]
    fn link_never_idles_even_past_every_ceiling() {
        let mut qm = engine();
        // A 1-unit ceil on a 1000-unit link: essentially everything this
        // leaf sends is over-ceil, but with nothing else backlogged the
        // scheduler must keep the link busy rather than strand packets.
        let mut sched = HtbTreeBuilder::new(1000)
            .leaf("capped", None, FlowId::new(0), HtbClass::rate(1).burst(64))
            .build()
            .unwrap();
        for _ in 0..50 {
            qm.enqueue_packet(FlowId::new(0), &[0; 640]).unwrap();
        }
        let mut served = 0;
        while drain_next(&mut qm, &mut sched).is_some() {
            served += 1;
        }
        assert_eq!(served, 50, "work conservation: every packet drains");
        assert!(
            sched.stats().over_ceil_packets > 0,
            "the safety valve must be visible in stats: {:?}",
            sched.stats()
        );
    }

    /// Tenant A floods with four times the backlog of tenant B, which
    /// offers exactly its 50 % guarantee; B gets exactly that share.
    #[test]
    fn overloaded_sibling_cannot_starve_a_guarantee() {
        let bytes = crate::model::drained_bytes("overloaded_sibling_cannot_starve_a_guarantee");
        assert_eq!(bytes, [2560, 2560]);
    }
}
