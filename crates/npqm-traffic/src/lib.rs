//! # npqm-traffic — synthetic workloads for network-processor experiments
//!
//! The paper evaluates queue management under "the memory access patterns
//! of real-world network applications" and lists the applications its MMS
//! accelerates (§6): Ethernet switching with QoS (802.1p/q), ATM switching,
//! IP over ATM, IP routing, NAT and PPP encapsulation. This crate provides:
//!
//! * [`packet`] — real bit-level codecs for Ethernet (+ 802.1Q VLAN tags),
//!   IPv4 (with header checksum), ATM cells and AAL5 frames (with CRC-32);
//! * [`size`] — packet-size distributions (worst-case 64-byte, IMIX,
//!   uniform);
//! * [`arrival`] — arrival processes (CBR, Poisson, bursty on-off);
//! * [`flows`] — flow-population models (uniform, Zipf) and a flow table;
//! * [`trace`] — recordable/replayable workload traces;
//! * [`adversary`] — seeded adversarial arena traces crafted against
//!   each shipped drop policy, for the competitive-analysis arena of
//!   `npqm_core::arena` (the `table9` experiments);
//! * [`pipeline`] — the closed-loop simulation: traffic through a
//!   pluggable drop policy into [`npqm_core::QueueManager`], drained by a
//!   scheduler at a configurable egress rate (the drop-policy experiments
//!   of `table6` run on this). The loop also drives a *sharded* engine —
//!   flows partitioned across independent
//!   [`npqm_core::shard::ShardedQueueManager`] shards, each with its own
//!   admission policy, scheduler and egress server — with per-shard and
//!   aggregate reports, optionally running each shard's loop on its own
//!   thread (byte-identical to serial), and a global-LQD mode that
//!   shares one buffer budget across all partitions;
//! * [`builder`] — the [`PipelineBuilder`] front door to every pipeline
//!   shape above: shards × threading × admission × timing × egress
//!   (flat or hierarchical HTB class trees) chosen independently, one
//!   report type out;
//! * [`service`] — the **always-on streaming service mode**: bounded
//!   per-shard ingress lanes fed by generators (backpressure is
//!   counted, never silently dropped), per-shard `process_once` service
//!   loops under one wall-clock-free round driver, epoch-windowed statistics
//!   (p50/p99/p999 delivery latency, goodput, drops, ring-full events
//!   per window) and online verification — invariant walks plus
//!   state-digest snapshots at epoch boundaries that equal a quiesced
//!   run's digests, byte-identical at any thread count (the `table10`
//!   steady-state experiment runs on this);
//! * [`scale`] — the shard-scaling throughput experiment behind
//!   `table7`: segments/sec versus shard count under the Zipf
//!   bursty-overload mix, with a full conservation/torn-frame ledger, a
//!   threads×shards wall-clock sweep of the parallel batch executor and
//!   a deterministic end-state fingerprint per row;
//! * [`apps`] — the six paper applications implemented over
//!   [`npqm_core::QueueManager`], used by the examples and integration
//!   tests.
//!
//! # Example
//!
//! ```
//! use npqm_traffic::packet::{EthernetFrame, MacAddr, VlanTag};
//!
//! let frame = EthernetFrame {
//!     dst: MacAddr([0, 1, 2, 3, 4, 5]),
//!     src: MacAddr([6, 7, 8, 9, 10, 11]),
//!     vlan: Some(VlanTag { pcp: 5, vid: 42 }),
//!     ethertype: 0x0800,
//!     payload: vec![0xAB; 46],
//! };
//! let bytes = frame.to_bytes();
//! let parsed = EthernetFrame::parse(&bytes).unwrap();
//! assert_eq!(parsed, frame);
//! assert_eq!(parsed.vlan.unwrap().pcp, 5); // the 802.1p priority
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod apps;
pub mod arrival;
pub mod builder;
pub mod flows;
pub mod packet;
pub mod pipeline;
pub mod scale;
pub mod service;
pub mod size;
pub mod trace;

pub use arrival::ArrivalProcess;
pub use builder::PipelineBuilder;
pub use flows::FlowMix;
pub use packet::{AtmCell, EthernetFrame, Ipv4Packet, MacAddr, VlanTag};
pub use pipeline::{PipelineConfig, PipelineReport, PolicyOutcome};
pub use service::{run_service, run_service_observed, ServiceConfig, ServiceReport};
pub use size::SizeDistribution;
pub use trace::{Trace, TraceRecord};
