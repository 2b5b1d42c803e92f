//! # npqm-core — per-flow queue management for network processors
//!
//! This crate is the reusable heart of the reproduction of *"Queue
//! Management in Network Processors"* (Papaefstathiou et al., DATE 2005):
//! a software implementation of the paper's Memory Management System (MMS)
//! operation set that a downstream networking project could adopt as-is.
//!
//! The design mirrors the hardware organisation the paper describes:
//!
//! * Incoming packets are partitioned into **fixed-size segments**
//!   (64 bytes in the paper; configurable here) stored in a segment-aligned
//!   **data memory** ([`pool::SegmentPool`]).
//! * All bookkeeping lives in an explicit **pointer memory**
//!   ([`ptrmem::PtrMem`]) that holds per-segment records, per-packet
//!   records, the per-flow **queue table** and the **free list** — exactly
//!   the structures the paper keeps in ZBT SRAM, so the hardware models in
//!   `npqm-mms`/`npqm-npu` can count pointer-memory accesses of the *same*
//!   code paths.
//! * The engine ([`QueueManager`]) implements the paper's command set:
//!   enqueue / dequeue / read / overwrite / delete segment / delete packet /
//!   append at head or tail of a packet / move a packet to a new queue /
//!   overwrite segment length, plus the fused variants of Table 4.
//!
//! # Quick start
//!
//! ```
//! use npqm_core::{QmConfig, QueueManager, FlowId};
//!
//! # fn main() -> Result<(), npqm_core::QueueError> {
//! let mut qm = QueueManager::new(QmConfig::small());
//! let flow = FlowId::new(7);
//!
//! // A 150-byte packet becomes three 64-byte segments.
//! let pkt: Vec<u8> = (0..150).map(|i| i as u8).collect();
//! qm.enqueue_packet(flow, &pkt)?;
//! assert_eq!(qm.queue_len_segments(flow), 3);
//!
//! let out = qm.dequeue_packet(flow)?;
//! assert_eq!(out, pkt);
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod check;
pub mod command;
pub mod config;
pub mod error;
pub mod freelist;
pub mod id;
pub mod limits;
pub mod manager;
pub mod policy;
pub mod pool;
pub mod ptrmem;
pub mod sar;
pub mod sched;
pub mod shard;
pub mod stats;
pub mod telemetry;
pub mod timing;

pub use arena::{ArenaConfig, ArenaPacket, ArenaReport, ArenaTrace, OfflineBound, ServiceModel};
pub use command::{Command, Outcome};
pub use config::QmConfig;
pub use error::QueueError;
pub use id::{FlowId, PacketId, SegmentId};
pub use manager::{DequeuedSegment, QueueManager, SegmentInfo, SegmentPosition};
pub use policy::{
    Admission, DropPolicy, DynamicThreshold, GlobalLqd, LongestQueueDrop, PushOutLargestWork,
    Refusal, WorkSizeBalance,
};
pub use sar::{Reassembler, Segmenter};
pub use sched::{
    DeficitRoundRobin, FlowScheduler, HtbClass, HtbError, HtbScheduler, HtbStats, HtbTreeBuilder,
    StrictPriority, WeightedRoundRobin,
};
pub use shard::parallel::{BatchDrain, LentSegment};
pub use shard::{ShardedAdmission, ShardedInvariantReport, ShardedQueueManager};
pub use stats::{ParallelStats, QmStats};
pub use telemetry::{
    DropCause, DropLedger, EventCounts, EventKind, MetricsRegistry, Telemetry, TelemetryConfig,
    TelemetryReport, TraceEvent,
};
pub use timing::{BatchCost, CommandCost, MemoryChannels, PaperTiming, TimingConfig};
