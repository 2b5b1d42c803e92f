//! # npqm-mem — behavioral memory models for network-processor simulation
//!
//! Reproduces §3 of *"Queue Management in Network Processors"*
//! (Papaefstathiou et al., DATE 2005): a behavioral DDR-SDRAM bank-timing
//! model of four read/write ports, under two access schedulers:
//!
//! * [`sched::NaiveRoundRobin`] — serializes the 4 ports in round-robin
//!   order, stalling on bank conflicts (the paper's "no optimization"
//!   columns of Table 1);
//! * [`sched::Reordering`] — per-port FIFOs, a 3-entry access history, and
//!   round-robin selection among non-conflicting heads (the paper's
//!   "optimization" columns).
//!
//! The timing constants come straight from the paper's footnotes: a new
//! 64-byte access every 40 ns, 160 ns same-bank reuse, 60 ns read / 40 ns
//! write delay, and a one-access-cycle penalty for a write issued in the
//! slot immediately after a read.
//!
//! The protocol is one access cycle, [`replay::DdrChannel::step`], with
//! two drivers: [`sched::run_schedule`] keeps the four ports saturated
//! for a fixed number of slots (Table 1), and [`replay::DdrChannel::drain`]
//! steps a persistent channel until a *finite recorded* access stream (a
//! queue engine's actual per-command traffic) has issued — the
//! integration surface behind `npqm_core::timing`. The crate also models
//! the ZBT SRAM pointer memory ([`zbt::ZbtSram`]) used by the MMS and NPU
//! models.
//!
//! # Example: measure DDR throughput loss
//!
//! ```
//! use npqm_mem::ddr::DdrConfig;
//! use npqm_mem::pattern::RandomBanks;
//! use npqm_mem::sched::{run_schedule, NaiveRoundRobin, Reordering};
//!
//! let cfg = DdrConfig::paper(8); // 8 banks
//! let naive = run_schedule(&cfg, NaiveRoundRobin::new(), RandomBanks::new(8, 1), 20_000);
//! let opt = run_schedule(&cfg, Reordering::new(), RandomBanks::new(8, 1), 20_000);
//! assert!(opt.loss() < naive.loss(), "reordering must win");
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod addrmap;
pub mod ddr;
pub mod experiments;
pub mod pattern;
pub mod replay;
pub mod sched;
pub mod zbt;

pub use ddr::{Access, AccessKind, BankTracker, DdrConfig};
pub use replay::{DdrChannel, DrainPolicy, StreamCost};
pub use sched::{run_schedule, NaiveRoundRobin, Reordering, Sched, ScheduleResult};
pub use zbt::ZbtSram;
