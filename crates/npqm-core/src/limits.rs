//! Buffer management: per-flow occupancy limits and admission policy.
//!
//! §1 lists "buffer and traffic management" among the wire-speed functions
//! per-flow queuing exists for. This module polices enqueue admission:
//! per-flow byte/packet caps plus a global shared-buffer threshold — the
//! standard tail-drop discipline of shared-memory packet buffers. A
//! refusal is the [`DropReason`] returned; whoever drives the policer
//! counts them.
//!
//! The policer composes with (rather than modifies) the engine: it reads
//! queue occupancy through the public API and vetoes enqueues.

use crate::error::QueueError;
use crate::id::FlowId;
use crate::manager::QueueManager;

/// Why a packet was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The flow reached its byte cap.
    FlowBytes,
    /// The flow reached its packet cap.
    FlowPackets,
    /// The shared buffer reached the global reserve threshold.
    GlobalReserve,
    /// The engine itself ran out of memory.
    Engine(QueueError),
}

impl core::fmt::Display for DropReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DropReason::FlowBytes => write!(f, "per-flow byte cap reached"),
            DropReason::FlowPackets => write!(f, "per-flow packet cap reached"),
            DropReason::GlobalReserve => write!(f, "shared buffer below reserve"),
            DropReason::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

/// Admission limits for one flow (or a class of flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowLimits {
    /// Maximum queued payload bytes per flow.
    pub max_bytes: u64,
    /// Maximum queued packets per flow.
    pub max_packets: u32,
}

impl FlowLimits {
    /// Effectively unlimited.
    pub const UNLIMITED: FlowLimits = FlowLimits {
        max_bytes: u64::MAX,
        max_packets: u32::MAX,
    };
}

impl Default for FlowLimits {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// A tail-drop buffer manager over a [`QueueManager`].
///
/// # Example
///
/// ```
/// use npqm_core::limits::{BufferManager, DropReason, FlowLimits};
/// use npqm_core::{FlowId, QmConfig, QueueManager};
///
/// # fn main() -> Result<(), npqm_core::QueueError> {
/// let mut qm = QueueManager::new(QmConfig::small());
/// let bm = BufferManager::new(FlowLimits { max_bytes: 128, max_packets: 8 }, 0);
/// let f = FlowId::new(1);
/// assert!(bm.try_enqueue(&mut qm, f, &[0u8; 100]).is_ok());
/// // Second packet would exceed the 128-byte flow cap: refused, with the reason.
/// assert_eq!(bm.try_enqueue(&mut qm, f, &[0u8; 100]), Err(DropReason::FlowBytes));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BufferManager {
    limits: FlowLimits,
    /// Segments kept free for already-open packets (global reserve).
    reserve_segments: u32,
}

impl BufferManager {
    /// Creates a manager applying `limits` to every flow and refusing new
    /// packets once fewer than `reserve_segments` segments remain free.
    pub fn new(limits: FlowLimits, reserve_segments: u32) -> Self {
        BufferManager {
            limits,
            reserve_segments,
        }
    }

    /// Checks admission for a `len`-byte packet on `flow` without
    /// enqueuing.
    ///
    /// # Errors
    ///
    /// The [`DropReason`] that would apply.
    pub fn admit(&self, qm: &QueueManager, flow: FlowId, len: usize) -> Result<(), DropReason> {
        if qm.queue_len_bytes(flow) + len as u64 > self.limits.max_bytes {
            return Err(DropReason::FlowBytes);
        }
        if qm.queue_len_packets(flow) + 1 > self.limits.max_packets {
            return Err(DropReason::FlowPackets);
        }
        // In u64: a reserve near `u32::MAX` must refuse, not wrap.
        let needed = qm.config().segments_for(len) as u64;
        if u64::from(qm.free_segments()) < needed + u64::from(self.reserve_segments) {
            return Err(DropReason::GlobalReserve);
        }
        Ok(())
    }

    /// Polices and (if admitted) enqueues one whole packet.
    ///
    /// # Errors
    ///
    /// The [`DropReason`]; the packet is NOT queued in that case.
    pub fn try_enqueue(
        &self,
        qm: &mut QueueManager,
        flow: FlowId,
        packet: &[u8],
    ) -> Result<(), DropReason> {
        self.admit(qm, flow, packet.len())?;
        qm.enqueue_packet(flow, packet).map_err(DropReason::Engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;

    fn engine() -> QueueManager {
        QueueManager::new(QmConfig::small())
    }

    #[test]
    fn byte_cap_drops_and_counts() {
        let mut qm = engine();
        let bm = BufferManager::new(
            FlowLimits {
                max_bytes: 200,
                max_packets: 100,
            },
            0,
        );
        let f = FlowId::new(0);
        assert!(bm.try_enqueue(&mut qm, f, &[0; 150]).is_ok());
        assert_eq!(
            bm.try_enqueue(&mut qm, f, &[0; 100]),
            Err(DropReason::FlowBytes)
        );
        assert!(bm.try_enqueue(&mut qm, f, &[0; 50]).is_ok());
        assert_eq!(qm.queue_len_packets(f), 2);
        qm.verify().unwrap();
    }

    #[test]
    fn packet_cap_drops() {
        let mut qm = engine();
        let bm = BufferManager::new(
            FlowLimits {
                max_bytes: u64::MAX,
                max_packets: 2,
            },
            0,
        );
        let f = FlowId::new(3);
        bm.try_enqueue(&mut qm, f, b"a").unwrap();
        bm.try_enqueue(&mut qm, f, b"b").unwrap();
        assert_eq!(
            bm.try_enqueue(&mut qm, f, b"c"),
            Err(DropReason::FlowPackets)
        );
        // Draining re-opens admission.
        qm.dequeue_packet(f).unwrap();
        assert!(bm.try_enqueue(&mut qm, f, b"c").is_ok());
    }

    #[test]
    fn global_reserve_protects_shared_buffer() {
        let cfg = QmConfig::builder()
            .num_flows(4)
            .num_segments(10)
            .segment_bytes(64)
            .build()
            .unwrap();
        let mut qm = QueueManager::new(cfg);
        let bm = BufferManager::new(FlowLimits::UNLIMITED, 4);
        // 10 segments, 4 reserved: only 6 admit.
        let (mut admitted, mut global) = (0, 0);
        for i in 0..10 {
            match bm.try_enqueue(&mut qm, FlowId::new(i % 4), &[0u8; 64]) {
                Ok(()) => admitted += 1,
                Err(reason) => {
                    assert_eq!(reason, DropReason::GlobalReserve);
                    global += 1;
                }
            }
        }
        assert_eq!(admitted, 6);
        assert_eq!(global, 4);
        assert_eq!(qm.free_segments(), 4, "reserve intact");
    }

    #[test]
    fn admit_does_not_mutate() {
        let mut qm = engine();
        let bm = BufferManager::new(FlowLimits::UNLIMITED, 0);
        assert!(bm.admit(&qm, FlowId::new(0), 1000).is_ok());
        assert!(qm.is_empty(FlowId::new(0)));
        qm.enqueue_packet(FlowId::new(0), b"x").unwrap();
        assert!(bm.admit(&qm, FlowId::new(0), 10).is_ok());
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(
            DropReason::FlowBytes.to_string(),
            "per-flow byte cap reached"
        );
        assert_eq!(
            DropReason::GlobalReserve.to_string(),
            "shared buffer below reserve"
        );
        assert!(DropReason::Engine(QueueError::OutOfSegments)
            .to_string()
            .contains("engine"));
    }
}
