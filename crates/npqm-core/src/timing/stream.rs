//! Recorded access streams: what a traced engine emits.
//!
//! When tracing is enabled ([`crate::QueueManager::set_tracing`]), every
//! pointer-memory access keeps moving the always-on
//! [`PtrMemCounters`], and every data-memory segment read/write is
//! additionally recorded as a [`DataAccess`]. Cutting the trace
//! ([`crate::QueueManager::cut_trace`]) yields an [`OpStream`] — the
//! memory traffic of everything executed since the previous cut — which
//! [`crate::timing::PaperTiming`] converts into cycles.
//!
//! The stream is a *behavioural recording*, not a timing artifact: it is
//! a pure function of the commands executed and their per-engine order,
//! so it is byte-identical between serial and thread-parallel execution
//! (the same determinism contract the sharded engine already proves for
//! results and state).

use crate::ptrmem::PtrMemCounters;

/// One recorded data-memory access: a segment-sized DDR burst.
///
/// The segment index is recorded rather than a bank so the *model*
/// chooses the address-to-bank map (`npqm_mem::addrmap::AddressMap`):
/// the same recording can be replayed against any bank organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DataAccess {
    /// Index of the segment whose payload was touched.
    pub segment: u32,
    /// True for a write burst, false for a read burst.
    pub write: bool,
}

/// The memory traffic of one traced span (a command, a packet, or a
/// whole per-shard command group — the caller decides where to cut).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStream {
    /// Pointer-memory accesses by plane (ZBT SRAM traffic).
    pub ptr: PtrMemCounters,
    /// Data-memory segment accesses in execution order (DDR traffic).
    pub data: Vec<DataAccess>,
}

impl OpStream {
    /// Total pointer-memory accesses in the span.
    pub fn ptr_accesses(&self) -> u64 {
        self.ptr.total()
    }

    /// Data-memory read bursts in the span.
    pub fn data_reads(&self) -> u64 {
        self.data.iter().filter(|a| !a.write).count() as u64
    }

    /// Data-memory write bursts in the span.
    pub fn data_writes(&self) -> u64 {
        self.data.iter().filter(|a| a.write).count() as u64
    }

    /// Whether the span touched neither memory.
    pub fn is_empty(&self) -> bool {
        self.ptr.total() == 0 && self.data.is_empty()
    }

    /// Appends `other`'s traffic after this span's (window merging: the
    /// charge of a merged window equals charging the concatenated access
    /// sequence, which is how
    /// [`crate::timing::MemoryChannels::charge_engine`] stays invariant
    /// to where span boundaries fell during execution).
    pub fn absorb(&mut self, other: &OpStream) {
        self.ptr.absorb(&other.ptr);
        self.data.extend_from_slice(&other.data);
    }
}

/// Marks a cross-shard two-engine barrier inside an engine trace: the
/// command's source-side traffic is span `a_span` of shard `a`, its
/// destination-side traffic span `b_span` of shard `b`, and the two
/// memory channels synchronize to the later completion after charging
/// them (the command serializes both engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossBarrier {
    /// Shard owning the command's source flow.
    pub a: usize,
    /// Shard owning the command's destination flow.
    pub b: usize,
    /// Index of the command's span in shard `a`'s span list.
    pub a_span: usize,
    /// Index of the command's span in shard `b`'s span list.
    pub b_span: usize,
}

/// A complete engine trace: per-shard span lists plus the cross-shard
/// barriers, as returned by
/// [`crate::shard::ShardedQueueManager::take_trace`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineTrace {
    /// Per-shard spans in execution order (index = shard).
    pub spans: Vec<Vec<OpStream>>,
    /// Cross-shard barriers in execution order.
    pub barriers: Vec<CrossBarrier>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_counts_by_direction() {
        let s = OpStream {
            ptr: PtrMemCounters {
                seg_reads: 2,
                qt_writes: 1,
                ..PtrMemCounters::default()
            },
            data: vec![
                DataAccess {
                    segment: 0,
                    write: true,
                },
                DataAccess {
                    segment: 1,
                    write: false,
                },
                DataAccess {
                    segment: 2,
                    write: true,
                },
            ],
        };
        assert_eq!(s.ptr_accesses(), 3);
        assert_eq!(s.data_writes(), 2);
        assert_eq!(s.data_reads(), 1);
        assert!(!s.is_empty());
        assert!(OpStream::default().is_empty());
    }

    #[test]
    fn absorb_concatenates_in_order() {
        let mut a = OpStream {
            ptr: PtrMemCounters {
                pkt_reads: 1,
                ..PtrMemCounters::default()
            },
            data: vec![DataAccess {
                segment: 7,
                write: true,
            }],
        };
        let b = OpStream {
            ptr: PtrMemCounters {
                pkt_reads: 2,
                ..PtrMemCounters::default()
            },
            data: vec![DataAccess {
                segment: 9,
                write: false,
            }],
        };
        a.absorb(&b);
        assert_eq!(a.ptr.pkt_reads, 3);
        assert_eq!(a.data.len(), 2);
        assert_eq!(a.data[1].segment, 9);
    }
}
