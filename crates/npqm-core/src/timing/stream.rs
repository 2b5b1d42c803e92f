//! Recorded access streams: what a traced engine emits.
//!
//! When tracing is enabled ([`crate::QueueManager::set_tracing`]), every
//! pointer-memory access keeps moving the always-on
//! [`PtrMemCounters`], and every data-memory segment read/write is
//! additionally recorded as a [`DataAccess`]. Cutting the trace
//! ([`crate::QueueManager::cut_trace`]) yields an [`OpStream`] — the
//! memory traffic of everything executed since the previous cut — which
//! [`crate::timing::PaperTiming`] converts into cycles. An engine keeps
//! that one log and nothing else: executing a command draws no boundary
//! in it, so where the cuts fall is decided only by whoever charges it.
//! A sharded engine's trace is one stream per shard: shards share no
//! state, so no command's traffic spans two engines.
//!
//! The stream is a *behavioural recording*, not a timing artifact: it is
//! a pure function of the commands executed and their per-engine order,
//! so it is byte-identical between a batch and its one-by-one replay
//! (the same determinism contract the sharded engine already proves for
//! results and state).

use crate::ptrmem::PtrMemCounters;

/// One recorded data-memory access: a segment-sized DDR burst.
///
/// The segment index is recorded rather than a bank so the *model*
/// chooses the address-to-bank map (`npqm_mem::addrmap::AddressMap`):
/// the same recording can be replayed against any bank organisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataAccess {
    /// Index of the segment whose payload was touched.
    pub segment: u32,
    /// True for a write burst, false for a read burst.
    pub write: bool,
}

/// The memory traffic between two cuts of one engine's trace (a command
/// or a round — whoever cuts decides).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpStream {
    /// Pointer-memory accesses by plane (ZBT SRAM traffic).
    pub ptr: PtrMemCounters,
    /// Data-memory segment accesses in execution order (DDR traffic).
    pub data: Vec<DataAccess>,
}

impl OpStream {
    /// Total pointer-memory accesses in the stream.
    pub fn ptr_accesses(&self) -> u64 {
        self.ptr.total()
    }

    /// Data-memory read bursts in the stream.
    pub fn data_reads(&self) -> u64 {
        self.data.iter().filter(|a| !a.write).count() as u64
    }

    /// Data-memory write bursts in the stream.
    pub fn data_writes(&self) -> u64 {
        self.data.iter().filter(|a| a.write).count() as u64
    }
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
    }
}
