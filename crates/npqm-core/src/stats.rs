//! Operation accounting for the queue manager.

/// Counts of every queue-management operation executed by a
/// [`crate::QueueManager`], plus aggregate payload traffic.
///
/// # Example
///
/// ```
/// use npqm_core::{QmConfig, QueueManager, FlowId};
/// # fn main() -> Result<(), npqm_core::QueueError> {
/// let mut qm = QueueManager::new(QmConfig::small());
/// qm.enqueue_packet(FlowId::new(0), &[0u8; 100])?;
/// assert_eq!(qm.stats().enqueues, 2); // two 64-byte segments
/// assert_eq!(qm.stats().bytes_in, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QmStats {
    /// Segments enqueued.
    pub enqueues: u64,
    /// Segments dequeued.
    pub dequeues: u64,
    /// Head segments read in place.
    pub reads: u64,
    /// Head segments overwritten in place.
    pub overwrites: u64,
    /// Segment-length overwrites.
    pub len_overwrites: u64,
    /// Single segments deleted.
    pub seg_deletes: u64,
    /// Whole packets deleted.
    pub pkt_deletes: u64,
    /// Segments appended at packet heads.
    pub head_appends: u64,
    /// Segments appended at packet tails.
    pub tail_appends: u64,
    /// Packets moved between queues.
    pub moves: u64,
    /// Payload bytes accepted.
    pub bytes_in: u64,
    /// Payload bytes delivered.
    pub bytes_out: u64,
    /// Operations rejected with an error.
    pub errors: u64,
}

impl QmStats {
    /// Adds every counter of `other` into `self`.
    ///
    /// Used to aggregate the per-shard statistics of a
    /// [`crate::shard::ShardedQueueManager`] into one engine-wide view.
    ///
    /// # Example
    ///
    /// ```
    /// use npqm_core::QmStats;
    /// let mut a = QmStats {
    ///     enqueues: 2,
    ///     bytes_in: 100,
    ///     ..QmStats::default()
    /// };
    /// let b = QmStats {
    ///     enqueues: 3,
    ///     bytes_in: 50,
    ///     ..QmStats::default()
    /// };
    /// a.absorb(&b);
    /// assert_eq!(a.enqueues, 5);
    /// assert_eq!(a.bytes_in, 150);
    /// ```
    pub fn absorb(&mut self, other: &QmStats) {
        self.enqueues += other.enqueues;
        self.dequeues += other.dequeues;
        self.reads += other.reads;
        self.overwrites += other.overwrites;
        self.len_overwrites += other.len_overwrites;
        self.seg_deletes += other.seg_deletes;
        self.pkt_deletes += other.pkt_deletes;
        self.head_appends += other.head_appends;
        self.tail_appends += other.tail_appends;
        self.moves += other.moves;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.errors += other.errors;
    }

    /// Total successful operations.
    pub fn total_ops(&self) -> u64 {
        self.enqueues
            + self.dequeues
            + self.reads
            + self.overwrites
            + self.len_overwrites
            + self.seg_deletes
            + self.pkt_deletes
            + self.head_appends
            + self.tail_appends
            + self.moves
    }
}

/// Always zero: shards run on the calling thread, so no batch fans out
/// and no worker steals. Kept only for the benchmark ladder until ROADMAP
/// item 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelStats {
    /// Always 0: no batch leaves the calling thread.
    pub parallel_batches: u64,
    /// Always 0: there is no second worker to steal.
    pub steals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_all_operation_kinds() {
        let s = QmStats {
            enqueues: 1,
            dequeues: 2,
            reads: 3,
            overwrites: 4,
            len_overwrites: 5,
            seg_deletes: 6,
            pkt_deletes: 7,
            head_appends: 8,
            tail_appends: 9,
            moves: 10,
            bytes_in: 0,
            bytes_out: 0,
            errors: 99,
        };
        assert_eq!(s.total_ops(), 55);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(QmStats::default().total_ops(), 0);
    }

    #[test]
    fn absorb_adds_every_field() {
        let one = QmStats {
            enqueues: 1,
            dequeues: 2,
            reads: 3,
            overwrites: 4,
            len_overwrites: 5,
            seg_deletes: 6,
            pkt_deletes: 7,
            head_appends: 8,
            tail_appends: 9,
            moves: 10,
            bytes_in: 11,
            bytes_out: 12,
            errors: 13,
        };
        let mut acc = one;
        acc.absorb(&one);
        assert_eq!(acc.total_ops(), 2 * one.total_ops());
        assert_eq!(acc.bytes_in, 22);
        assert_eq!(acc.bytes_out, 24);
        assert_eq!(acc.errors, 26);
    }
}
