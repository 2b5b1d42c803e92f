//! The MMS command set of Table 4.

use core::fmt;

/// The nine "simple commands" whose latencies Table 4 reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmsCommand {
    /// Enqueue one segment on a flow queue.
    Enqueue,
    /// Read the head segment without consuming it.
    Read,
    /// Overwrite the head segment's payload.
    Overwrite,
    /// Move the head packet to another queue.
    Move,
    /// Delete the head segment (no data-memory access).
    Delete,
    /// Rewrite the head segment's length field (no data-memory access).
    OverwriteSegmentLength,
    /// Dequeue the head segment.
    Dequeue,
    /// Fused length-overwrite + move (no data-memory access).
    OverwriteSegmentLengthAndMove,
    /// Fused payload-overwrite + move.
    OverwriteSegmentAndMove,
}

impl MmsCommand {
    /// All commands in Table 4's row order.
    pub const ALL: [MmsCommand; 9] = [
        MmsCommand::Enqueue,
        MmsCommand::Read,
        MmsCommand::Overwrite,
        MmsCommand::Move,
        MmsCommand::Delete,
        MmsCommand::OverwriteSegmentLength,
        MmsCommand::Dequeue,
        MmsCommand::OverwriteSegmentLengthAndMove,
        MmsCommand::OverwriteSegmentAndMove,
    ];

    /// The Table 4 row label.
    pub const fn name(self) -> &'static str {
        match self {
            MmsCommand::Enqueue => "Enqueue",
            MmsCommand::Read => "Read",
            MmsCommand::Overwrite => "Overwrite",
            MmsCommand::Move => "Move",
            MmsCommand::Delete => "Delete",
            MmsCommand::OverwriteSegmentLength => "Overwrite_Segment_length",
            MmsCommand::Dequeue => "Dequeue",
            MmsCommand::OverwriteSegmentLengthAndMove => "Overwrite_Segment_length&Move",
            MmsCommand::OverwriteSegmentAndMove => "Overwrite_Segment&Move",
        }
    }

    /// Whether the command transfers a 64-byte segment to/from the DRAM.
    ///
    /// Pointer-only commands (delete, move, length rewrite) are exactly the
    /// cheap rows of Table 4 because they skip the data memory.
    pub const fn touches_data_memory(self) -> bool {
        !matches!(
            self,
            MmsCommand::Delete
                | MmsCommand::Move
                | MmsCommand::OverwriteSegmentLength
                | MmsCommand::OverwriteSegmentLengthAndMove
        )
    }

    /// Whether the data-memory transfer (if any) is a write.
    pub const fn data_is_write(self) -> bool {
        matches!(
            self,
            MmsCommand::Enqueue | MmsCommand::Overwrite | MmsCommand::OverwriteSegmentAndMove
        )
    }
}

impl fmt::Display for MmsCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_nine_distinct_commands() {
        let mut names: Vec<_> = MmsCommand::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn data_memory_classification() {
        assert!(MmsCommand::Enqueue.touches_data_memory());
        assert!(MmsCommand::Dequeue.touches_data_memory());
        assert!(MmsCommand::Read.touches_data_memory());
        assert!(MmsCommand::Overwrite.touches_data_memory());
        assert!(MmsCommand::OverwriteSegmentAndMove.touches_data_memory());
        assert!(!MmsCommand::Delete.touches_data_memory());
        assert!(!MmsCommand::Move.touches_data_memory());
        assert!(!MmsCommand::OverwriteSegmentLength.touches_data_memory());
        assert!(!MmsCommand::OverwriteSegmentLengthAndMove.touches_data_memory());
    }

    #[test]
    fn write_classification() {
        assert!(MmsCommand::Enqueue.data_is_write());
        assert!(MmsCommand::Overwrite.data_is_write());
        assert!(!MmsCommand::Dequeue.data_is_write());
        assert!(!MmsCommand::Read.data_is_write());
    }

    #[test]
    fn display_matches_table_labels() {
        assert_eq!(MmsCommand::Dequeue.to_string(), "Dequeue");
        assert_eq!(
            MmsCommand::OverwriteSegmentLengthAndMove.to_string(),
            "Overwrite_Segment_length&Move"
        );
    }
}
