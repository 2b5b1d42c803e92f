//! A reified command set, mirroring the MMS hardware interface.
//!
//! The paper's MMS receives *commands* on request/acknowledge ports (§6,
//! Figure 2). Representing operations as data lets the hardware model in
//! `npqm-mms` execute the *same* traces as the software engine, lets tests
//! cross-validate the two, and lets traffic generators emit replayable
//! workloads.

use crate::error::QueueError;
use crate::id::FlowId;
use crate::manager::{DequeuedSegment, QueueManager, SegmentPosition};

/// One queue-management command (the paper's §6 operation list plus the
/// fused variants of Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Command {
    /// Enqueue one segment on a flow.
    Enqueue {
        /// Target flow.
        flow: FlowId,
        /// Segment payload.
        data: Vec<u8>,
        /// SOP/EOP delimiting.
        pos: SegmentPosition,
    },
    /// Dequeue the head segment of a flow.
    Dequeue {
        /// Source flow.
        flow: FlowId,
    },
    /// Read the head segment without consuming it.
    Read {
        /// Source flow.
        flow: FlowId,
    },
    /// Overwrite the head segment's payload.
    Overwrite {
        /// Target flow.
        flow: FlowId,
        /// Replacement payload.
        data: Vec<u8>,
    },
    /// Overwrite only the head segment's length field.
    OverwriteLen {
        /// Target flow.
        flow: FlowId,
        /// New length in bytes.
        new_len: u16,
    },
    /// Delete the head segment.
    DeleteSegment {
        /// Target flow.
        flow: FlowId,
    },
    /// Delete the whole head packet.
    DeletePacket {
        /// Target flow.
        flow: FlowId,
    },
    /// Prepend a segment to the head packet.
    AppendHead {
        /// Target flow.
        flow: FlowId,
        /// Payload to prepend.
        data: Vec<u8>,
    },
    /// Append a segment to the tail packet.
    AppendTail {
        /// Target flow.
        flow: FlowId,
        /// Payload to append.
        data: Vec<u8>,
    },
    /// Move the head packet to another queue.
    Move {
        /// Source flow.
        src: FlowId,
        /// Destination flow.
        dst: FlowId,
    },
    /// Copy the head packet to another queue (multicast/mirroring).
    Copy {
        /// Source flow.
        src: FlowId,
        /// Destination flow.
        dst: FlowId,
    },
    /// Fused overwrite-then-move (Table 4 "Overwrite_Segment&Move").
    OverwriteAndMove {
        /// Source flow.
        src: FlowId,
        /// Destination flow.
        dst: FlowId,
        /// Replacement payload.
        data: Vec<u8>,
    },
    /// Fused length-overwrite-then-move ("Overwrite_Segment_length&Move").
    OverwriteLenAndMove {
        /// Source flow.
        src: FlowId,
        /// Destination flow.
        dst: FlowId,
        /// New length in bytes.
        new_len: u16,
    },
}

impl Command {
    /// A short stable name for reporting (matches the paper's Table 4 rows).
    pub const fn name(&self) -> &'static str {
        match self {
            Command::Enqueue { .. } => "Enqueue",
            Command::Dequeue { .. } => "Dequeue",
            Command::Read { .. } => "Read",
            Command::Overwrite { .. } => "Overwrite",
            Command::OverwriteLen { .. } => "Overwrite_Segment_length",
            Command::DeleteSegment { .. } => "Delete",
            Command::DeletePacket { .. } => "Delete_Packet",
            Command::AppendHead { .. } => "Append_Head",
            Command::AppendTail { .. } => "Append_Tail",
            Command::Move { .. } => "Move",
            Command::Copy { .. } => "Copy",
            Command::OverwriteAndMove { .. } => "Overwrite_Segment&Move",
            Command::OverwriteLenAndMove { .. } => "Overwrite_Segment_length&Move",
        }
    }

    /// The flow whose queue the command primarily targets (the source
    /// queue for the two-queue move/copy commands).
    ///
    /// Together with [`Command::secondary_flow`] this is the routing key a
    /// sharded engine uses to dispatch commands to the engine owning the
    /// flow — see [`crate::shard::ShardedQueueManager`].
    pub const fn primary_flow(&self) -> FlowId {
        match *self {
            Command::Enqueue { flow, .. }
            | Command::Dequeue { flow }
            | Command::Read { flow }
            | Command::Overwrite { flow, .. }
            | Command::OverwriteLen { flow, .. }
            | Command::DeleteSegment { flow }
            | Command::DeletePacket { flow }
            | Command::AppendHead { flow, .. }
            | Command::AppendTail { flow, .. } => flow,
            Command::Move { src, .. }
            | Command::Copy { src, .. }
            | Command::OverwriteAndMove { src, .. }
            | Command::OverwriteLenAndMove { src, .. } => src,
        }
    }

    /// The second queue a two-queue command touches (the move/copy
    /// destination), or `None` for single-queue commands.
    pub const fn secondary_flow(&self) -> Option<FlowId> {
        match *self {
            Command::Move { dst, .. }
            | Command::Copy { dst, .. }
            | Command::OverwriteAndMove { dst, .. }
            | Command::OverwriteLenAndMove { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

/// Result of executing a [`Command`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Outcome {
    /// The command completed with no data to return.
    Done,
    /// A segment was returned (dequeue/read).
    Segment(DequeuedSegment),
    /// Bytes dropped by a delete.
    Dropped {
        /// Segments removed.
        segs: u32,
        /// Payload bytes removed.
        bytes: u32,
    },
}

impl QueueManager {
    /// Executes one reified [`Command`].
    ///
    /// # Errors
    ///
    /// Propagates the underlying operation's [`QueueError`].
    ///
    /// # Example
    ///
    /// ```
    /// use npqm_core::{Command, Outcome, QmConfig, QueueManager, FlowId};
    /// use npqm_core::manager::SegmentPosition;
    ///
    /// # fn main() -> Result<(), npqm_core::QueueError> {
    /// let mut qm = QueueManager::new(QmConfig::small());
    /// qm.execute(Command::Enqueue {
    ///     flow: FlowId::new(1),
    ///     data: b"abc".to_vec(),
    ///     pos: SegmentPosition::Only,
    /// })?;
    /// let out = qm.execute(Command::Dequeue { flow: FlowId::new(1) })?;
    /// match out {
    ///     Outcome::Segment(seg) => assert_eq!(seg.data, b"abc"),
    ///     _ => unreachable!(),
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn execute(&mut self, cmd: Command) -> Result<Outcome, QueueError> {
        self.execute_ref(&cmd)
    }

    /// [`execute`](Self::execute) on a borrowed command: the sharded
    /// engine dispatches it without cloning its payload.
    pub(crate) fn execute_ref(&mut self, cmd: &Command) -> Result<Outcome, QueueError> {
        match *cmd {
            Command::Enqueue {
                flow,
                ref data,
                pos,
            } => {
                self.enqueue(flow, data, pos)?;
                Ok(Outcome::Done)
            }
            Command::Dequeue { flow } => Ok(Outcome::Segment(self.dequeue(flow)?)),
            Command::Read { flow } => Ok(Outcome::Segment(self.read_head(flow)?)),
            Command::Overwrite { flow, ref data } => {
                self.overwrite_head(flow, data)?;
                Ok(Outcome::Done)
            }
            Command::OverwriteLen { flow, new_len } => {
                self.overwrite_head_len(flow, new_len)?;
                Ok(Outcome::Done)
            }
            Command::DeleteSegment { flow } => {
                let bytes = self.delete_segment(flow)?;
                Ok(Outcome::Dropped {
                    segs: 1,
                    bytes: bytes as u32,
                })
            }
            Command::DeletePacket { flow } => {
                let (segs, bytes) = self.delete_packet(flow)?;
                Ok(Outcome::Dropped { segs, bytes })
            }
            Command::AppendHead { flow, ref data } => {
                self.append_head(flow, data)?;
                Ok(Outcome::Done)
            }
            Command::AppendTail { flow, ref data } => {
                self.append_tail(flow, data)?;
                Ok(Outcome::Done)
            }
            Command::Move { src, dst } => {
                self.move_packet(src, dst)?;
                Ok(Outcome::Done)
            }
            Command::Copy { src, dst } => {
                self.copy_packet(src, dst)?;
                Ok(Outcome::Done)
            }
            Command::OverwriteAndMove { src, dst, ref data } => {
                self.overwrite_and_move(src, dst, data)?;
                Ok(Outcome::Done)
            }
            Command::OverwriteLenAndMove { src, dst, new_len } => {
                self.overwrite_len_and_move(src, dst, new_len)?;
                Ok(Outcome::Done)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QmConfig;

    fn qm() -> QueueManager {
        QueueManager::new(QmConfig::small())
    }

    #[test]
    fn names_match_table_4_rows() {
        let f = FlowId::new(0);
        assert_eq!(Command::Dequeue { flow: f }.name(), "Dequeue");
        assert_eq!(
            Command::OverwriteLen {
                flow: f,
                new_len: 1
            }
            .name(),
            "Overwrite_Segment_length"
        );
        assert_eq!(
            Command::OverwriteAndMove {
                src: f,
                dst: f,
                data: vec![]
            }
            .name(),
            "Overwrite_Segment&Move"
        );
        assert_eq!(Command::DeleteSegment { flow: f }.name(), "Delete");
    }

    #[test]
    fn routing_flows_cover_every_variant() {
        let a = FlowId::new(3);
        let b = FlowId::new(9);
        let one_queue: [Command; 9] = [
            Command::Enqueue {
                flow: a,
                data: vec![1],
                pos: SegmentPosition::Only,
            },
            Command::Dequeue { flow: a },
            Command::Read { flow: a },
            Command::Overwrite {
                flow: a,
                data: vec![1],
            },
            Command::OverwriteLen {
                flow: a,
                new_len: 1,
            },
            Command::DeleteSegment { flow: a },
            Command::DeletePacket { flow: a },
            Command::AppendHead {
                flow: a,
                data: vec![1],
            },
            Command::AppendTail {
                flow: a,
                data: vec![1],
            },
        ];
        for cmd in &one_queue {
            assert_eq!(cmd.primary_flow(), a, "{}", cmd.name());
            assert_eq!(cmd.secondary_flow(), None, "{}", cmd.name());
        }
        let two_queue: [Command; 4] = [
            Command::Move { src: a, dst: b },
            Command::Copy { src: a, dst: b },
            Command::OverwriteAndMove {
                src: a,
                dst: b,
                data: vec![1],
            },
            Command::OverwriteLenAndMove {
                src: a,
                dst: b,
                new_len: 1,
            },
        ];
        for cmd in &two_queue {
            assert_eq!(cmd.primary_flow(), a, "{}", cmd.name());
            assert_eq!(cmd.secondary_flow(), Some(b), "{}", cmd.name());
        }
    }

    #[test]
    fn execute_full_command_mix() {
        let mut m = qm();
        let a = FlowId::new(1);
        let b = FlowId::new(2);
        m.execute(Command::Enqueue {
            flow: a,
            data: vec![1; 64],
            pos: SegmentPosition::First,
        })
        .unwrap();
        m.execute(Command::Enqueue {
            flow: a,
            data: vec![2; 32],
            pos: SegmentPosition::Last,
        })
        .unwrap();
        let r = m.execute(Command::Read { flow: a }).unwrap();
        assert!(matches!(r, Outcome::Segment(ref s) if s.data == vec![1; 64]));
        m.execute(Command::Overwrite {
            flow: a,
            data: vec![9; 64],
        })
        .unwrap();
        m.execute(Command::Move { src: a, dst: b }).unwrap();
        let out = m.execute(Command::Dequeue { flow: b }).unwrap();
        assert!(matches!(out, Outcome::Segment(ref s) if s.data == vec![9; 64]));
        let dropped = m.execute(Command::DeleteSegment { flow: b }).unwrap();
        assert_eq!(dropped, Outcome::Dropped { segs: 1, bytes: 32 });
        m.verify().unwrap();
    }

    #[test]
    fn execute_append_and_fused() {
        let mut m = qm();
        let a = FlowId::new(3);
        let b = FlowId::new(4);
        m.enqueue_packet(a, b"body").unwrap();
        m.execute(Command::AppendHead {
            flow: a,
            data: b"hd ".to_vec(),
        })
        .unwrap();
        m.execute(Command::AppendTail {
            flow: a,
            data: b" tl".to_vec(),
        })
        .unwrap();
        m.execute(Command::OverwriteLenAndMove {
            src: a,
            dst: b,
            new_len: 2,
        })
        .unwrap();
        assert_eq!(m.dequeue_packet(b).unwrap(), b"hdbody tl");
        m.verify().unwrap();
    }

    #[test]
    fn execute_propagates_errors() {
        let mut m = qm();
        let err = m.execute(Command::Dequeue {
            flow: FlowId::new(0),
        });
        assert!(matches!(err, Err(QueueError::QueueEmpty { .. })));
        let err = m.execute(Command::DeletePacket {
            flow: FlowId::new(0),
        });
        assert!(matches!(err, Err(QueueError::QueueEmpty { .. })));
    }
}
