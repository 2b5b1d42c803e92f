//! Per-command DQM micro-programs over the ZBT pointer memory.
//!
//! Table 4 reports the *execution latency* of each command: the interval
//! during which the DQM FSM owns the pointer memory. The paper does not
//! print the FSM schedules, so they are reconstructed here from the §5.2/§6
//! data-structure description (free list, queue table, packet/segment
//! pointer planes) such that each schedule (a) performs the pointer
//! operations the command logically requires and (b) sums to the published
//! latency. `microcode_for` is the single source of truth; both Table 4 and
//! the Table 5 system simulation consume it.
//!
//! One micro-op per cycle (the ZBT SRAM accepts one access per cycle with
//! no turnaround); `Decode` models the 2-cycle command parse/port grant.

use crate::command::MmsCommand;

/// Which pointer-memory plane a micro-op touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Plane {
    /// The per-flow queue table.
    QueueTable,
    /// Packet records.
    Packet,
    /// Segment records (also free-list links).
    Segment,
}

/// One cycle of DQM work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroOp {
    /// Command decode / port grant (2 cycles).
    Decode,
    /// Pointer-memory read.
    PtrRead(Plane),
    /// Pointer-memory write.
    PtrWrite(Plane),
    /// Hand the data address to the DMC ("a data access can start right
    /// after the first pointer memory access of each command").
    DmcKick,
    /// Drive the response/acknowledge interface.
    Respond,
}

impl MicroOp {
    /// Cycles this micro-op occupies the FSM.
    pub const fn cycles(self) -> u64 {
        match self {
            MicroOp::Decode => 2,
            _ => 1,
        }
    }

    /// Whether this op accesses the pointer memory.
    pub const fn is_pointer_access(self) -> bool {
        matches!(self, MicroOp::PtrRead(_) | MicroOp::PtrWrite(_))
    }
}

use MicroOp::{Decode, DmcKick, PtrRead, PtrWrite, Respond};
use Plane::{Packet, QueueTable, Segment};

/// The reconstructed FSM schedule of `cmd`.
pub const fn microcode_for(cmd: MmsCommand) -> &'static [MicroOp] {
    match cmd {
        // Pop free list, link segment at the queue tail, kick the write.
        MmsCommand::Enqueue => &[
            Decode,
            PtrRead(QueueTable),  // tail pointer (+ data address for DMC)
            PtrRead(Segment),     // free-list head -> allocated segment
            DmcKick,              // start the 64-byte write in parallel
            PtrRead(Packet),      // tail packet record (for the last-seg link)
            PtrWrite(Segment),    // old tail's next-pointer
            PtrWrite(Packet),     // tail packet record (last, counts)
            PtrWrite(QueueTable), // queue record write-back
            Respond,
        ],
        // Locate the head segment, kick the read, report flags.
        MmsCommand::Read => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Packet),
            PtrRead(Segment),
            DmcKick,
            PtrRead(Segment), // next-segment prefetch for the SOP/EOP flags
            Respond,
            Respond, // response beats: flags + data handle
            Respond,
        ],
        // Locate the head segment, kick the write, update its record.
        MmsCommand::Overwrite => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Packet),
            PtrRead(Segment),
            DmcKick,
            PtrWrite(Segment),
            PtrWrite(Packet),
            PtrWrite(QueueTable), // byte-count write-back
            Respond,
        ],
        // Unlink head packet from src queue, link at dst tail. No data.
        MmsCommand::Move => &[
            Decode,
            PtrRead(QueueTable),  // src queue
            PtrRead(Packet),      // head packet record
            PtrWrite(QueueTable), // src queue write-back
            PtrRead(QueueTable),  // dst queue
            PtrRead(Packet),      // dst tail packet record
            PtrWrite(Packet),     // dst old tail's next-packet link
            PtrWrite(Packet),     // moved packet record
            PtrWrite(QueueTable), // dst queue write-back
            Respond,
        ],
        // Unlink head segment, push on the free list. No data access.
        MmsCommand::Delete => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Packet),
            PtrWrite(Segment), // free-list push (link rewrite)
            PtrWrite(QueueTable),
            Respond,
        ],
        // Patch the head segment's length field. No data access.
        MmsCommand::OverwriteSegmentLength => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Segment),
            PtrWrite(Segment),
            PtrWrite(QueueTable),
            Respond,
        ],
        // Unlink head segment, free it, kick the read, update records.
        MmsCommand::Dequeue => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Packet),
            PtrRead(Segment),
            DmcKick,
            PtrWrite(Segment), // free-list push
            PtrWrite(Packet),
            PtrWrite(QueueTable),
            Respond,
            Respond, // response beats: flags + data handle
        ],
        // Length patch fused with the move sequence.
        MmsCommand::OverwriteSegmentLengthAndMove => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Segment),
            PtrWrite(Segment),
            PtrRead(Packet),
            PtrWrite(QueueTable), // src write-back
            PtrRead(QueueTable),  // dst queue
            PtrWrite(Packet),     // dst tail link
            PtrWrite(Packet),     // moved packet record
            PtrWrite(QueueTable), // dst write-back
            Respond,
        ],
        // Payload overwrite fused with the move sequence.
        MmsCommand::OverwriteSegmentAndMove => &[
            Decode,
            PtrRead(QueueTable),
            PtrRead(Segment),
            DmcKick,
            PtrWrite(Segment),
            PtrRead(Packet),
            PtrWrite(QueueTable),
            PtrRead(QueueTable),
            PtrWrite(Packet),
            PtrWrite(QueueTable),
            Respond,
        ],
    }
}

/// Execution latency of `cmd` in DQM cycles (a Table 4 cell).
pub fn execution_cycles(cmd: MmsCommand) -> u64 {
    microcode_for(cmd).iter().map(|op| op.cycles()).sum()
}

/// Cycle offset (from command start) at which the DMC is kicked, if the
/// command touches the data memory.
pub fn dmc_kick_offset(cmd: MmsCommand) -> Option<u64> {
    let mut at = 0;
    for op in microcode_for(cmd) {
        if matches!(op, MicroOp::DmcKick) {
            return Some(at);
        }
        at += op.cycles();
    }
    None
}

/// The paper's published Table 4.
pub const PAPER_TABLE4: [(MmsCommand, u64); 9] = [
    (MmsCommand::Enqueue, 10),
    (MmsCommand::Read, 10),
    (MmsCommand::Overwrite, 10),
    (MmsCommand::Move, 11),
    (MmsCommand::Delete, 7),
    (MmsCommand::OverwriteSegmentLength, 7),
    (MmsCommand::Dequeue, 11),
    (MmsCommand::OverwriteSegmentLengthAndMove, 12),
    (MmsCommand::OverwriteSegmentAndMove, 12),
];

/// Regenerates Table 4 from the micro-programs.
pub fn run_table4() -> Vec<(MmsCommand, u64)> {
    MmsCommand::ALL
        .iter()
        .map(|&c| (c, execution_cycles(c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_paper_table_4_exactly() {
        for (cmd, expected) in PAPER_TABLE4 {
            assert_eq!(
                execution_cycles(cmd),
                expected,
                "{} should take {expected} cycles",
                cmd.name()
            );
        }
    }

    #[test]
    fn enqueue_dequeue_average_is_10_5() {
        // "the execution accounts only for 10.5 cycles of overhead delay"
        // (§6.1) — the steady-state enqueue/dequeue mix.
        let avg = (execution_cycles(MmsCommand::Enqueue) + execution_cycles(MmsCommand::Dequeue))
            as f64
            / 2.0;
        assert!((avg - 10.5).abs() < 1e-12);
    }

    #[test]
    fn data_commands_kick_the_dmc_after_first_pointer_access() {
        for cmd in MmsCommand::ALL {
            match dmc_kick_offset(cmd) {
                Some(at) => {
                    assert!(cmd.touches_data_memory(), "{cmd} kicks DMC unexpectedly");
                    // "a data access can start right after the first pointer
                    //  memory access of each command has been completed":
                    // decode (2 cycles) + >=1 pointer access.
                    assert!(at >= 3, "{cmd} kicks too early ({at})");
                    assert!(at <= 5, "{cmd} kicks too late ({at})");
                }
                None => assert!(!cmd.touches_data_memory(), "{cmd} never kicks DMC"),
            }
        }
    }

    #[test]
    fn every_program_starts_with_decode_and_touches_pointers() {
        for cmd in MmsCommand::ALL {
            let prog = microcode_for(cmd);
            assert_eq!(prog[0], MicroOp::Decode, "{cmd}");
            assert!(
                prog.iter().any(|op| op.is_pointer_access()),
                "{cmd} must touch the pointer memory"
            );
        }
    }

    #[test]
    fn pointer_only_commands_are_cheapest() {
        // Structural claim of Table 4: commands that skip the data memory
        // (Delete, Overwrite_Segment_length) are the two cheapest rows.
        let cheapest = MmsCommand::ALL
            .iter()
            .min_by_key(|c| execution_cycles(**c))
            .copied()
            .unwrap();
        assert!(!cheapest.touches_data_memory());
        assert_eq!(execution_cycles(MmsCommand::Delete), 7);
        assert_eq!(execution_cycles(MmsCommand::OverwriteSegmentLength), 7);
    }

    #[test]
    fn fused_commands_cost_less_than_their_parts() {
        // Fusing saves a decode + respond round-trip.
        let fused = execution_cycles(MmsCommand::OverwriteSegmentAndMove);
        let parts = execution_cycles(MmsCommand::Overwrite) + execution_cycles(MmsCommand::Move);
        assert!(fused < parts, "fused {fused} parts {parts}");
    }

    #[test]
    fn run_table4_covers_all_commands() {
        let t = run_table4();
        assert_eq!(t.len(), 9);
        assert_eq!(t, PAPER_TABLE4.to_vec());
    }

    #[test]
    fn micro_op_cycle_costs() {
        assert_eq!(MicroOp::Decode.cycles(), 2);
        assert_eq!(MicroOp::PtrRead(Plane::Segment).cycles(), 1);
        assert_eq!(MicroOp::DmcKick.cycles(), 1);
        assert_eq!(MicroOp::Respond.cycles(), 1);
        assert!(MicroOp::PtrWrite(Plane::QueueTable).is_pointer_access());
        assert!(!MicroOp::Respond.is_pointer_access());
    }
}
