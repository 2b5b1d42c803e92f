// The model's corpus, replayed by `model::corpus_replays_to_its_digests`:
// each script must agree with the model at every step and end at `digest`,
// the engine's `state_digest`, in debug and release builds alike. A new
// script goes in with `digest: 0`; the failure prints the value to commit.
// `tests/open_tail_regressions.rs` replays the open-tail ones by name.
[
    // Flows 0, 1 and 2 live on shards 2, 3 and 0: work crosses with the packet.
    Script {
        name: "cross_shard_copy_and_move_keep_work",
        shape: Shape { flows: 4, segments: 16, seg_bytes: 16, freelist: Lifo, shards: 4 },
        steps: &[
            EnqueuePacket(0, 30, 7), EnqueuePacket(0, 30, 9), CopyPacket(0, 1), MovePacket(0, 1),
            MovePacket(1, 2), DequeuePacket(2, Some(4)),
        ],
        digest: 0xcb0cb7ad_81f5b8a5,
    },
    // The open-tail regressions: commands that spliced packets or trailers
    // around a tail still mid-SAR, tearing frames while `verify` passed.
    Script {
        name: "move_into_open_destination_is_rejected",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 7, 0), Enqueue(1, 64, First), MovePacket(0, 1), Enqueue(1, 10, Last),
            DequeuePacket(1, None), DequeuePacket(0, None),
        ],
        digest: 0x8f91f703_ad8eca60,
    },
    Script {
        name: "rotate_past_open_tail_is_rejected",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(3, 30, 0), Enqueue(3, 64, First), MovePacket(3, 3), Enqueue(3, 10, Last),
            DequeuePacket(3, None), DequeuePacket(3, None), EnqueuePacket(3, 3, 0),
            EnqueuePacket(3, 3, 0), MovePacket(3, 3), DequeuePacket(3, None), DequeuePacket(3, None),
        ],
        digest: 0x9d8d2b3b_3da05fce,
    },
    Script {
        name: "append_tail_on_open_packet_is_rejected",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            Enqueue(5, 64, First), AppendTail(5, 7), Enqueue(5, 10, Last), AppendTail(5, 7),
            DequeuePacket(5, None),
        ],
        digest: 0xdf62e466_d39b53a7,
    },
    Script {
        name: "fused_moves_reject_open_destination",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 20, 0), Enqueue(1, 64, First), OverwriteAndMove(0, 1, 20),
            OverwriteLenAndMove(0, 1, 10),
        ],
        digest: 0xd60e04e7_13ddc99d,
    },
    Script {
        name: "move_of_partially_consumed_head_is_rejected",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 100, 0), Dequeue(0, None), EnqueuePacket(1, 10, 0), MovePacket(0, 1),
            EnqueuePacket(0, 10, 0), MovePacket(0, 0), Dequeue(0, None), DequeuePacket(0, None),
            EnqueuePacket(0, 100, 0), Dequeue(0, None), MovePacket(0, 2), Dequeue(2, None),
        ],
        digest: 0x4070f601_516e5ab6,
    },
    Script {
        name: "move_out_of_open_source_still_works",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 40, 0), Enqueue(0, 64, First), MovePacket(0, 1),
            DequeuePacket(1, None), Enqueue(0, 6, Last), DequeuePacket(0, None),
        ],
        digest: 0x1ecf8e37_41fb658a,
    },
    // A copy into a full shard rolls back, still counted; a head in service stays.
    Script {
        name: "cross_shard_refusals",
        shape: Shape { flows: 4, segments: 16, seg_bytes: 16, freelist: Fifo, shards: 4 },
        steps: &[
            EnqueuePacket(1, 224, 0), EnqueuePacket(0, 48, 5), CopyPacket(0, 1), MovePacket(0, 1),
            Dequeue(0, Some(1)), MovePacket(0, 2), OverwriteLenAndMove(0, 4, 16),
            PeekPacket(0, Some(0)),
        ],
        digest: 0x434b4107_765c3b45,
    },
    // Found building the model: a continuation with no open packet expects a start.
    Script {
        name: "last_segment_without_an_open_packet",
        shape: Shape { flows: 2, segments: 14, seg_bytes: 2, freelist: Fifo, shards: 1 },
        steps: &[Enqueue(0, 1, Last), Enqueue(0, 1, Middle)],
        digest: 0x9981c2e6_eebdfbd7,
    },
    // The occupancy index sleeps through commits on four flows, wakes on the
    // first query (a tie goes to flow 3) and follows the commits after it.
    Script {
        name: "occupancy_index_wakes_on_its_first_query",
        shape: Shape { flows: 4, segments: 24, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 40, 0), EnqueuePacket(1, 70, 0), Enqueue(2, 16, First),
            EnqueuePacket(3, 70, 0), Dequeue(0, None), LongestQueue(0), DequeuePacket(3, None),
            LongestQueue(4), EnqueuePacket(0, 48, 0), Enqueue(2, 16, Middle), AppendHead(1, 9),
            LongestQueue(2), Enqueue(2, 16, Last), MovePacket(1, 2), LongestQueue(1),
            DeletePacket(0), DeletePacket(0), OverwriteHeadLen(2, 4), LongestQueue(3),
            DequeuePacket(2, None), DequeuePacket(2, None), LongestQueue(0), EnqueuePacket(3, 5, 0),
        ],
        digest: 0xad9ad88f_d62f89e4,
    },
    // Degenerate shapes: one segment, one flow, one-byte segments.
    Script {
        name: "one_segment_pool",
        shape: Shape { flows: 2, segments: 1, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 17, 0), EnqueuePacket(0, 16, 3), EnqueuePacket(1, 1, 0),
            CopyPacket(0, 1), AppendHead(0, 4), MovePacket(0, 1), ReadHead(1),
            DequeuePacket(1, Some(2)), Enqueue(1, 16, First), ReadHead(1), Enqueue(1, 1, Middle),
        ],
        digest: 0xcf8e0625_759ae30f,
    },
    Script {
        name: "one_flow",
        shape: Shape { flows: 1, segments: 6, seg_bytes: 16, freelist: Fifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 40, 3), Enqueue(0, 5, First), MovePacket(0, 0), CopyPacket(0, 0),
            Enqueue(0, 5, Last), MovePacket(0, 0), CopyPacket(0, 0), MovePacket(0, 1),
            SetTailWork(1, 2), DequeuePacket(0, Some(3)), CopyPacket(0, 0), DeletePacket(0),
        ],
        digest: 0x80705a72_4015a4b9,
    },
    Script {
        name: "one_byte_segments",
        shape: Shape { flows: 2, segments: 8, seg_bytes: 1, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 5, 2), AppendHead(0, 1), AppendTail(0, 2), OverwriteHeadLen(0, 1),
            Dequeue(0, None), DeleteSegment(0), EnqueuePacket(1, 9, 0), DequeuePacket(0, Some(2)),
            EnqueuePacket(1, 8, 0), OverwriteHead(1, 1), PeekPacket(1, None),
        ],
        digest: 0x51d8e941_35393997,
    },
]
