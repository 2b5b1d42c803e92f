// The model's corpus, replayed by `model::corpus_replays_to_its_digests`:
// each script must agree with the model at every step and end at `digest`,
// the engine's `state_digest`, in debug and release builds alike. A new
// script goes in with `digest: 0`; the failure prints the value to commit.
// `tests/open_tail_regressions.rs` replays the open-tail ones by name.
[
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
            EnqueuePacket(1, 8, 0), OverwriteHead(1, 1), ReadHead(1),
        ],
        digest: 0x51d8e941_35393997,
    },
    // A length rewrite never grows a segment: flow 1's 4 bytes sit in the
    // slot flow 0's 16 bytes were freed from, and growing them back, even
    // after a cut, is refused.
    Script {
        name: "overwrite_len_never_exposes_stale_bytes",
        shape: Shape { flows: 2, segments: 2, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 16, 0), DequeuePacket(0, None), EnqueuePacket(1, 4, 0),
            OverwriteHeadLen(1, 16), OverwriteLenAndMove(1, 0, 9), OverwriteHeadLen(1, 2),
            OverwriteHeadLen(1, 3), ReadHead(1), DequeuePacket(1, None),
        ],
        digest: 0x9f5002d4_a2c64036,
    },
    // The one segment of a packet still mid-SAR does not end it: `read_head`
    // says `eop: false` until `Last` closes the packet, then `true`.
    Script {
        name: "read_head_of_open_packet_is_not_its_end",
        shape: Shape { flows: 2, segments: 8, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            Enqueue(0, 16, First), ReadHead(0), Enqueue(0, 8, Last), ReadHead(0),
            Enqueue(1, 8, First), ReadHead(1), DequeuePacket(0, None),
        ],
        digest: 0x666fc916_1610a878,
    },
    // A copy is a fresh packet, so the remainder of a head `dequeue` has
    // started is refused with `PacketInService`; the whole packet behind it
    // copies once it reaches the head.
    Script {
        name: "copy_of_served_head_is_rejected",
        shape: Shape { flows: 2, segments: 16, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 40, 0), EnqueuePacket(0, 20, 0), Dequeue(0, None), CopyPacket(0, 1),
            CopyPacket(0, 0), Dequeue(0, None), Dequeue(0, None), CopyPacket(0, 1),
        ],
        digest: 0x653ac93a_3098e8c5,
    },
    // Shards share nothing: flows 0, 1 and 2 live on shards 2, 3 and 0, so
    // every two-queue command between them is refused on the source's shard
    // and the fused overwrite does not land; an out-of-range flow (4, on
    // shard 0) still answers `UnknownFlow` first, on its own shard; flows 2
    // and 3, both on shard 0, still move and copy.
    Script {
        name: "two_queue_commands_across_shards_are_refused",
        shape: Shape { flows: 4, segments: 16, seg_bytes: 16, freelist: Lifo, shards: 4 },
        steps: &[
            EnqueuePacket(0, 30, 7), EnqueuePacket(2, 20, 0), CopyPacket(0, 1), MovePacket(0, 1),
            OverwriteAndMove(0, 1, 8), OverwriteLenAndMove(0, 2, 4), MovePacket(0, 4),
            CopyPacket(4, 0), MovePacket(2, 3), CopyPacket(3, 2), DequeuePacket(0, None),
        ],
        digest: 0xc867ba37_a7e949f8,
    },
    // Drop policies' offers, policies by `POLICIES` index. LQD (2) skips
    // flow 0's open tail and flow 1's served head, both longest, and of
    // flows 2 and 3, tied at 32 bytes, evicts flow 3; so does global LQD
    // (9) on one shard, then flow 2. Flow 0 (open tail) and flow 4 (out of
    // range) are doomed and a 200-byte arrival is hopeless: refused before
    // anything is evicted. The last offer evicts, then is refused.
    Script {
        name: "lqd_skips_open_and_served_longest_queues",
        shape: Shape { flows: 4, segments: 12, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            Enqueue(0, 16, First), Enqueue(0, 16, Middle), Enqueue(0, 16, Middle),
            Enqueue(0, 16, Middle), EnqueuePacket(1, 48, 0), EnqueuePacket(1, 16, 0),
            Dequeue(1, None), EnqueuePacket(2, 32, 0), EnqueuePacket(3, 32, 0), Offer(2, 32, 0, 2),
            DequeuePacket(2, None), AppendTail(1, 16), EnqueuePacket(3, 32, 0), Offer(0, 16, 0, 9),
            Offer(4, 16, 0, 2), Offer(2, 16, 0, 9), Offer(1, 200, 0, 8), Offer(2, 180, 0, 3),
            Offer(2, 80, 0, 2),
        ],
        digest: 0xa95a542e_c5a6f658,
    },
    // Global LQD (8, 9) over four shards: flows 0, 1 and 2 live on shards 2,
    // 3 and 0. An arrival on shard 0 evicts flow 0 on shard 2; then flows 0
    // and 1 tie at 48 bytes and the lower shard's pays.
    Script {
        name: "global_lqd_evicts_across_shards",
        shape: Shape { flows: 4, segments: 8, seg_bytes: 16, freelist: Fifo, shards: 4 },
        steps: &[
            EnqueuePacket(0, 64, 0), EnqueuePacket(1, 48, 0), Offer(2, 32, 5, 8),
            EnqueuePacket(0, 48, 0), Offer(3, 16, 0, 9),
        ],
        digest: 0x4a4ae213_85b3a9aa,
    },
    // Tail drop (0: 100 bytes, 3 packets, no reserve; 1: 40 bytes, 5
    // packets, one segment kept free): each cap binds, then the engine
    // refuses an arrival behind an open tail.
    Script {
        name: "tail_drop_caps_bind",
        shape: Shape { flows: 3, segments: 16, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            Offer(0, 60, 9, 0), Offer(0, 40, 0, 0), Offer(0, 1, 0, 0), Offer(1, 1, 0, 0),
            Offer(1, 1, 0, 0), Offer(1, 1, 0, 0), Offer(1, 1, 0, 0), Offer(1, 40, 0, 1),
            Offer(1, 37, 0, 1), Offer(2, 40, 0, 1), Enqueue(2, 16, First), Offer(2, 1, 0, 0),
        ],
        digest: 0x76a0993b_5dcbdcdf,
    },
    // Work push-out (6) evicts only a costlier head, work/size balance (7)
    // only a denser one (of two heads tied in density, the larger), and
    // dynamic thresholds (4, 5) cap a flow at a multiple of the free space.
    Script {
        name: "work_push_outs_and_dynamic_thresholds",
        shape: Shape { flows: 3, segments: 8, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            Offer(0, 32, 9, 6), Offer(1, 32, 3, 6), Offer(2, 48, 3, 6), Offer(2, 16, 3, 6),
            Offer(1, 32, 9, 6), Offer(0, 16, 1, 7), Offer(0, 32, 1, 7), Offer(1, 16, 0, 7),
            Offer(1, 32, 0, 7), Offer(1, 64, 0, 4), DequeuePacket(2, None), Offer(2, 16, 0, 5),
        ],
        digest: 0xaad52e2e_de0e19b6,
    },
    // Schedulers' picks, schedulers by `SCHEDULERS` index. DRR (2: quanta 64,
    // 32, 64) splits bytes by quantum, not by packet: in four rounds flow 0
    // sends one 256-byte packet, flow 1 two of 64 bytes and flow 2 four.
    Script {
        name: "drr_splits_bytes_by_quantum",
        shape: Shape { flows: 3, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 256, 0), EnqueuePacket(0, 256, 0), EnqueuePacket(1, 64, 0),
            EnqueuePacket(1, 64, 0), EnqueuePacket(1, 64, 0), EnqueuePacket(1, 64, 0),
            EnqueuePacket(2, 64, 0), EnqueuePacket(2, 64, 0), EnqueuePacket(2, 64, 0),
            EnqueuePacket(2, 64, 0), EnqueuePacket(2, 64, 0), EnqueuePacket(2, 64, 0),
            Drain(0, 2), Drain(0, 2), Drain(0, 2), Drain(0, 2), Drain(0, 2), Drain(0, 2),
            Drain(0, 2),
        ],
        digest: 0x60772049_c1e1c620,
    },
    // A DRR queue (2: quanta 64 and 32) that empties while it holds the round
    // forfeits its deficit: flow 0 keeps 54 bytes of it when its 10-byte
    // packet leaves, loses them when flow 1's turn finds it empty, and so
    // sends one 40-byte packet in its next turn, not two.
    Script {
        name: "drr_empty_queue_forfeits_deficit",
        shape: Shape { flows: 2, segments: 16, seg_bytes: 16, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 10, 0), Drain(0, 2), EnqueuePacket(1, 32, 0), Drain(0, 2),
            EnqueuePacket(0, 40, 0), EnqueuePacket(0, 40, 0), EnqueuePacket(1, 32, 0),
            EnqueuePacket(1, 32, 0), Drain(0, 2), Drain(0, 2),
        ],
        digest: 0xf61a44b7_7088f6b4,
    },
    // HTB leaves at rates 250 and 750 of 1000 that cannot borrow (7): after
    // flow 0's first packet empties its 16-byte bucket, it waits out three of
    // flow 1's.
    Script {
        name: "rates_split_bandwidth_three_to_one",
        shape: Shape { flows: 2, segments: 16, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 64, 0), EnqueuePacket(1, 64, 0), EnqueuePacket(0, 64, 0),
            EnqueuePacket(1, 64, 0), EnqueuePacket(0, 64, 0), EnqueuePacket(1, 64, 0),
            EnqueuePacket(0, 64, 0), EnqueuePacket(1, 64, 0), EnqueuePacket(0, 64, 0),
            EnqueuePacket(1, 64, 0), EnqueuePacket(0, 64, 0), EnqueuePacket(1, 64, 0),
            Drain(0, 7), Drain(0, 7), Drain(0, 7), Drain(0, 7), Drain(0, 7), Drain(0, 7),
            Drain(0, 7), Drain(0, 7),
        ],
        digest: 0xd6e4779e_ab2c6349,
    },
    // A one-byte quantum once gave up after 64 rounds over a backlog: DRR (3)
    // answered `None` over a 1500-byte packet, and the HTB level of two
    // quantum-1 leaves (6: flows 1 and 5) passed its turn down.
    Script {
        name: "drr_small_quantum_never_idles_over_backlog",
        shape: Shape { flows: 6, segments: 32, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 1500, 0), Drain(0, 3), EnqueuePacket(1, 900, 0),
            EnqueuePacket(3, 100, 0), EnqueuePacket(5, 800, 0), Drain(0, 6), Drain(0, 6),
            Drain(0, 6), Drain(0, 6),
        ],
        digest: 0x1848777e_7f1caf7e,
    },
    // Borrowers go before leaves over a ceil (6: flows 0 and 1 at rate 100 on
    // a 1000 link). Flow 0's ceil is its rate, so once its bucket is empty it
    // is over it; flow 1 keeps within its ceil of 1000 and borrows from the
    // root, so it wins the fourth drain though flow 0 is first in the round.
    Script {
        name: "htb_borrowers_go_before_over_ceil_leaves",
        shape: Shape { flows: 2, segments: 16, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 100, 0), EnqueuePacket(0, 100, 0), EnqueuePacket(1, 100, 0),
            EnqueuePacket(1, 100, 0), EnqueuePacket(1, 100, 0), Drain(0, 6), Drain(0, 6),
            Drain(0, 6), Drain(0, 6),
        ],
        digest: 0xcec91026_8da39b59,
    },
    // HTB edges (8: buckets of 2^62 bytes × a capacity of 2^64 − 1 beside
    // 64-byte ones; 9 and 10: a ceil below its rate and a bucket one burst
    // byte too deep, which `from_spec` refuses, so nothing drains).
    Script {
        name: "htb_edges_run_or_are_refused",
        shape: Shape { flows: 2, segments: 8, seg_bytes: 64, freelist: Fifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 64, 0), EnqueuePacket(1, 64, 0), EnqueuePacket(1, 64, 0),
            Drain(0, 9), Drain(0, 10), Drain(0, 8), Drain(1, 8), Drain(1, 8), Drain(1, 8),
        ],
        digest: 0xe223b612_eee3e202,
    },
    // Tenant A floods an HTB trunk (11: two leaves at rate 500 of 1000, each
    // with a ceil of the whole link) with four times tenant B's backlog of
    // 640-byte packets. Both stay within their rates, so DRR at the default
    // 1518-byte quantum serves two packets a turn, and B, offering exactly
    // its guarantee, gets half of the eight packets drained.
    Script {
        name: "overloaded_sibling_cannot_starve_a_guarantee",
        shape: Shape { flows: 2, segments: 200, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0),
            EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0),
            EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0),
            EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0),
            EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0), EnqueuePacket(0, 640, 0),
            EnqueuePacket(0, 640, 0), EnqueuePacket(1, 640, 0), EnqueuePacket(1, 640, 0),
            EnqueuePacket(1, 640, 0), EnqueuePacket(1, 640, 0), Drain(0, 11), Drain(0, 11),
            Drain(0, 11), Drain(0, 11), Drain(0, 11), Drain(0, 11), Drain(0, 11), Drain(0, 11),
        ],
        digest: 0xffa12282_6dfa6187,
    },
    // A 2,047-byte packet over 64-byte segments (31 full segments and a
    // 63-byte tail), under each free-list discipline: two fill the pool exactly, a one-byte third is
    // refused, two come back whole, one through a lent buffer, and the
    // last stays queued, so the digest reads its bytes. The digest reads no
    // segment id, so both disciplines end at one value; the model checks
    // the free list after every step.
    Script {
        name: "max_packet_over_64_byte_segments_lifo",
        shape: Shape { flows: 2, segments: 64, seg_bytes: 64, freelist: Lifo, shards: 1 },
        steps: &[
            EnqueuePacket(1, 2047, 0), EnqueuePacket(0, 2047, 0), EnqueuePacket(1, 1, 0),
            DequeuePacket(1, None), EnqueuePacket(1, 2047, 0), DequeuePacket(0, Some(3)),
        ],
        digest: 0x4a06f80f_2c2ec93f,
    },
    Script {
        name: "max_packet_over_64_byte_segments_fifo",
        shape: Shape { flows: 2, segments: 64, seg_bytes: 64, freelist: Fifo, shards: 1 },
        steps: &[
            EnqueuePacket(1, 2047, 0), EnqueuePacket(0, 2047, 0), EnqueuePacket(1, 1, 0),
            DequeuePacket(1, None), EnqueuePacket(1, 2047, 0), DequeuePacket(0, Some(3)),
        ],
        digest: 0x4a06f80f_2c2ec93f,
    },
]
