#!/usr/bin/env bash
# CI for the npqm workspace. Runs offline: every dependency is an in-repo
# path crate (see crates/npqm-prop for the proptest stand-in). The hosted
# pipeline in .github/workflows/ci.yml runs exactly this script, split
# into a two-job matrix: `quick` on pull requests, the full pipeline on
# pushes to main. No stage gates host time: that is bench/run.sh's job.
#
#   ./ci.sh         # full pipeline: structure greps (no thread, lock or
#                   # atomic in the engine and traffic crates, and no
#                   # thread-count knob anywhere; one push-out loop, no
#                   # event queue in the traffic loops, one closed
#                   # loop, each
#                   # engine step of manager.rs
#                   # written once, no cut_through, the access trace
#                   # cut and never committed, one DDR slot loop, one
#                   # count per event, one writer of busy time and no
#                   # grouped batch executor, no swept name, one model
#                   # of the engine, no occupancy pushes before the
#                   # first query, no scale payload arena, no pointer
#                   # record written before first use, no cross-shard
#                   # transfer path, no second telemetry tally, no
#                   # whole-record queue commit), fmt,
#                   # clippy, docs,
#                   # tier-1, release-profile engine tests, the model
#                   # fuzzer's release soak, tables,
#                   # golden checks, telemetry trace export + traced vs
#                   # untraced reconciliation, every example,
#                   # repo-benchmark smoke + digest check, bench
#                   # artifacts, bench gate (simulated leaves equal,
#                   # host leaves ignored)
#   ./ci.sh quick   # structure greps, tier-1 (build + test) plus the
#                   # table6 .. table11 golden checks, so even the fast
#                   # path catches torn-frame, conservation,
#                   # shard-scaling, memory-timing, competitive-ratio,
#                   # streaming-service and QoS-isolation regressions
set -euo pipefail
cd "$(dirname "$0")"

tier1() {
    echo "==> cargo build --release"
    cargo build --release
    echo "==> cargo test -q"
    cargo test -q
}

# Shards run on the calling thread: worker threads were measured against
# the modelled N-engine composite and lost on wall clock every time, so
# above its tests no file of the engine and traffic crates may spawn or
# scope a thread, lock, use an atomic, or bring back channels, timeouts or
# yield-pacing (comments stripped), and the thread-count knobs — the claim
# fan-out, the thread sweep, the environment variable and the pipeline's
# parallel switch — stay deleted everywhere (README.md may tell the
# history in prose).
# One push-out loop: `policy::push_out` is the only place a victim joins
# an `evicted` list (LQD, po-work, work-balance and global LQD keep just
# their victim choice), and the occupancy snapshot and the trait that
# only the fourth copy of that loop needed stay deleted. The test-only
# model (`npqm-core/src/model.rs`) is not counted: it is the oracle that
# loop is held to, and predicts the same list by its own eviction.
# Each engine step once: `manager.rs` builds its commands from private
# steps, so the free list's single-segment `alloc` is called in one place
# (`fresh_segment`, under `enqueue`, `append_head` and `append_tail`) and
# its `release` in one (`pop_segment`, under `dequeue_into` and
# `delete_segment`) — every whole-packet call goes through `alloc_chain` /
# `release_chain`, so a second line of either is a command re-spelling a
# step or a hand-rolled chain loop coming back — and the complete-head
# rule is spelled once (`complete_head`). The `cut_through` switch, which
# only tests ever set, stays deleted.
# The trace is cut, never committed: an engine keeps one access log and
# `cut_trace` (defined in `manager.rs`) is its only reader — named by
# `shard.rs`'s `take_trace` (one cut of every shard, for the timing
# model's `charge_engine`) and by `execute_costed` (`timing/mod.rs`),
# nowhere else above the tests (comments stripped). Span lists and
# their commit calls, the memory-priced closed loop that only tests ever
# built (`timing_paper`, `Egress`, the `MemTx` event) and the Prometheus
# exporter nothing scraped stay deleted.
# One DDR slot loop, one count per event: §3's access cycle is
# `DdrChannel::step` (`replay.rs`), the only caller of the bank tracker's
# `turnaround_penalty` and `issue`; `run_schedule` (Table 1) and `drain`
# (`table8`) only drive it, and the `Scheduler` trait and the dense /
# `select_sparse` pair that the second copy of the loop needed stay
# deleted. A policy answers an offer with an `Admission` or a `Refusal`
# and the loops count from those, so the counters the policies kept for
# their own unit tests (`PolicyStats`, `DropStats`) stay deleted, as do
# the derives for a `serde` feature no manifest declares and `table10`'s
# `NPQM_TRACE` fallback.
# One writer of busy time: `ShardedQueueManager::for_each_shard`
# (`shard.rs`) holds the only `busy +=` above the tests of `npqm-core` and
# `npqm-traffic`: the scale rounds, the service's serve phase and the
# builder's shard-local loops all run through it, so no loop keeps a clock
# of its own. A batch is its one-by-one replay: the grouped batch executor
# (`shard/parallel.rs`, its `Group` and `run_pending`) stays deleted, and
# the three shims the benchmark ladder still compiles against
# (`execute_batch_parallel`, `offer_batch_parallel`, `parallel_stats`) are
# named nowhere in the workspace but their definitions. The per-command
# result slots' executor, the lending drain and its types, the
# untimed slice of every engine (`shards_mut`) named anywhere but at its
# definition and in the builder's one closed-loop scope, and the public
# surface only tests called (the second packet generator `trace::Trace` /
# `TraceRecord`, `FlowTable`, `WORST_CASE`, `queue_work`) stay deleted.
# One model of the engine: `npqm-core`'s test-only `model` module (and the
# corpus it replays) is the oracle every engine call is held to, so the
# hand-written oracles it replaced — the property tests' `Oracle` and
# `SarOp`, the manager tests' own `step_strategy`, and the batch
# equivalence file's command and step generators (`op_strategy`,
# `materialize`, `step_strategy`) with its LQD-against-LQD oracle — stay
# deleted, and the open-tail regression file only replays corpus scripts
# (it names no engine call of its own). The model predicts every drop
# policy's offer and every `from_spec` scheduler's pick too, so the
# scheduler proptests (`mod sched_props`) stay deleted, and DRR never
# gives up after a bounded number of rounds (no `0..64` in
# `sched/mod.rs`). The dead surface judged with them (`to_wire`,
# `cycles_ceil`, `egress_htb`, the DRR `deficit` accessors) stays gone.
# Pay only for what is read: the occupancy heap is pushed only by
# `commit_queue`, under its `active` guard (set by the first
# `longest_queue` call), and by `rebuild_occupancy`, so an engine no policy
# queries keeps no heap; and the scale round offers prefixes of a per-shard
# filler frame, so `scale.rs` keeps no payload arena above its tests.
# Pointer records are written on first use: `ptrmem.rs` builds no segment
# or packet plane of default records up front, and `SegFreeList::init` /
# `PktFreeList::init` link nothing (no loop) — the free lists keep their
# never-used ids as a fresh mark and materialise a record when they first
# hand its id out.
# Shards share nothing: a two-queue command across shards is refused
# before it touches either engine, so the transfer path (`move_across`,
# `copy_across`, `execute_cross`), its two-engine barrier (`CrossBarrier`,
# `EngineTrace`, `trace_barriers`, `sync_to_slot`), the engine methods
# only it called (`peek_packet_into`, `enqueue_packet_with_work`) and the
# arena's second copy of the cut loop (`per_flow_interval_bound`) stay
# deleted.
# Queue-table commits edit in place: `commit_queue` lends its caller's edit
# the record where it lives (`PtrMem::queue_mut`, one counted write) and
# takes no `QueueRecord` by value, and no engine code above the tests calls
# `set_queue` — a whole edited copy stored back was reloaded right after
# its field stores, the hottest stall of the scale round.
structure() {
    echo "==> structure: shards run on the calling thread"
    local hits file
    hits="$(for file in $(find crates/npqm-core/src crates/npqm-traffic/src -name '*.rs' | sort); do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' \
            | grep -nE 'thread::(scope|spawn)|Mutex|Condvar|Atomic|sync_channel|recv_timeout|yield_now' \
            | sed "s|^|${file}:|" || true
    done)"
    # Spelled in pieces so that this line does not match itself.
    hits+="$(grep -rnE 'for_each_''claimed|run_thread_''sweep|threads_from_''env|NPQM_''THREADS|\.parallel\(' \
        crates examples tests src ci.sh || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a thread, lock, atomic or thread-count knob is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one push-out loop in npqm-core + npqm-traffic, into a lent buffer"
    hits="$(grep -rnE '(victims|evicted)\.push\(' crates/npqm-core/src crates/npqm-traffic/src \
        | grep -v '^crates/npqm-core/src/model\.rs:' || true)"
    if [[ "$(grep -c . <<<"${hits}")" != 1 || "${hits}" != crates/npqm-core/src/policy.rs:*victims.push\(* ]]; then
        echo "structure FAILED: expected one push, of the lent victims buffer inside" \
            "policy::push_out; got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    hits="$(grep -rnE 'GlobalOccupancy|GlobalDropPolicy|offer_global|refresh_occupancy' \
        crates examples tests src README.md || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: the global-LQD side abstractions are back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one completion slot per egress server, no event queue in the loops"
    # ClosedLoop::serve takes one type parameter and writes the server's
    # one completion slot in place, `self.tx[shard] = Some(..)` once in its
    # body: no slot in its signature, nothing returned.
    local sig body
    hits="$(for file in crates/npqm-traffic/src/*.rs; do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | grep -nE 'EventQueue|BinaryHeap' | sed "s|^|${file}:|" || true
    done)"
    body="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/pipeline.rs | sed 's|//.*||' \
        | sed -n '/^    fn serve</,/^    }$/p')"
    sig="$(sed -n '0,/{$/p' <<<"${body}")"
    if [[ -n "${hits}" || -z "${sig}" ]] || grep -qE 'fn serve<[^>]*,' <<<"${sig}" \
        || [[ "$(tail -n 1 <<<"${sig}")" != *') {' ]] \
        || grep -qF 'Option<(Picos, TxDone)>' <<<"${sig}" \
        || [[ "$(grep -cF 'self.tx[shard] = Some(' <<<"${body}")" != 1 ]]; then
        echo "structure FAILED: an event queue is back in npqm-traffic, or ClosedLoop::serve" \
            "does not write the one completion it started into its server's slot; got:" >&2
        echo "${hits}" >&2
        echo "${body}" >&2
        exit 1
    fi
    echo "==> structure: one closed loop"
    # Every pipeline run and every service shard step pipeline.rs's
    # ClosedLoop: above the tests of npqm-traffic (comments stripped), the
    # second loop's state, scope and service path stay deleted and one
    # complete_until picks every completion.
    hits="$(for file in crates/npqm-traffic/src/*.rs; do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' \
            | grep -nE 'LoopState|ShardLocal|fn start_service\b|fn complete_until\b' | sed "s|^|${file}:|" || true
    done)"
    if [[ "$(grep -c . <<<"${hits}")" != 1 \
        || "${hits}" != crates/npqm-traffic/src/pipeline.rs:*'pub(crate) fn complete_until<'* ]]; then
        echo "structure FAILED: expected one complete_until, ClosedLoop's in pipeline.rs, and no" \
            "LoopState, ShardLocal or start_service above the tests of npqm-traffic; got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: no divide on the loops' per-packet path"
    # Transmit times come from one table per run: above the tests of
    # pipeline.rs and service.rs (comments stripped), tx_time( is called
    # once, where pipeline.rs's tx_table fills the table.
    hits="$(for file in crates/npqm-traffic/src/pipeline.rs crates/npqm-traffic/src/service.rs; do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' | grep -n 'tx_time(' \
            | grep -v 'fn tx_time(' | sed "s|^|${file}:|" || true
    done)"
    body="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/pipeline.rs | sed 's|//.*||' \
        | sed -n '/^pub(crate) fn tx_table(/,/^}/p')"
    if [[ "$(grep -c . <<<"${hits}")" != 1 || "${hits}" != crates/npqm-traffic/src/pipeline.rs:* \
        || "$(grep -c 'tx_time(' <<<"${body}")" != 1 ]]; then
        echo "structure FAILED: tx_time( above the tests of pipeline.rs / service.rs belongs" \
            "only where tx_table fills the transmit table; got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    # A packet's segment count is QmConfig::segments_for, a shift: no
    # div_ceil( by a segment size above the tests of these files.
    hits="$(for file in crates/npqm-core/src/manager.rs crates/npqm-core/src/policy.rs \
        crates/npqm-core/src/limits.rs crates/npqm-traffic/src/service.rs \
        crates/npqm-traffic/src/scale.rs; do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' | grep -nE 'div_ceil\([^;]*seg' \
            | sed "s|^|${file}:|" || true
    done)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a segment count divides by the segment size (use" \
            "QmConfig::segments_for); got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: each engine step of manager.rs is written once"
    # Above the tests, one line each: fresh_segment's seg_fl.alloc(,
    # pop_segment's seg_fl.release( (behind dequeue_with and so dequeue_into,
    # dequeue, and delete_segment) and complete_head's open-head test.
    local step
    for step in 'seg_fl\.alloc\(' 'seg_fl\.release\(' 'head_pkt == .*tail_pkt'; do
        hits="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-core/src/manager.rs | grep -nE "${step}" || true)"
        if [[ "$(grep -c . <<<"${hits}")" != 1 ]]; then
            echo "structure FAILED: expected one line matching '${step}' above the tests; got:" >&2
            echo "${hits}" >&2
            exit 1
        fi
    done
    hits="$(grep -rn 'cut_through' crates examples tests src README.md || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: the cut_through switch is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: the trace is cut, never committed"
    hits="$(grep -rnE 'commit_span|take_spans|span_count|charge_window|timing_paper|Egress::|record_mem_tx|MemTx|prometheus_text' \
        crates examples tests src README.md || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: span lists, the memory-timed loop or prometheus_text are back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    hits=""
    for file in $(grep -rlF 'cut_trace' crates examples tests src | sort); do
        if [[ -n "$(sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' | grep -E '\bcut_trace\b')" ]]; then
            hits+="${file} "
        fi
    done
    if [[ "${hits}" != "crates/npqm-core/src/manager.rs crates/npqm-core/src/shard.rs crates/npqm-core/src/timing/mod.rs " ]]; then
        echo "structure FAILED: cut_trace above the tests belongs to manager.rs, shard.rs and timing/mod.rs; got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one DDR slot loop, one count per event"
    local call
    for call in 'turnaround_penalty(' 'banks.issue('; do
        hits="$(for file in crates/npqm-mem/src/*.rs; do
            [[ "${file}" == */ddr.rs ]] && continue
            sed '/^#\[cfg(test)\]/,$d' "${file}" | grep -nF "${call}" | sed "s|^|${file}:|" || true
        done)"
        if [[ "$(grep -c . <<<"${hits}")" != 1 || "${hits}" != crates/npqm-mem/src/replay.rs:* ]]; then
            echo "structure FAILED: expected one '${call}' outside ddr.rs, in DdrChannel::step; got:" >&2
            echo "${hits}" >&2
            exit 1
        fi
    done
    hits="$(grep -rnE 'select_sparse|trait Scheduler|PolicyStats|DropStats|feature = "serde"|NPQM_TRACE' \
        crates examples tests src README.md Cargo.toml || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a second slot-loop form, a policy-side counter, the serde derives or NPQM_TRACE are back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one writer of busy time, no grouped batch executor"
    local body
    body="$(sed -n '/pub fn for_each_shard</,/^    }$/p' crates/npqm-core/src/shard.rs)"
    local pattern
    pattern='busy(\[[^]]*\])? *\+='
    hits="$(for file in $(grep -rlE "${pattern}" crates/npqm-core/src crates/npqm-traffic/src | sort); do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | grep -nE "${pattern}" \
            | grep -vE '^[0-9]+:\s*//' | sed "s|^|${file}:|" || true
    done)"
    if [[ "$(grep -cE "${pattern}" <<<"${body}")" != 1 \
        || "$(grep -c . <<<"${hits}")" != 1 \
        || "${hits}" != crates/npqm-core/src/shard.rs:* ]]; then
        echo "structure FAILED: busy time above the tests grows in for_each_shard" \
            "only (npqm-core, npqm-traffic); got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    # The batch shims bench/ compiles against are named nowhere else.
    hits="$(grep -rnE 'execute_batch_parallel|offer_batch_parallel|parallel_stats' \
        crates examples tests src \
        | grep -vE '^crates/npqm-core/src/shard\.rs:[0-9]+: *pub fn (execute_batch_parallel|offer_batch_parallel|parallel_stats)\(' \
        || true)"
    hits+="$(find crates -path '*/shard/parallel.rs')"
    hits+="$(grep -rnE 'struct Group\b|run_pending|run_groups|BatchDrain|LentSegment|dequeue_batch_into' \
        crates examples tests src README.md || true)"
    hits+="$(grep -rnE 'shards_mut|TraceRecord|trace::Trace|FlowTable|WORST_CASE|queue_work' \
        crates examples tests src README.md \
        | grep -vE '^crates/npqm-core/src/shard\.rs:[0-9]+:    pub fn shards_mut\(&mut self\) -> &mut \[QueueManager\] \{$' \
        | grep -vE '^crates/npqm-traffic/src/builder\.rs:[0-9]+: +shards: engine\.shards_mut\(\),$' \
        || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a second per-shard executor, the grouped batch executor, a batch" \
            "shim named outside its definition, the lending drain or a swept name is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one model of the engine"
    hits="$(grep -rnE 'struct Oracle|enum SarOp' crates || true)"
    hits+="$(grep -n 'fn step_strategy' crates/npqm-core/src/manager.rs || true)"
    hits+="$(grep -nE 'QueueManager|SegmentPosition' crates/npqm-core/tests/open_tail_regressions.rs || true)"
    hits+="$(find crates/npqm-core/tests -name batch_equivalence.rs)"
    hits+="$(grep -rnE 'fn (op_strategy|step_strategy|materialize)\b' crates/npqm-core/tests || true)"
    hits+="$(grep -rnE 'to_wire|cycles_ceil|egress_htb' crates examples tests src README.md || true)"
    hits+="$(grep -rn 'mod sched_props' crates tests || true)"
    hits+="$(grep -n '0\.\.64' crates/npqm-core/src/sched/mod.rs || true)"
    hits+="$(grep -rn 'fn deficit' crates/npqm-core/src/sched || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a hand-written engine oracle or generator is back beside the model, or deleted dead surface is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: pay only for what is read"
    hits="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/scale.rs | grep -ni 'arena' || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: the scale round's payload arena is back (scale.rs, above its tests):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    # Each scale shard checks what it serves as it serves it, reading byte 0
    # where the engine keeps it: above scale.rs's tests (comments stripped),
    # no segment copy and no per-round result buffer for the calling thread
    # to walk again.
    hits="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/scale.rs | sed 's|//.*||' \
        | grep -nE 'dequeue_into\(|\b(served|admitted)(\.(push|clear)\(| *: *Vec<)' || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: the scale drain copies segments or keeps per-round served /" \
            "admitted buffers again (scale.rs, above its tests):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    # Both closed loops and the competitive arena check a delivery through
    # the lending whole-packet dequeue: no frame copy above the tests of
    # pipeline.rs / service.rs / arena.rs.
    hits="$(for file in crates/npqm-traffic/src/pipeline.rs crates/npqm-traffic/src/service.rs \
        crates/npqm-core/src/arena.rs; do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' | grep -n 'dequeue_packet_into(' \
            | sed "s|^|${file}:|" || true
    done)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a delivery copies the frame it delivers (use" \
            "dequeue_packet_with); got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    # The service has no transport: generators merge into one arrival
    # stream handed to the shards in rounds, so above service.rs's tests
    # (comments stripped) there is no lane, pump, stall count or peeking
    # merge, and the two lane counters appear only as ServiceReport's
    # constant-0 stubs: their field lines in `pub struct ServiceReport`
    # and their `0` initialisers in its one constructor.
    hits="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/service.rs | sed 's|//.*||' \
        | awk '/^pub struct ServiceReport \{$/ || /^    ServiceReport \{$/ { stub = 1 }
            /Pump|ring_capacity|VecDeque<ArrivalEvent>|stalls|Peekable/ { print NR ": " $0; next }
            /ring_full_events|reorder_peak/ && !(stub && /^ *(pub (ring_full_events|reorder_peak): u64|(ring_full_events|reorder_peak): 0),$/) {
                print NR ": " $0
            }
            stub && (/^}$/ || /^    }$/) { stub = 0 }')"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: the service carries a transport again (service.rs, above" \
            "its tests):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: per-flow selection is sized to the backlog"
    # LQD's index is the exact tournament tree: no heap of stale entries in
    # manager.rs, its nodes are packed u64 keys (no u128 above manager.rs's
    # tests), and the tree is written on one line, in commit_queue under
    # its asleep guard (the first query builds it whole).
    hits="$(grep -n 'BinaryHeap' crates/npqm-core/src/manager.rs || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a BinaryHeap is back in manager.rs (the occupancy index is a tournament tree):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    local above guarded
    above="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-core/src/manager.rs)"
    hits="$(grep -n 'u128' <<<"${above}" || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: u128 in manager.rs above its tests (occupancy keys are packed u64s):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    guarded="$(sed -n '/fn commit_queue(/,/^    }$/p' <<<"${above}" \
        | sed -n '/if !self\.occ\.nodes\.is_empty() {/,/^        }$/p')"
    if [[ "$(grep -c 'occ\.update(' <<<"${above}")" != 1 \
        || "$(grep -c 'occ\.update(' <<<"${guarded}")" != 1 ]]; then
        echo "structure FAILED: occ.update( belongs to commit_queue, under its asleep guard; got:" >&2
        grep -n 'occ\.update(' <<<"${above}" >&2
        exit 1
    fi
    echo "==> structure: queue-table commits edit the record in place"
    # commit_queue edits the record where it lives (PtrMem::queue_mut), so it
    # takes no QueueRecord by value, and no engine code above a file's tests
    # stores a whole record with set_queue (only its definition matches;
    # comments stripped).
    local commit
    commit="$(awk '/fn commit_queue\(/ { on = 1 } on { print } on && /\{$/ { exit }' <<<"${above}")"
    if [[ -z "${commit}" ]] || grep -qE ':[[:space:]]*QueueRecord\b' <<<"${commit}"; then
        echo "structure FAILED: commit_queue must edit the queue record in place, not take" \
            "one by value; got:" >&2
        echo "${commit}" >&2
        exit 1
    fi
    hits="$(for file in $(find crates/npqm-core/src -name '*.rs' | sort); do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' | grep -n 'set_queue(' \
            | grep -v 'fn set_queue(' | sed "s|^|${file}:|" || true
    done)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: set_queue( is called above the tests of npqm-core" \
            "(queue records are committed in place through commit_queue):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    # The flat schedulers find their flows in the engine's ready bits.
    local sched
    for sched in DeficitRoundRobin WeightedRoundRobin StrictPriority; do
        body="$(sed -n "/^impl FlowScheduler for ${sched} {/,/^}/p" crates/npqm-core/src/sched/mod.rs \
            | sed -n '/fn next_flow(/,/^    }$/p' | sed 's|//.*||')"
        if [[ -z "${body}" ]] || ! grep -q 'next_ready(' <<<"${body}"; then
            echo "structure FAILED: ${sched}::next_flow must find its flows through" \
                "QueueManager::next_ready; got:" >&2
            echo "${body}" >&2
            exit 1
        fi
    done
    echo "==> structure: pointer records are written on first use"
    hits="$(grep -nE 'vec!\[(Seg|Pkt)Record::default\(\)' crates/npqm-core/src/ptrmem.rs || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: ptrmem.rs writes a whole record plane up front:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    local list
    for list in SegFreeList PktFreeList; do
        body="$(sed -n "/^impl ${list} {/,/^}/p" crates/npqm-core/src/freelist.rs \
            | sed -n '/pub fn init(/,/^    }$/p' | sed 's|//.*||')"
        if [[ -z "${body}" ]] \
            || grep -qE '\b(for|while|loop)\b|for_each\(|\.extend\(|\.collect|\.fold\(' <<<"${body}"; then
            echo "structure FAILED: ${list}::init must link nothing (no loop), or it is gone; got:" >&2
            echo "${body}" >&2
            exit 1
        fi
    done
    echo "==> structure: traffic draws are table lookups"
    hits="$(for file in crates/npqm-traffic/src/flows.rs crates/npqm-traffic/src/size.rs; do
        sed '/^#\[cfg(test)\]/,$d' "${file}" | sed 's|//.*||' \
            | grep -nE 'partition_point|next_f64|match [^{]*(rng|next_)' | sed "s|^|${file}:|" || true
    done)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a float search or a match on a drawn value is back" \
            "(flows.rs, size.rs, above their tests):" >&2
        echo "${hits}" >&2
        exit 1
    fi
    hits="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/scale.rs | sed 's|//.*||' \
        | grep -nB1 'shard_of(' || true)"
    if [[ "$(grep -c 'shard_of(' <<<"${hits}")" != 1 || "${hits}" != *'let home'* ]]; then
        echo "structure FAILED: scale.rs calls shard_of( only where it builds the home table; got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: shards share nothing"
    hits="$(grep -rnE 'move_across|copy_across|execute_cross|CrossBarrier|EngineTrace|trace_barriers|sync_to_slot|peek_packet_into|enqueue_packet_with_work|per_flow_interval_bound' \
        crates examples tests src README.md || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: the cross-shard transfer path, its barrier or a helper only it called is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: telemetry keeps one copy of each fact"
    hits="$(grep -rnE 'EventCounts|record_event_counts|MetricValue::Gauge|fn gauge|"trace\.|service\.window\.' \
        crates examples tests src README.md || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a second tally of what the reports, the ledger or the engine count is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one loop instance per pipeline run"
    # Every PipelineBuilder run is one run_closed_loop call over a lazily
    # drawn stream: no pregenerated trace split into index lists, no
    # one-shard loops replayed shard by shard, and each admission arm of
    # builder.rs (comments stripped, above its tests) calls the loop once.
    hits="$(grep -rnE 'partition_indices|run_shard_local' crates examples tests src README.md || true)"
    above="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-traffic/src/builder.rs | sed 's|//.*||')"
    hits+="$(grep -n 'for_each_shard' <<<"${above}" || true)"
    local arms arm calls
    arms="$(sed -n '/^enum AdmissionSel {/,/^}/p' <<<"${above}" | grep -oE '^    [A-Z][A-Za-z]*' || true)"
    for arm in ${arms}; do
        body="$(sed -n "/^            AdmissionSel::${arm}\b.* => {\$/,/^            }\$/p" <<<"${above}")"
        calls="$(grep -c 'run_closed_loop(' <<<"${body}" || true)"
        if [[ "${calls}" != 1 ]]; then
            hits+="AdmissionSel::${arm} arm: ${calls} run_closed_loop( calls"$'\n'
        fi
    done
    calls="$(grep -c 'run_closed_loop(' <<<"${above}" || true)"
    if [[ -n "${hits}" || -z "${arms}" || "${calls}" != "$(wc -w <<<"${arms}")" ]]; then
        echo "structure FAILED: a pipeline run is one run_closed_loop call per admission arm of" \
            "builder.rs, over a lazily drawn stream; got:" >&2
        echo "${hits}" >&2
        echo "run_closed_loop( calls above builder.rs's tests: ${calls}" >&2
        exit 1
    fi
}

# Golden-output regression gates: the table binaries assert their
# machine-readable invariants (packet + byte conservation, zero torn
# frames, LQD >= tail-drop goodput, online digests equal to quiesced
# replays, global-LQD >= shard-local goodput) instead of having their
# stdout discarded. Every gate is a pure function of the seed.
golden() {
    echo "==> table6 --check (drop-policy conservation gates)"
    cargo run --release -q -p npqm-bench --bin table6 -- --check
    echo "==> table7 --check (shard-scaling gates: conservation, zero torn frames)"
    cargo run --release -q -p npqm-bench --bin table7 -- --check
    echo "==> table8 --check (memory-timing gates: ledgers close, reordering never slower)"
    cargo run --release -q -p npqm-bench --bin table8 -- --check
    echo "==> table9 --check (competitive-ratio gates: LQD <= 1.5, adversary gaps)"
    cargo run --release -q -p npqm-bench --bin table9 -- --check
    echo "==> table10 --check (streaming-service gates: reconciliation, online digests)"
    cargo run --release -q -p npqm-bench --bin table10 -- --check
    echo "==> table11 --check (hierarchical-QoS gates: isolation, work-conservation)"
    cargo run --release -q -p npqm-bench --bin table11 -- --check
}

# Deterministic-telemetry gates: `table10 --trace` runs the steady-state
# workload twice — traced and untraced — and asserts the
# zero-interference contract (final + per-epoch digests and the whole
# report identical), exact reconciliation of the drop-attribution ledger
# (split by cause) and the engine's byte counters in the metrics
# registry against the run's own totals, and a strict `Json::parse`
# round trip of the exported Chrome/Perfetto trace before writing it.
# `table11 --trace` runs the same contract on the HTB trunk, whose trace
# carries the leaf-selection events; the property tests count every
# event kind against the report, one `sched.select` per delivery.
telemetry() {
    echo "==> telemetry: table10 --trace (steady-state service)"
    cargo run --release -q -p npqm-bench --bin table10 -- --trace target/table10-trace.json
    echo "==> telemetry: table11 --trace (HTB trunk, leaf-selection events)"
    cargo run --release -q -p npqm-bench --bin table11 -- --trace target/table11-trace.json
    echo "telemetry: traces reconciled with their runs."
}

# The repo benchmark (bench/, see BENCHMARK.json) as a correctness gate
# on all six workloads — the dense closed loop, the streaming service
# and the batch rounds at once, where `cargo test` pins the loop's event
# order on one config. `--smoke` (counts / 10, ~14 s) fails on any
# operation that fails or any repetition that disagrees with its own
# reference, but skips expected.json (its pins are for full sizes); the
# second run is full size with 0.5 s per run (~1 min) and fails unless
# every workload reproduces its seed-42 digest pinned there. The timings
# either prints are not gated here.
bench_digests() {
    echo "==> bench/run.sh --smoke (six workloads: runs, conserves, repeats)"
    bash bench/run.sh --smoke >/dev/null
    echo "==> bench/run.sh --seconds 0.5 (six workloads vs bench/expected.json digests)"
    bash bench/run.sh --seconds 0.5 >/dev/null
}

# Machine-readable table results, uploaded as a CI artifact by the
# hosted pipeline. Host-dependent values (wall clock, busy times, rates,
# cores) sit under `host` keys; everything else is simulated.
bench_artifacts() {
    echo "==> bench artifacts (BENCH_table6/7/8/9/10/11.json)"
    for t in table6 table7 table8 table9 table10 table11; do
        cargo run --release -q -p npqm-bench --bin "${t}" -- --json "BENCH_${t}.json" >/dev/null
    done
}

# Equality gate: outside `host`, the regenerated artifacts must equal the
# tree's committed copies leaf for leaf — any changed, missing or extra
# simulated leaf fails with its JSON path; host leaves are ignored. A
# change that means to move a simulated value commits the regenerated
# artifact with it. A table with no committed copy yet is skipped.
bench_gate() {
    echo "==> bench-gate: setting the tree's artifacts aside, regenerating"
    rm -rf target/bench-baseline
    mkdir -p target/bench-baseline
    cp BENCH_table*.json target/bench-baseline/
    bench_artifacts
    echo "==> bench-gate: simulated leaves equal, host leaves ignored"
    cargo run --release -q -p npqm-bench --bin bench_gate -- \
        --baseline-dir target/bench-baseline --current-dir .
}

if [[ "${1:-}" == "quick" ]]; then
    structure
    tier1
    golden
    echo "CI quick green."
    exit 0
fi

structure

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

tier1

# Tier-1 is a debug build; a release-only divergence in the engine, the
# loops (PR 15 met an opt-level-3 miscompile that every debug test
# passed) or the bit-pinned DDR slot loop must fail a test, not surprise
# the benchmark or the tables.
echo "==> cargo test --release -q -p npqm-core -p npqm-traffic -p npqm-mem"
cargo test --release -q -p npqm-core -p npqm-traffic -p npqm-mem

# The model fuzzer's soak: the random scripts tier-1 draws from its
# default stream, drawn from eight more, in the release profile (the
# corpus ran above, so its digests hold in both profiles).
for seed in 1 2 3 4 5 6 7 8; do
    echo "==> model soak: NPQM_PROP_SEED=${seed}"
    NPQM_PROP_SEED="${seed}" cargo test --release -q -p npqm-core --lib model::engine_matches_the_model
done

# The stage that runs the paper's tables 1-5 (6-11 are golden's).
echo "==> cargo run --release -p npqm-bench --bin all_tables"
cargo run --release -q -p npqm-bench --bin all_tables >/dev/null

golden

telemetry

# Every runnable scenario must stay runnable, not just drop_policies.
for src in examples/*.rs; do
    ex="$(basename "${src%.rs}")"
    echo "==> example ${ex}"
    cargo run --release -q --example "${ex}" >/dev/null
done

bench_digests

bench_gate

echo "CI green."
