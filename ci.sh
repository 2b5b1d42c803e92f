#!/usr/bin/env bash
# CI for the npqm workspace. Runs offline: every dependency is an in-repo
# path crate (see crates/npqm-prop for the proptest stand-in). The hosted
# pipeline in .github/workflows/ci.yml runs exactly this script, split
# into a two-job matrix: `quick` on pull requests, the full pipeline on
# pushes to main. No stage gates host time: that is bench/run.sh's job.
#
#   ./ci.sh         # full pipeline: structure greps (one thread fan-out,
#                   # one push-out loop, each engine step of manager.rs
#                   # written once, no cut_through, the access trace
#                   # cut and never committed, one DDR slot loop, one
#                   # count per event, one grouped executor, one model
#                   # of the engine, no occupancy pushes before the
#                   # first query, no scale payload arena, no pointer
#                   # record written before first use), fmt,
#                   # clippy, docs,
#                   # tier-1, release-profile engine tests, the model
#                   # fuzzer's release soak, tables,
#                   # golden checks, parallel-determinism diff, telemetry
#                   # trace export + cross-thread diff, every example,
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

# One way to run shards in parallel: `npqm_core::shard::parallel::
# for_each_claimed` is the only place the engine and traffic crates may
# spawn a thread, and nothing there may bring back channels, timeouts or
# yield-pacing. Exactly one line may match (the spawn scope itself).
# One push-out loop: `policy::push_out` is the only place a victim joins
# an `evicted` list (LQD, po-work, work-balance and global LQD keep just
# their victim choice), and the occupancy snapshot and the trait that
# only the fourth copy of that loop needed stay deleted.
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
# `cut_trace` (defined in `manager.rs`) is its only reader — called by a
# cross-shard command (`shard.rs`: both engines, before and after) and by
# the timing model's `charge_engine` / `execute_costed`, nowhere else. Span lists and
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
# One grouped executor: `ShardedQueueManager::for_each_shard` (`shard.rs`)
# is the only caller of `for_each_claimed` in `npqm-core` and the only
# place a shard's busy time grows, apart from the batched cross-shard
# command that charges both engines (`parallel.rs`). The per-command
# result slots' executor, the lending drain and its types stay deleted,
# and the scale rounds reach the shards only through `for_each_shard`.
# One model of the engine: `npqm-core`'s test-only `model` module (and the
# corpus it replays) is the oracle every engine call is held to, so the
# hand-written oracles it replaced — the property tests' `Oracle` and
# `SarOp` and the manager tests' own `step_strategy` — stay deleted, and
# the open-tail regression file only replays corpus scripts (it names no
# engine call of its own).
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
structure() {
    echo "==> structure: one thread fan-out in npqm-core + npqm-traffic"
    local hits
    hits="$(grep -rnE 'thread::(scope|spawn)|sync_channel|recv_timeout|yield_now' \
        crates/npqm-core/src crates/npqm-traffic/src || true)"
    if [[ "$(grep -c . <<<"${hits}")" != 1 || "${hits}" != crates/npqm-core/src/shard/parallel.rs:* ]]; then
        echo "structure FAILED: expected one hit, inside for_each_claimed; got:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one push-out loop in npqm-core + npqm-traffic"
    hits="$(grep -rn 'evicted\.push(' crates/npqm-core/src crates/npqm-traffic/src || true)"
    if [[ "$(grep -c . <<<"${hits}")" != 1 || "${hits}" != crates/npqm-core/src/policy.rs:* ]]; then
        echo "structure FAILED: expected one hit, inside policy::push_out; got:" >&2
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
    echo "==> structure: each engine step of manager.rs is written once"
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
    local file
    hits=""
    for file in $(grep -rlF 'cut_trace(' crates examples tests src | sort); do
        if [[ -n "$(sed '/^#\[cfg(test)\]/,$d' "${file}" | grep -F 'cut_trace(')" ]]; then
            hits+="${file} "
        fi
    done
    if [[ "${hits}" != "crates/npqm-core/src/manager.rs crates/npqm-core/src/shard.rs crates/npqm-core/src/timing/mod.rs " ]]; then
        echo "structure FAILED: cut_trace( above the tests belongs to manager.rs, shard.rs and timing/mod.rs; got:" >&2
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
    echo "==> structure: one grouped executor"
    local body
    body="$(sed -n '/pub fn for_each_shard</,/^    }$/p' crates/npqm-core/src/shard.rs)"
    local pattern
    for pattern in 'for_each_claimed\(' 'busy(\[[^]]*\])? *\+='; do
        hits="$(for file in $(grep -rlE "${pattern}" crates/npqm-core/src | sort); do
            sed '/^#\[cfg(test)\]/,$d' "${file}" | grep -nE "${pattern}" \
                | grep -vE '^[0-9]+:\s*//|fn for_each_claimed' | sed "s|^|${file}:|" || true
        done)"
        if [[ "$(grep -cE "${pattern}" <<<"${body}")" != 1 \
            || "$(grep -c '^crates/npqm-core/src/shard.rs:' <<<"${hits}")" != 1 \
            || -n "$(grep -v '^crates/npqm-core/src/shard.rs:' <<<"${hits}" \
                | grep -vE '^crates/npqm-core/src/shard/parallel.rs:[0-9]+: *self\.busy\[(a|b)\] \+= d;$')" ]]; then
            echo "structure FAILED: '${pattern}' above the tests belongs to for_each_shard" \
                "(and, for busy time, the batched cross-shard command); got:" >&2
            echo "${hits}" >&2
            exit 1
        fi
    done
    hits="$(grep -rnE 'run_groups|BatchDrain|LentSegment|dequeue_batch_into' \
        crates examples tests src README.md || true)"
    hits+="$(grep -n 'shards_mut(' crates/npqm-traffic/src/scale.rs || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a second per-shard executor or the lending drain is back:" >&2
        echo "${hits}" >&2
        exit 1
    fi
    echo "==> structure: one model of the engine"
    hits="$(grep -rnE 'struct Oracle|enum SarOp' crates || true)"
    hits+="$(grep -n 'fn step_strategy' crates/npqm-core/src/manager.rs || true)"
    hits+="$(grep -nE 'QueueManager|SegmentPosition' crates/npqm-core/tests/open_tail_regressions.rs || true)"
    if [[ -n "${hits}" ]]; then
        echo "structure FAILED: a hand-written engine oracle is back beside the model:" >&2
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
    local above guarded rebuild
    above="$(sed '/^#\[cfg(test)\]/,$d' crates/npqm-core/src/manager.rs)"
    guarded="$(sed -n '/fn commit_queue(/,/^    }$/p' <<<"${above}" \
        | sed -n '/if self\.occ\.active {/,/^        }$/p')"
    rebuild="$(sed -n '/fn rebuild_occupancy(/,/^    }$/p' <<<"${above}")"
    if [[ "$(grep -c 'occ\.heap\.push(' <<<"${above}")" != 2 \
        || "$(grep -c 'occ\.heap\.push(' <<<"${guarded}")" != 1 \
        || "$(grep -c 'occ\.heap\.push(' <<<"${rebuild}")" != 1 ]]; then
        echo "structure FAILED: occ.heap.push( belongs to commit_queue, under its active" \
            "guard, and to rebuild_occupancy; got:" >&2
        grep -n 'occ\.heap\.push(' <<<"${above}" >&2
        exit 1
    fi
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
}

# Golden-output regression gates: the table binaries assert their
# machine-readable invariants (packet + byte conservation, zero torn
# frames, LQD >= tail-drop goodput, thread-invariant fingerprints,
# global-LQD >= shard-local goodput) instead of having their stdout
# discarded. Every gate is a pure function of the seed.
golden_quick() {
    echo "==> table6 --check (drop-policy conservation gates)"
    cargo run --release -q -p npqm-bench --bin table6 -- --check
    echo "==> table7 --check (shard-scaling gates: conservation, thread-invariant fingerprints)"
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

golden_full() {
    golden_quick
    # These runs double as the serial legs of the parallel-determinism
    # stage below: --report writes the --json rows without their `host`
    # part (no wall clock, no steal counts, no thread count). table7 and
    # table8 ran in golden_quick already; their second run is the cost of
    # keeping the two stages independent (0.3 s).
    echo "==> table7 --check at NPQM_THREADS=1 (shard-scaling gates, serial leg)"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table7 -- \
        --check --report target/table7-det-threads1.json
    echo "==> table8 --check at NPQM_THREADS=1 (memory-timing gates, serial leg)"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table8 -- \
        --check --report target/table8-det-threads1.json
    echo "==> table9 --check at NPQM_THREADS=1 (competitive-ratio gates, serial leg)"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table9 -- \
        --check --report target/table9-det-threads1.json
    echo "==> table10 --check at NPQM_THREADS=1 (streaming-service gates, serial leg)"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table10 -- \
        --check --report target/table10-det-threads1.json
    echo "==> table11 --check at NPQM_THREADS=1 (hierarchical-QoS gates, serial leg)"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table11 -- \
        --check --report target/table11-det-threads1.json
}

# The headline guarantee of the thread-parallel executor: for a fixed
# seed, delivery reports, conservation checks and per-packet ledger
# fingerprints are byte-identical to serial replay at any thread count.
# Run the same gates at 4 worker threads and require the two
# deterministic reports to be identical to the byte.
parallel_determinism() {
    echo "==> parallel-determinism: table7 --check at NPQM_THREADS=4"
    NPQM_THREADS=4 cargo run --release -q -p npqm-bench --bin table7 -- \
        --check --report target/table7-det-threads4.json
    echo "==> parallel-determinism: table8 --check at NPQM_THREADS=4"
    NPQM_THREADS=4 cargo run --release -q -p npqm-bench --bin table8 -- \
        --check --report target/table8-det-threads4.json
    echo "==> parallel-determinism: table9 --check at NPQM_THREADS=4"
    NPQM_THREADS=4 cargo run --release -q -p npqm-bench --bin table9 -- \
        --check --report target/table9-det-threads4.json
    echo "==> parallel-determinism: table10 --check at NPQM_THREADS=4"
    NPQM_THREADS=4 cargo run --release -q -p npqm-bench --bin table10 -- \
        --check --report target/table10-det-threads4.json
    echo "==> parallel-determinism: table11 --check at NPQM_THREADS=4"
    NPQM_THREADS=4 cargo run --release -q -p npqm-bench --bin table11 -- \
        --check --report target/table11-det-threads4.json
    for t in table7 table8 table9 table10 table11; do
        echo "==> parallel-determinism: diff ${t} threads=1 vs threads=4 reports"
        if ! diff -u "target/${t}-det-threads1.json" "target/${t}-det-threads4.json"; then
            echo "parallel-determinism FAILED: ${t} reports differ between 1 and 4 threads" >&2
            exit 1
        fi
    done
    echo "parallel-determinism: reports byte-identical."
}

# Deterministic-telemetry gates: `table10 --trace` runs the steady-state
# workload twice at the same thread count — traced and untraced — and
# asserts the zero-interference contract (final + per-epoch digests and
# the whole report identical), exact reconciliation of the event counts,
# drop-attribution ledger and metrics registry against the run's own
# totals, and a strict `Json::parse` round trip of the exported
# Chrome/Perfetto trace before writing it. The traces exported at 1 and
# 4 worker threads must then be byte-identical — virtual-time
# timestamps contain no wall clock. `table11 --trace` runs the same
# contract on the HTB trunk (every delivery carries exactly one
# leaf-selection event).
telemetry() {
    echo "==> telemetry: table10 --trace at NPQM_THREADS=1"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table10 -- \
        --trace target/table10-trace-threads1.json
    echo "==> telemetry: table10 --trace at NPQM_THREADS=4"
    NPQM_THREADS=4 cargo run --release -q -p npqm-bench --bin table10 -- \
        --trace target/table10-trace-threads4.json
    echo "==> telemetry: diff table10 traces threads=1 vs threads=4"
    if ! diff -u target/table10-trace-threads1.json target/table10-trace-threads4.json; then
        echo "telemetry FAILED: exported traces differ between 1 and 4 threads" >&2
        exit 1
    fi
    echo "==> telemetry: table11 --trace (HTB trunk, leaf-selection events)"
    NPQM_THREADS=1 cargo run --release -q -p npqm-bench --bin table11 -- \
        --trace target/table11-trace.json
    echo "telemetry: traces reconciled and byte-identical across thread counts."
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
# steals, threads, cores) sit under `host` keys; everything else is
# simulated.
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
    golden_quick
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

# The stage that runs the paper's tables 1-5 (6-11 are golden_full's).
echo "==> cargo run --release -p npqm-bench --bin all_tables"
cargo run --release -q -p npqm-bench --bin all_tables >/dev/null

golden_full

parallel_determinism

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
