//! Differential oracle tests for the competitive-analysis arena.
//!
//! The offline bound of `npqm_core::arena` certifies every empirical
//! competitive ratio the `table9` experiments report, so it must
//! dominate *every* online execution — a bound below any online run
//! would be unsound and silently inflate no ratio at all (it would
//! deflate them, hiding real competitive gaps). These properties pit
//! the bound against random traces and every shipped policy, and pit
//! the exact branch-and-bound optimum against the interval relaxation
//! on traces small enough to solve exactly.

use npqm_core::arena::{
    exact_shared_opt, offline_bound, run_online, run_online_global, ArenaConfig, ArenaPacket,
    ArenaReport, ArenaTrace,
};
use npqm_core::limits::{BufferManager, FlowLimits};
use npqm_core::policy::{DropPolicy, GlobalLqd, PushOutLargestWork, WorkSizeBalance};
use npqm_core::{DynamicThreshold, FlowId, LongestQueueDrop};
use proptest::collection::vec;
use proptest::prelude::*;

const UNIT: u32 = 64;

/// Random small shared-memory trace: up to 14 unit packets over up to
/// 4 ports, arrival slots non-decreasing via deltas. Small enough for
/// the exact branch-and-bound.
fn small_shared_trace() -> impl Strategy<Value = ArenaTrace> {
    vec((0u64..3, 0u32..4), 1..14).prop_map(|steps| {
        let mut at = 0;
        let packets = steps
            .into_iter()
            .map(|(delta, port)| {
                at += delta;
                ArenaPacket {
                    at,
                    flow: FlowId::new(port),
                    bytes: UNIT,
                    work: 0,
                }
            })
            .collect();
        ArenaTrace::new(packets)
    })
}

/// Random work-server trace: up to 20 unit packets with work stamps in
/// `0..=4` (zero = byte-proportional service).
fn small_work_trace() -> impl Strategy<Value = ArenaTrace> {
    vec((0u64..3, 0u32..4, 0u32..5), 1..20).prop_map(|steps| {
        let mut at = 0;
        let packets = steps
            .into_iter()
            .map(|(delta, port, work)| {
                at += delta;
                ArenaPacket {
                    at,
                    flow: FlowId::new(port),
                    bytes: UNIT,
                    work,
                }
            })
            .collect();
        ArenaTrace::new(packets)
    })
}

/// An unbounded-per-flow tail-drop (shared buffer only binds).
fn greedy() -> BufferManager {
    BufferManager::new(
        FlowLimits {
            max_bytes: u64::MAX,
            max_packets: u32::MAX,
        },
        0,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The certified bound dominates every online policy on random
    /// shared-memory traces, and each run conserves packets.
    #[test]
    fn bound_dominates_every_online_policy(trace in small_shared_trace()) {
        let cfg = ArenaConfig::shared_memory(4, 3);
        let bound = offline_bound(&cfg, &trace);
        let mut policies: Vec<Box<dyn DropPolicy>> = vec![
            Box::new(greedy()),
            Box::new(LongestQueueDrop::new(0)),
            Box::new(DynamicThreshold::new(2.0)),
        ];
        let mut reports: Vec<ArenaReport> = policies
            .iter_mut()
            .map(|policy| run_online(&cfg, &trace, policy.as_mut()))
            .collect();
        // Global LQD runs the same slot loop: on one shard it is the LQD
        // row in everything but its name; on three it is a run of its own.
        let one = run_online_global(&cfg, &trace, 1, &mut GlobalLqd::new(3, 0));
        prop_assert_eq!(&one, &ArenaReport { policy: one.policy.clone(), ..reports[1].clone() });
        reports.push(run_online_global(&cfg, &trace, 3, &mut GlobalLqd::new(3, 0)));
        for rep in &reports {
            prop_assert!(rep.conserved(), "{} leaks packets", rep.policy);
            prop_assert!(
                bound.bytes >= rep.goodput_bytes,
                "bound {} below {} goodput {}",
                bound.bytes, rep.policy, rep.goodput_bytes
            );
        }
    }

    /// On small traces the exact optimum is at most the interval
    /// relaxation (it is the tighter of the two) and still dominates
    /// the best online policy — the differential check that the
    /// branch-and-bound searches the full admission space.
    #[test]
    fn exact_opt_between_online_and_interval(trace in small_shared_trace()) {
        let cfg = ArenaConfig::shared_memory(4, 3);
        let bound = offline_bound(&cfg, &trace);
        let exact = exact_shared_opt(&cfg, &trace);
        prop_assert_eq!(bound.exact_bytes, Some(exact));
        prop_assert!(
            exact <= bound.interval_bytes,
            "exact {} exceeds interval relaxation {}",
            exact, bound.interval_bytes
        );
        prop_assert_eq!(bound.bytes, exact.min(bound.interval_bytes));
        let mut lqd = LongestQueueDrop::new(0);
        let rep = run_online(&cfg, &trace, &mut lqd);
        prop_assert!(
            exact >= rep.goodput_bytes,
            "true OPT {} below lqd goodput {}",
            exact, rep.goodput_bytes
        );
    }

    /// The work-model interval bound dominates every online policy —
    /// including the work-aware ones — on random work-stamped traces.
    #[test]
    fn work_bound_dominates_online(trace in small_work_trace()) {
        let cfg = ArenaConfig::work_server(4, 3, UNIT);
        let bound = offline_bound(&cfg, &trace);
        let mut policies: Vec<Box<dyn DropPolicy>> = vec![
            Box::new(greedy()),
            Box::new(LongestQueueDrop::new(0)),
            Box::new(PushOutLargestWork::new(0)),
            Box::new(WorkSizeBalance::new(0)),
        ];
        for policy in &mut policies {
            let rep = run_online(&cfg, &trace, policy.as_mut());
            prop_assert!(rep.conserved(), "{} leaks packets", rep.policy);
            prop_assert!(
                bound.bytes >= rep.goodput_bytes,
                "work bound {} below {} goodput {}",
                bound.bytes, rep.policy, rep.goodput_bytes
            );
        }
    }
}
