//! The multi-tenant hierarchical-QoS trunk scenario behind Table 11.
//!
//! A 6 Gbit/s trunk is shared by four tenants, each guaranteed a quarter
//! and allowed to borrow up to the whole trunk. The tenants are
//! deliberately asymmetric in *flow count*: tenant 0 spreads its load
//! over 8 flows, so a flat per-flow scheduler would hand it half the
//! trunk, while the HTB class tree restores per-tenant shares. The
//! scenario and its direct-drive work-conservation companion are what
//! the `table11` gate binary runs.

use npqm_core::policy::DynamicThreshold;
use npqm_core::sched::{drain_next, HtbClass, HtbScheduler, HtbTreeBuilder};
use npqm_core::telemetry::TelemetryConfig;
use npqm_core::{FlowId, QmConfig, QueueManager};
use npqm_sim::rng::Xoshiro256pp;
use npqm_traffic::pipeline::{PipelineConfig, ShardedPipelineReport};
use npqm_traffic::{FlowMix, PipelineBuilder};

/// Number of tenants sharing the trunk.
pub const TENANTS: usize = 4;

/// Total flows across all tenants.
pub const FLOWS: usize = 16;

/// Flow ranges per tenant. Deliberately asymmetric: tenant 0 spreads its
/// load over 8 flows, so a *flat* per-flow scheduler would hand it half
/// the trunk and starve the 2-flow tenants below their guarantee — the
/// class tree is what restores per-tenant shares.
pub const TENANT_FLOWS: [(usize, usize); TENANTS] = [(0, 8), (8, 12), (12, 14), (14, 16)];

/// Abstract rate units of the trunk; shares are what matter. Each tenant
/// is guaranteed a quarter of the trunk and may borrow up to all of it.
pub const CAP_UNITS: u64 = 1600;
/// Guaranteed units per tenant (a quarter of [`CAP_UNITS`]).
pub const TENANT_UNITS: u64 = 400;

/// Seeds for the isolation sweep: each is a full closed-loop run.
pub const SEEDS: [u64; 5] = [7, 21, 42, 77, 2005];

/// Per-tenant offered-traffic load (split evenly over each tenant's
/// flows): everyone offers ~1.5x their guarantee — the trunk is
/// oversubscribed, but nobody is greedy.
pub const LOAD_FAIR: [f64; TENANTS] = [1.7, 1.7, 1.7, 1.7];
/// Tenant 0 turned up to ~2.3x its guarantee; the others unchanged.
pub const LOAD_OVERLOAD: [f64; TENANTS] = [3.0, 1.7, 1.7, 1.7];

/// The trunk tree: `trunk` at full rate, one class per tenant at a
/// quarter guarantee with a full-trunk ceiling, one leaf per flow.
pub fn tenant_tree() -> HtbScheduler {
    let mut b = HtbTreeBuilder::new(CAP_UNITS).class("trunk", None, HtbClass::rate(CAP_UNITS));
    for (t, &(lo, hi)) in TENANT_FLOWS.iter().enumerate() {
        let name = format!("tenant{t}");
        b = b.class(
            &name,
            Some("trunk"),
            HtbClass::rate(TENANT_UNITS).ceil(CAP_UNITS),
        );
        b = b.leaves(
            Some(&name),
            lo as u32..hi as u32,
            HtbClass::rate(TENANT_UNITS / (hi - lo) as u64).ceil(CAP_UNITS),
        );
    }
    b.build().expect("static tree is valid")
}

/// The bursty-overload scenario reshaped for the trunk: per-tenant
/// offered load from `loads`, split evenly over each tenant's flows.
pub fn trunk_cfg(seed: u64, loads: &[f64; TENANTS]) -> PipelineConfig {
    let mut cfg = PipelineConfig::bursty_overload(seed);
    // A trunk port carries deeper buffers than the flat drop-policy
    // tables: with only ~46 average packets of shared memory the behaved
    // tenants run dry between bursts and no scheduler can hand them
    // their guarantee. 4096 segments is ~370 packets — enough burst
    // absorption to keep backlogged tenants actually backlogged.
    cfg.qm = QmConfig::builder()
        .num_flows(FLOWS as u32)
        .num_segments(4096)
        .segment_bytes(64)
        .build()
        .expect("static configuration is valid");
    let mut weights = vec![0.0; FLOWS];
    for (t, &(lo, hi)) in TENANT_FLOWS.iter().enumerate() {
        for w in &mut weights[lo..hi] {
            *w = loads[t] / (hi - lo) as f64;
        }
    }
    cfg.mix = FlowMix::weighted(&weights);
    cfg
}

/// One trunk run: HTB tenant tree, or the flat per-flow DRR
/// counterfactual that ignores tenancy.
pub fn run_trunk(seed: u64, loads: &[f64; TENANTS], htb: bool) -> ShardedPipelineReport {
    run_trunk_observed(seed, loads, htb, None)
}

/// [`run_trunk`] with optional deterministic telemetry: `Some` records
/// virtual-time trace events (admissions, drops, HTB leaf selections,
/// deliveries) and the drop-attribution ledger without perturbing the
/// run — the `table11 --trace` mode gates that the observed report is
/// byte-identical to [`run_trunk`]'s.
pub fn run_trunk_observed(
    seed: u64,
    loads: &[f64; TENANTS],
    htb: bool,
    telemetry: Option<TelemetryConfig>,
) -> ShardedPipelineReport {
    let mut cfg = trunk_cfg(seed, loads);
    cfg.telemetry = telemetry;
    let b = PipelineBuilder::new(&cfg).admission(|_| DynamicThreshold::new(2.0));
    if htb {
        b.egress_htb(tenant_tree()).run()
    } else {
        b.egress_spec("drr:1518").run()
    }
}

/// Per-tenant `(offered, delivered)` byte totals of a report.
pub fn tenant_bytes(r: &ShardedPipelineReport) -> Vec<(u64, u64)> {
    TENANT_FLOWS
        .iter()
        .map(|&(lo, hi)| {
            let fs = &r.aggregate.flows[lo..hi];
            (
                fs.iter().map(|f| f.offered_bytes).sum(),
                fs.iter().map(|f| f.delivered_bytes).sum(),
            )
        })
        .collect()
}

/// Each tenant's guaranteed egress share in Gbit/s.
pub fn guarantee_gbps(cfg: &PipelineConfig) -> f64 {
    cfg.egress_gbps * TENANT_UNITS as f64 / CAP_UNITS as f64
}

/// Outcome of the direct-drive work-conservation scenarios.
pub struct WorkConservation {
    /// Phase 1 (tenant 0 idle): packets enqueued.
    pub idle_enqueued: u64,
    /// Phase 1: packets drained (must equal `idle_enqueued`).
    pub idle_drained: u64,
    /// Packets served on borrowed (parent-surplus) credit in phase 1.
    pub borrowed: u64,
    /// Phase 2 (every ceiling exhausted): packets enqueued.
    pub capped_enqueued: u64,
    /// Phase 2: packets drained (must equal `capped_enqueued`).
    pub capped_drained: u64,
    /// Packets served past every ceiling in phase 2.
    pub over_ceil: u64,
}

fn engine() -> QueueManager {
    QueueManager::new(
        QmConfig::builder()
            .num_flows(FLOWS as u32)
            .num_segments(16 * 1024)
            .segment_bytes(64)
            .build()
            .expect("static configuration is valid"),
    )
}

/// Drives the scheduler directly (no arrival process) so the HTB ledger
/// statistics are observable: the closed loop hides the scheduler inside
/// the pipeline, but work-conservation is a property of the drain.
pub fn run_work_conservation() -> WorkConservation {
    // Phase 1: tenant 0 idle, tenants 1..3 backlogged. The idle quarter
    // of the trunk must be borrowed, and the drain must never stall
    // before the backlog is gone.
    let mut qm = engine();
    let mut sched = tenant_tree();
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let mut idle_enqueued = 0u64;
    let first_behaved = TENANT_FLOWS[1].0 as u32;
    for i in 0..1800u32 {
        let flow = first_behaved + (i % (FLOWS as u32 - first_behaved));
        let len = 64 + rng.next_below(1400) as usize;
        if qm
            .enqueue_packet(FlowId::new(flow), &vec![0xAB; len])
            .is_ok()
        {
            idle_enqueued += 1;
        }
    }
    let mut idle_drained = 0u64;
    while drain_next(&mut qm, &mut sched).is_some() {
        idle_drained += 1;
    }
    qm.verify().expect("invariants after the idle-tenant drain");
    let borrowed = sched.stats().borrowed_packets;

    // Phase 2: a tree where every tenant's ceiling is a quarter of the
    // trunk, and only one tenant is backlogged: within-ceil service
    // alone cannot keep the link busy, so the drain must fall through to
    // over-ceiling service rather than idle.
    let mut b = HtbTreeBuilder::new(CAP_UNITS).class("trunk", None, HtbClass::rate(CAP_UNITS));
    for (t, &(lo, hi)) in TENANT_FLOWS.iter().enumerate() {
        let name = format!("tenant{t}");
        b = b.class(
            &name,
            Some("trunk"),
            HtbClass::rate(TENANT_UNITS).ceil(TENANT_UNITS),
        );
        b = b.leaves(
            Some(&name),
            lo as u32..hi as u32,
            HtbClass::rate(TENANT_UNITS / (hi - lo) as u64).ceil(TENANT_UNITS),
        );
    }
    let mut capped = b.build().expect("static tree is valid");
    let mut qm = engine();
    let mut capped_enqueued = 0u64;
    for i in 0..1200u32 {
        let flow = i % TENANT_FLOWS[0].1 as u32; // tenant 0 only
        let len = 64 + rng.next_below(1400) as usize;
        if qm
            .enqueue_packet(FlowId::new(flow), &vec![0xCD; len])
            .is_ok()
        {
            capped_enqueued += 1;
        }
    }
    let mut capped_drained = 0u64;
    while drain_next(&mut qm, &mut capped).is_some() {
        capped_drained += 1;
    }
    qm.verify().expect("invariants after the capped drain");
    WorkConservation {
        idle_enqueued,
        idle_drained,
        borrowed,
        capped_enqueued,
        capped_drained,
        over_ceil: capped.stats().over_ceil_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trunk_cfg_splits_load_per_tenant() {
        let cfg = trunk_cfg(1, &LOAD_FAIR);
        assert_eq!(cfg.mix.flows(), FLOWS as u32);
        let tree = tenant_tree();
        assert_eq!(tree.leaf_count(), FLOWS);
        assert!(guarantee_gbps(&cfg) > 0.0);
    }

    #[test]
    fn work_conservation_scenarios_drain_fully() {
        let wc = run_work_conservation();
        assert_eq!(wc.idle_drained, wc.idle_enqueued);
        assert_eq!(wc.capped_drained, wc.capped_enqueued);
        assert!(wc.borrowed > 0, "idle guarantee must be borrowed");
        assert!(wc.over_ceil > 0, "link must serve past saturated ceilings");
    }
}
