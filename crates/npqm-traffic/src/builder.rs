//! One entry point for every closed-loop pipeline shape.
//!
//! [`PipelineBuilder`] picks the shard count, admission flavour and
//! egress discipline independently, then
//! [`run`](PipelineBuilder::run) runs them as one N-shard instance of
//! the one closed loop (`pipeline::ClosedLoop`, which
//! `pipeline::run_closed_loop` feeds lazily drawn arrivals): the
//! admission flavour is the instance's scope, and each shard drains
//! through its own scheduler and line rate. Every
//! combination returns the same `ShardedPipelineReport` (a dense run is
//! simply one shard), so downstream reporting code is shape-agnostic.
//!
//! Determinism contracts follow from there being one loop instance per
//! run: under shard-local admission the shards share nothing, so each
//! sees the events it would see alone, and one shard is the dense
//! pipeline.

use crate::pipeline::{
    assemble_sharded_report, run_closed_loop, Partitioned, PipelineConfig, ShardedPipelineReport,
    SharedBuffer,
};
use npqm_core::policy::{DropPolicy, DynamicThreshold, GlobalLqd};
use npqm_core::sched::{from_spec, DeficitRoundRobin, FlowScheduler};
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::{TelemetryConfig, TelemetryReport};
use npqm_core::FlowId;

type PolicyFactory = Box<dyn FnMut(usize) -> Box<dyn DropPolicy>>;
type SchedFactory = Box<dyn FnMut(usize) -> Box<dyn FlowScheduler>>;

enum AdmissionSel {
    Local(PolicyFactory),
    GlobalLqd { reserve_segments: u32 },
}

/// Builds and runs one closed-loop pipeline; see the [module docs](self).
///
/// Defaults: one shard, shard-local
/// [`DynamicThreshold`]`(2.0)` admission, flat per-flow DRR egress with
/// a 1518-byte quantum.
///
/// # Example
///
/// ```
/// use npqm_core::policy::LongestQueueDrop;
/// use npqm_traffic::{PipelineBuilder, PipelineConfig};
///
/// let cfg = PipelineConfig::small_demo(7);
/// let r = PipelineBuilder::new(&cfg)
///     .shards(2)
///     .admission(|_| LongestQueueDrop::new(0))
///     .egress_spec("wrr:4,2,1,1")
///     .run();
/// assert_eq!(r.aggregate.integrity_violations, 0);
/// assert_eq!(
///     r.aggregate.offered_pkts,
///     r.aggregate.delivered_pkts + r.aggregate.dropped_pkts + r.aggregate.evicted_pkts
/// );
/// ```
///
/// A hierarchical (HTB) egress drops in the same way — build a class
/// tree per shard with [`egress`](PipelineBuilder::egress), or describe
/// it inline:
///
/// ```
/// use npqm_traffic::{PipelineBuilder, PipelineConfig};
///
/// let cfg = PipelineConfig::small_demo(7);
/// let r = PipelineBuilder::new(&cfg)
///     .egress_spec("htb:cap=1000;root,rate=1000;t,parent=root,rate=250,ceil=1000,flows=0-3")
///     .run();
/// assert_eq!(r.aggregate.integrity_violations, 0);
/// ```
pub struct PipelineBuilder {
    cfg: PipelineConfig,
    shards: usize,
    admission: AdmissionSel,
    egress: SchedFactory,
}

impl PipelineBuilder {
    /// Starts a builder over `cfg` with the default shape (see the type
    /// docs).
    pub fn new(cfg: &PipelineConfig) -> Self {
        let flows = cfg.mix.flows();
        PipelineBuilder {
            cfg: cfg.clone(),
            shards: 1,
            admission: AdmissionSel::Local(Box::new(|_| Box::new(DynamicThreshold::new(2.0)))),
            egress: Box::new(move |_| Box::new(DeficitRoundRobin::new(vec![1518; flows as usize]))),
        }
    }

    /// Number of engine shards (1 = the dense pipeline). Arrivals are
    /// routed to their home shard and each shard drains through its own
    /// scheduler and egress server at `cfg.egress_gbps / n`. The
    /// *aggregate* line capacity equals the dense pipeline's, but it is
    /// statically partitioned, exactly like per-engine line cards: a
    /// shard whose egress idles (e.g. the hash homed no flow of a small
    /// mix on it) cannot lend its capacity to a loaded shard, so sharded
    /// goodput can trail the dense pipeline's under skew — that
    /// partitioning penalty is part of what the per-shard reports make
    /// visible.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one shard");
        self.shards = n;
        self
    }

    /// Shard-local admission: `mk_policy(shard)` builds each shard's
    /// [`DropPolicy`] (shard-local thresholds over an equal partition of
    /// the buffer).
    #[must_use]
    pub fn admission<P, F>(mut self, mut mk_policy: F) -> Self
    where
        P: DropPolicy + 'static,
        F: FnMut(usize) -> P + 'static,
    {
        self.admission = AdmissionSel::Local(Box::new(move |shard| Box::new(mk_policy(shard))));
        self
    }

    /// Enables the deterministic telemetry layer
    /// ([`npqm_core::telemetry`]): the run records virtual-time trace
    /// events, a drop-attribution ledger and a metrics registry into
    /// the report's `telemetry` field. Behaviour-neutral — the traced
    /// run's reports and digests are byte-identical to an untraced one.
    #[must_use]
    pub fn observe(mut self, telemetry: TelemetryConfig) -> Self {
        self.cfg.telemetry = Some(telemetry);
        self
    }

    /// Global shared-buffer admission: one [`GlobalLqd`] budget over all
    /// shards (an arrival may push out the globally longest queue on any
    /// shard), emulating the paper's shared data memory across
    /// partitioned engines. Every shard is configured with the full
    /// buffer and the budget equals `cfg.qm.num_segments()` — the *same*
    /// aggregate buffer the dense and the shard-local sharded pipelines
    /// manage, so the three are directly comparable. Egress stays statically
    /// partitioned as under [`shards`](Self::shards): only the buffer is
    /// shared. Push-out victims are charged to their own home shard's
    /// report. The shards are coupled, so the run is one interleaved
    /// simulation (still a pure function of `cfg`).
    #[must_use]
    pub fn admission_global_lqd(mut self, reserve_segments: u32) -> Self {
        self.admission = AdmissionSel::GlobalLqd { reserve_segments };
        self
    }

    /// Egress discipline from a [`from_spec`] string (`"drr"`, `"sp"`,
    /// `"wrr:4,2,1"`, `"htb:..."`), validated against the flow count
    /// immediately; each shard gets an independent instance.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not parse for this config's flow count.
    #[must_use]
    pub fn egress_spec(mut self, spec: &str) -> Self {
        let flows = self.cfg.mix.flows();
        from_spec(spec, flows).unwrap_or_else(|e| panic!("egress_spec: {e}"));
        let spec = spec.to_string();
        self.egress = Box::new(move |_| -> Box<dyn FlowScheduler> {
            from_spec(&spec, flows).expect("from_spec is pure, and accepted this spec above")
        });
        self
    }

    /// Egress discipline from a factory: `mk_sched(shard)` builds each
    /// shard's [`FlowScheduler`].
    #[must_use]
    pub fn egress<S, F>(mut self, mut mk_sched: F) -> Self
    where
        S: FlowScheduler + 'static,
        F: FnMut(usize) -> S + 'static,
    {
        self.egress = Box::new(move |shard| Box::new(mk_sched(shard)));
        self
    }

    /// Runs the configured pipeline: arrivals stop at `cfg.duration`,
    /// then every shard drains its backlog, so per shard and in aggregate
    /// `offered == delivered + dropped + evicted` at return.
    ///
    /// # Panics
    ///
    /// Panics on invalid configs (non-positive egress rate, flow mix
    /// outside the engine's flow table, empty per-shard buffer).
    pub fn run(self) -> ShardedPipelineReport {
        let cfg = &self.cfg;
        let shards = self.shards;
        let flows = cfg.mix.flows();
        assert!(
            flows <= cfg.qm.num_flows(),
            "flow mix draws flows outside the engine's flow table"
        );
        let mut scheds: Vec<_> = (0..shards).map(self.egress).collect();

        let global = matches!(self.admission, AdmissionSel::GlobalLqd { .. });
        assert!(cfg.egress_gbps > 0.0, "egress rate must be positive");
        // Shard-local admission manages an equal partition of the buffer
        // per shard; in the shared-buffer pairing every shard can
        // physically hold the whole budget, so the global LQD budget is
        // the only binding constraint.
        let mut engine = if global {
            ShardedQueueManager::new(cfg.qm, shards)
        } else {
            ShardedQueueManager::partitioned(cfg.qm, shards)
                .expect("per-shard buffer must be non-empty (a config error, under # Panics)")
        };
        let shard_of_flow: Vec<usize> = (0..flows)
            .map(|f| engine.shard_of(FlowId::new(f)))
            .collect();

        let (reports, tel) = match self.admission {
            AdmissionSel::GlobalLqd { reserve_segments } => {
                let mut scope = SharedBuffer {
                    engine: &mut engine,
                    policy: GlobalLqd::new(cfg.qm.num_segments(), reserve_segments),
                    shard_of_flow: &shard_of_flow,
                };
                run_closed_loop(cfg, &mut scope, &mut scheds)
            }
            AdmissionSel::Local(mk_policy) => {
                let mut policies: Vec<_> = (0..shards).map(mk_policy).collect();
                let mut scope = Partitioned {
                    shards: engine.shards_mut(),
                    policies: &mut policies,
                    shard_of_flow: &shard_of_flow,
                };
                run_closed_loop(cfg, &mut scope, &mut scheds)
            }
        };

        debug_assert!(
            engine.verify().is_ok(),
            "cross-shard invariants violated after drain"
        );
        let mut rep = assemble_sharded_report(reports, shard_of_flow, flows);
        // One loop observed the whole engine, so its one recorder merges
        // under shard tag 0.
        rep.telemetry = tel.map(|t| TelemetryReport::merge([(0u32, &t)]));
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npqm_core::policy::LongestQueueDrop;
    use npqm_core::sched::DeficitRoundRobin;

    #[test]
    fn defaults_match_the_dense_pipeline() {
        let cfg = PipelineConfig::bursty_overload(11);
        let built = PipelineBuilder::new(&cfg).run();
        let spelled_out = PipelineBuilder::new(&cfg)
            .shards(1)
            .admission(|_| DynamicThreshold::new(2.0))
            .egress(|_| DeficitRoundRobin::new(vec![1518; 16]))
            .run();
        assert_eq!(format!("{built:?}"), format!("{spelled_out:?}"));
        // One shard: the aggregate *is* the dense report.
        assert_eq!(
            format!("{:?}", built.aggregate),
            format!("{:?}", built.shards[0])
        );
        assert_eq!(built.shards.len(), 1);
        assert_eq!(built.shard_of_flow, vec![0; 16]);
    }

    #[test]
    fn sharded_builder_matches_the_sharded_runner() {
        // Spec-built egress vs factory-built egress: same loops, same
        // inputs.
        let cfg = PipelineConfig::bursty_overload(12);
        let built = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission(|_| DynamicThreshold::new(2.0))
            .egress_spec("drr:1518")
            .run();
        let direct = PipelineBuilder::new(&cfg)
            .shards(4)
            .egress(|_| DeficitRoundRobin::new(vec![1518; 16]))
            .run();
        assert_eq!(format!("{built:?}"), format!("{direct:?}"));
    }

    #[test]
    fn global_admission_matches_the_global_runner() {
        // Global admission replaces the shard-local policy and drains
        // through the default egress.
        let cfg = PipelineConfig::bursty_overload(13);
        let built = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        let direct = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission(|_| LongestQueueDrop::new(0))
            .admission_global_lqd(0)
            .egress(|_| DeficitRoundRobin::new(vec![1518; 16]))
            .run();
        assert_eq!(format!("{built:?}"), format!("{direct:?}"));
        assert!(built.aggregate.evicted_pkts > 0, "global push-out ran");
    }

    #[test]
    #[should_panic(expected = "egress_spec")]
    fn bad_spec_fails_fast_at_build_time() {
        let cfg = PipelineConfig::small_demo(1);
        let _ = PipelineBuilder::new(&cfg).egress_spec("wrr:9,9");
    }
}
