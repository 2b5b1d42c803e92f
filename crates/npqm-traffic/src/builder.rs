//! One entry point for every closed-loop pipeline shape.
//!
//! [`PipelineBuilder`] picks the shard count, threading, admission
//! flavour and egress discipline independently, then
//! [`run`](PipelineBuilder::run) hands them to the one event loop
//! (`pipeline::run_closed_loop`) as its two parameters — an arrival
//! source and an admission scope — beside each shard's scheduler and
//! line rate. Every combination returns the same
//! `ShardedPipelineReport` (a dense run is simply one shard), so
//! downstream reporting code is shape-agnostic.
//!
//! Determinism contracts follow from there being one loop: one shard is
//! the dense pipeline whether its arrivals are drawn lazily or replayed
//! from a trace, and `parallel(true)` is byte-identical to serial at any
//! thread count.

use crate::pipeline::{
    assemble_sharded_report, run_closed_loop, PipelineConfig, PipelineReport, ShardLocal,
    ShardedPipelineReport, SharedBuffer,
};
use crate::service::{partition_indices, ArrivalEvent};
use npqm_core::policy::{DropPolicy, DynamicThreshold, GlobalLqd};
use npqm_core::sched::{from_spec, FlowScheduler, HtbScheduler};
use npqm_core::shard::parallel::for_each_claimed;
use npqm_core::shard::ShardedQueueManager;
use npqm_core::telemetry::{TelemetryConfig, TelemetryReport};
use npqm_core::{FlowId, QueueManager};

type PolicyFactory = Box<dyn FnMut(usize) -> Box<dyn DropPolicy + Send>>;
type SchedFactory = Box<dyn FnMut(usize) -> Box<dyn FlowScheduler + Send>>;

enum AdmissionSel {
    Local(PolicyFactory),
    GlobalLqd { reserve_segments: u32 },
}

/// Builds and runs one closed-loop pipeline; see the [module docs](self).
///
/// Defaults: one shard, serial, shard-local
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
///     .parallel(true) // byte-identical to serial
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
/// tree and hand it to [`egress_htb`](PipelineBuilder::egress_htb), or
/// describe it inline:
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
    parallel: bool,
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
            parallel: false,
            admission: AdmissionSel::Local(Box::new(|_| Box::new(DynamicThreshold::new(2.0)))),
            egress: Box::new(move |_| from_spec("drr:1518", flows).expect("static spec")),
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

    /// Runs each shard's loop on its own worker (one per shard, through
    /// [`for_each_claimed`]).
    /// Shard-local admission couples nothing across shards, so the run
    /// factorizes into one self-contained loop per shard over a shared
    /// pregenerated trace, and **serial and parallel produce
    /// byte-identical reports** — same loops, same inputs, merged in
    /// shard order — which the `sharded_pipeline_parallel_*` property
    /// tests assert and the CI `parallel-determinism` stage diffs end to
    /// end. Ignored at one shard or under global admission.
    #[must_use]
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Shard-local admission: `mk_policy(shard)` builds each shard's
    /// [`DropPolicy`] (shard-local thresholds over an equal partition of
    /// the buffer).
    #[must_use]
    pub fn admission<P, F>(mut self, mut mk_policy: F) -> Self
    where
        P: DropPolicy + Send + 'static,
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
    /// simulation on the calling thread whatever
    /// [`parallel`](Self::parallel) says (still a pure function of `cfg`).
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
        if let Err(e) = from_spec(spec, flows) {
            panic!("egress_spec: {e}");
        }
        let spec = spec.to_string();
        self.egress = Box::new(move |_| from_spec(&spec, flows).expect("validated above"));
        self
    }

    /// Egress discipline from a factory: `mk_sched(shard)` builds each
    /// shard's [`FlowScheduler`].
    #[must_use]
    pub fn egress<S, F>(mut self, mut mk_sched: F) -> Self
    where
        S: FlowScheduler + Send + 'static,
        F: FnMut(usize) -> S + 'static,
    {
        self.egress = Box::new(move |shard| Box::new(mk_sched(shard)));
        self
    }

    /// Hierarchical (HTB) egress: each shard drains through an
    /// independent clone of `tree` (fresh ledgers, same classes). Leaves
    /// must cover every flow the mix can draw, or packets on uncovered
    /// flows would never be scheduled.
    #[must_use]
    pub fn egress_htb(mut self, tree: HtbScheduler) -> Self {
        self.egress = Box::new(move |_| Box::new(tree.clone()));
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
        let per_shard_gbps = cfg.egress_gbps / shards as f64;
        // Shard-local admission manages an equal partition of the buffer
        // per shard; in the shared-buffer pairing every shard can
        // physically hold the whole budget, so the global LQD budget is
        // the only binding constraint.
        let mut engine = if global {
            ShardedQueueManager::new(cfg.qm, shards)
        } else {
            ShardedQueueManager::partitioned(cfg.qm, shards)
                .expect("per-shard buffer must be non-empty")
        };
        let shard_of_flow: Vec<usize> = (0..flows)
            .map(|f| engine.shard_of(FlowId::new(f)))
            .collect();

        let (reports, shared_tel) = match self.admission {
            AdmissionSel::GlobalLqd { reserve_segments } => {
                let mut scope = SharedBuffer {
                    engine: &mut engine,
                    policy: GlobalLqd::new(cfg.qm.num_segments(), reserve_segments),
                    shard_of_flow: &shard_of_flow,
                };
                run_closed_loop(
                    cfg,
                    cfg.arrival_stream(),
                    &mut scope,
                    &mut scheds,
                    per_shard_gbps,
                )
            }
            AdmissionSel::Local(mk_policy) => {
                let mut policies: Vec<_> = (0..shards).map(mk_policy).collect();
                let reports = if shards == 1 {
                    // Drawn lazily: a long dense run never holds its trace.
                    vec![run_shard_local(
                        cfg,
                        cfg.arrival_stream(),
                        engine.shard_mut(0),
                        &mut policies[0],
                        &mut scheds[0],
                        per_shard_gbps,
                    )]
                } else {
                    // One shared trace, partitioned by *index*: every
                    // shard borrows the same arrival storage and walks
                    // its own index list, so peak memory is O(trace),
                    // not O(shards × trace).
                    let trace: Vec<ArrivalEvent> = cfg.arrival_stream().collect();
                    let idx = partition_indices(&trace, &shard_of_flow, shards);
                    let trace = &trace[..];
                    let mut loops: Vec<_> = engine
                        .shards_mut()
                        .iter_mut()
                        .zip(&mut policies)
                        .zip(&mut scheds)
                        .zip(&idx)
                        .map(|(((qm, policy), sched), ix)| (qm, policy, sched, ix, None))
                        .collect();
                    let workers = if self.parallel { shards } else { 1 };
                    for_each_claimed(&mut loops, workers, |(qm, policy, sched, ix, report)| {
                        let replay = ix.iter().map(|&i| trace[i as usize]);
                        *report = Some(run_shard_local(
                            cfg,
                            replay,
                            qm,
                            *policy,
                            sched,
                            per_shard_gbps,
                        ));
                    });
                    loops
                        .into_iter()
                        .map(|lp| lp.4.expect("every shard's loop ran"))
                        .collect()
                };
                (reports, None)
            }
        };

        debug_assert!(
            engine.verify().is_ok(),
            "cross-shard invariants violated after drain"
        );
        let mut rep = assemble_sharded_report(reports, shard_of_flow, flows);
        if let Some(t) = shared_tel {
            // The coupled loop is inherently serial, so one recorder
            // observed the whole engine; it merges under shard tag 0.
            rep.telemetry = Some(TelemetryReport::merge([(0u32, &t)]));
        }
        rep
    }
}

/// One shard-local instance of the closed loop: `arrivals` through
/// `policy` on `qm`, drained by `sched`. Entirely self-contained — own
/// event queue, ledger and telemetry recorder (returned in the report) —
/// which is what makes a sharded run's parallel mode byte-identical to
/// serial: the instance runs the same either way, only on another thread.
fn run_shard_local(
    cfg: &PipelineConfig,
    arrivals: impl Iterator<Item = ArrivalEvent>,
    qm: &mut QueueManager,
    policy: &mut (dyn DropPolicy + Send),
    sched: &mut Box<dyn FlowScheduler + Send>,
    gbps: f64,
) -> PipelineReport {
    let (mut reports, tel) = run_closed_loop(
        cfg,
        arrivals,
        &mut ShardLocal { qm, policy },
        std::slice::from_mut(sched),
        gbps,
    );
    let mut report = reports.pop().expect("one shard in scope");
    report.telemetry = tel;
    report
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
            .parallel(false)
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
        // Spec-built egress on worker threads vs factory-built egress on
        // the calling thread: same loops, same inputs.
        let cfg = PipelineConfig::bursty_overload(12);
        let built = PipelineBuilder::new(&cfg)
            .shards(4)
            .parallel(true)
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
        // Global admission replaces the shard-local policy, ignores
        // `parallel`, and drains through the default egress.
        let cfg = PipelineConfig::bursty_overload(13);
        let built = PipelineBuilder::new(&cfg)
            .shards(4)
            .admission_global_lqd(0)
            .run();
        let direct = PipelineBuilder::new(&cfg)
            .shards(4)
            .parallel(true)
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
