//! Table 9 (ours): empirical competitive ratios — online drop policies
//! versus a certified offline bound, under friendly and adversarial
//! arrival sequences.
//!
//! The paper evaluates queue management under overload but, like most
//! systems work, only against *friendly* stochastic traffic.
//! Competitive analysis asks the sharper question: how far from the
//! offline optimum can an online policy be driven by a worst-case
//! arrival sequence? This module runs every shipped policy through the
//! slotted arena of [`npqm_core::arena`] on two setups —
//!
//! * **shared-memory switch** (the Matsakis / Hahne–Kesselman–Mansour
//!   model: one output per port per slot, one shared buffer), and
//! * **work server** (Kogan et al.'s model: service time depends on a
//!   per-packet *work* stamp, so admission must weigh work against
//!   size)
//!
//! — against both a Zipf baseline and the policy-targeted adversaries of
//! [`npqm_traffic::adversary`], and scores each run as
//! `bound / goodput` where the bound is the certified offline upper
//! bound of [`npqm_core::arena::offline_bound`]. Because the bound
//! over-approximates OPT, every reported ratio is an *upper* bound on
//! the true empirical competitive ratio, which makes the headline gate
//! sound: LQD's ratio staying under 1.5 on the shared-memory setup is
//! exactly what Matsakis' theorem ("LQD is 1.5-competitive for
//! shared-memory switches") predicts.

use crate::json::{Json, ToJson};
use npqm_core::arena::{offline_bound, run_online, run_online_global, ArenaConfig, ArenaTrace};
use npqm_core::policy::{DropPolicy, GlobalLqd, PushOutLargestWork, WorkSizeBalance};
use npqm_core::{DynamicThreshold, LongestQueueDrop};
use npqm_traffic::adversary::{
    anti_ch, anti_lqd, anti_taildrop, anti_work_oblivious, greedy_taildrop, static_split,
    work_zipf, zipf_unit, UNIT_BYTES,
};

/// Ports of the shared-memory-switch scenario.
pub const SHARED_PORTS: u32 = 8;
/// Buffer segments of the shared-memory-switch scenario.
pub const SHARED_BUFFER: u32 = 32;
/// Shards the global-LQD engine splits the shared scenario across.
pub const GLOBAL_SHARDS: usize = 2;
/// Ports of the work-server scenario.
pub const WORK_PORTS: u32 = 8;
/// Buffer segments of the work-server scenario.
pub const WORK_BUFFER: u32 = 16;
/// Maximum per-packet work stamp in the work-server traces.
pub const WORK_MAX: u32 = 8;
/// Seed shared by every table9 trace generator.
pub const SEED: u64 = 11;
/// The Matsakis gate: LQD's empirical ratio on the shared-memory setup
/// must stay at or below the theorem's 1.5.
pub const LQD_RATIO_CAP: f64 = 1.5;
/// An adversary must beat the Zipf baseline's ratio by at least this
/// much on its target policy (same margin as the generator regression
/// tests) — adversaries must not be decorative.
pub const ADVERSARY_GAP: f64 = 0.05;

/// One (scenario, policy, trace) cell of table 9. Every field is a
/// deterministic function of the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct Table9Row {
    /// `"shared-memory"` or `"work-server"`.
    pub scenario: &'static str,
    /// Policy name, from [`DropPolicy::name`].
    pub policy: String,
    /// Trace label (`"zipf"`, `"anti-lqd"`, ...).
    pub trace: &'static str,
    /// Arrivals offered by the trace.
    pub offered_packets: u64,
    /// Arrivals refused outright.
    pub dropped_packets: u64,
    /// Queued packets pushed out after admission.
    pub evicted_packets: u64,
    /// Bytes fully served.
    pub goodput_bytes: u64,
    /// Certified offline upper bound on OPT's goodput.
    pub bound_bytes: u64,
    /// Whether the bound came from the exact branch-and-bound (small
    /// traces only) rather than the interval relaxation alone.
    pub bound_exact: bool,
    /// `bound_bytes / goodput_bytes` — an upper bound on the empirical
    /// competitive ratio of this run.
    pub ratio: f64,
    /// Packet conservation held (offered = delivered + dropped +
    /// evicted, nothing left buffered).
    pub conserved: bool,
    /// The bound really was an upper bound on this online run.
    pub bound_valid: bool,
    /// Delivery-sequence digest of the run.
    pub digest: u64,
}

impl ToJson for Table9Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", self.scenario.to_json()),
            ("policy", self.policy.to_json()),
            ("trace", self.trace.to_json()),
            ("offered_packets", self.offered_packets.to_json()),
            ("dropped_packets", self.dropped_packets.to_json()),
            ("evicted_packets", self.evicted_packets.to_json()),
            ("goodput_bytes", self.goodput_bytes.to_json()),
            ("bound_bytes", self.bound_bytes.to_json()),
            ("bound_exact", self.bound_exact.to_json()),
            ("ratio", self.ratio.to_json()),
            ("conserved", self.conserved.to_json()),
            ("bound_valid", self.bound_valid.to_json()),
            ("digest", format!("{:016x}", self.digest).to_json()),
        ])
    }
}

/// The shared-memory-switch traces: the Zipf baseline plus one
/// adversary per policy family.
fn shared_traces() -> Vec<(&'static str, ArenaTrace)> {
    vec![
        ("zipf", zipf_unit(SHARED_PORTS, 12, 40, 1.2, SEED)),
        ("anti-lqd", anti_lqd(SHARED_PORTS, SHARED_BUFFER, 4, SEED)),
        ("anti-ch", anti_ch(SHARED_PORTS, SHARED_BUFFER, 8, SEED)),
        (
            "anti-taildrop",
            anti_taildrop(SHARED_PORTS, SHARED_BUFFER, 8, SEED),
        ),
    ]
}

/// The work-server traces: random work stamps versus the
/// heavies-then-cheaps adversary.
fn work_traces() -> Vec<(&'static str, ArenaTrace)> {
    vec![
        ("work-zipf", work_zipf(WORK_PORTS, 3, 40, WORK_MAX, SEED)),
        (
            "anti-work",
            anti_work_oblivious(WORK_PORTS, WORK_BUFFER, 4, WORK_MAX, SEED),
        ),
    ]
}

fn row(
    scenario: &'static str,
    label: &str,
    trace_name: &'static str,
    cfg: &ArenaConfig,
    trace: &ArenaTrace,
    policy: &mut dyn DropPolicy,
) -> Table9Row {
    let rep = run_online(cfg, trace, policy);
    finish_row(scenario, label, trace_name, cfg, trace, rep)
}

fn finish_row(
    scenario: &'static str,
    label: &str,
    trace_name: &'static str,
    cfg: &ArenaConfig,
    trace: &ArenaTrace,
    rep: npqm_core::arena::ArenaReport,
) -> Table9Row {
    let bound = offline_bound(cfg, trace);
    Table9Row {
        scenario,
        policy: label.to_string(),
        trace: trace_name,
        offered_packets: rep.offered_packets,
        dropped_packets: rep.dropped_packets,
        evicted_packets: rep.evicted_packets,
        goodput_bytes: rep.goodput_bytes,
        bound_bytes: bound.bytes,
        bound_exact: bound.exact_bytes.is_some(),
        ratio: rep.ratio(&bound),
        conserved: rep.conserved(),
        bound_valid: bound.bytes >= rep.goodput_bytes,
        digest: rep.digest,
    }
}

/// Runs the full table: every policy on every trace of both scenarios.
pub fn run_table9() -> Vec<Table9Row> {
    let mut rows = Vec::new();
    let shared = ArenaConfig::shared_memory(SHARED_PORTS, SHARED_BUFFER);
    for (name, trace) in &shared_traces() {
        rows.push(row(
            "shared-memory",
            "static-split",
            name,
            &shared,
            trace,
            &mut static_split(SHARED_PORTS, SHARED_BUFFER),
        ));
        rows.push(row(
            "shared-memory",
            "tail-greedy",
            name,
            &shared,
            trace,
            &mut greedy_taildrop(),
        ));
        rows.push(row(
            "shared-memory",
            "dyn-threshold",
            name,
            &shared,
            trace,
            &mut DynamicThreshold::new(2.0),
        ));
        rows.push(row(
            "shared-memory",
            "lqd",
            name,
            &shared,
            trace,
            &mut LongestQueueDrop::new(0),
        ));
        let mut global = GlobalLqd::new(SHARED_BUFFER, 0);
        let rep = run_online_global(&shared, trace, GLOBAL_SHARDS, &mut global);
        rows.push(finish_row(
            "shared-memory",
            "global-lqd",
            name,
            &shared,
            trace,
            rep,
        ));
    }
    let work = ArenaConfig::work_server(WORK_PORTS, WORK_BUFFER, UNIT_BYTES);
    for (name, trace) in &work_traces() {
        rows.push(row(
            "work-server",
            "tail-greedy",
            name,
            &work,
            trace,
            &mut greedy_taildrop(),
        ));
        rows.push(row(
            "work-server",
            "lqd",
            name,
            &work,
            trace,
            &mut LongestQueueDrop::new(0),
        ));
        rows.push(row(
            "work-server",
            "po-work",
            name,
            &work,
            trace,
            &mut PushOutLargestWork::new(0),
        ));
        rows.push(row(
            "work-server",
            "work-balance",
            name,
            &work,
            trace,
            &mut WorkSizeBalance::new(0),
        ));
    }
    rows
}

/// Looks up one cell by (scenario, policy, trace).
///
/// # Panics
///
/// Panics if the cell is not present — table9's layout is static, so a
/// missing cell is a bug, not an input condition.
pub fn cell<'a>(rows: &'a [Table9Row], scenario: &str, policy: &str, trace: &str) -> &'a Table9Row {
    rows.iter()
        .find(|r| r.scenario == scenario && r.policy == policy && r.trace == trace)
        .unwrap_or_else(|| panic!("table9 cell missing: {scenario}/{policy}/{trace}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_rows_are_deterministic_and_sound() {
        let a = run_table9();
        let b = run_table9();
        assert_eq!(a, b, "two in-process runs must be identical");
        assert_eq!(a.len(), 4 * 5 + 2 * 4);
        for r in &a {
            assert!(r.conserved, "{}/{}/{} leaks", r.scenario, r.policy, r.trace);
            assert!(
                r.bound_valid,
                "{}/{}/{}: bound below online",
                r.scenario, r.policy, r.trace
            );
            assert!(r.ratio >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn lqd_stays_under_matsakis_cap() {
        for r in run_table9() {
            if r.scenario == "shared-memory" && r.policy == "lqd" {
                assert!(
                    r.ratio <= LQD_RATIO_CAP,
                    "lqd on {} broke the 1.5 cap: {:.3}",
                    r.trace,
                    r.ratio
                );
            }
        }
    }
}
