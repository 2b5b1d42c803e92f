//! One run of one workload: the timed pass (`--trace 0`, end-to-end
//! metrics, tracing off) or the traced pass (`--trace 1`, per-layer
//! metrics from the ladder).

use crate::calib::{self, Kernel};
use crate::host;
use crate::ladder;
use crate::span::{SpanId, Tracer};
use crate::stat::{lower_decile, median, Quartiles};
use crate::workloads::{Outcome, Workload};
use npqm_bench::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Times the inputs and the reference run are built per process.
/// `setup_s` is their lower quartile: with nine samples of 0.06-0.5 s the
/// median moved by up to 22% between identical sets of runs on the noisy
/// sandbox, and a decile of nine is just the fastest one. `--smoke` only
/// asks whether everything still runs, so it sets up three times.
fn setups(div: u64) -> usize {
    if div == 1 {
        9
    } else {
        3
    }
}

/// Length of the calibration slice after a repetition, as a share of the
/// repetition's own.
const CALIBRATION_SHARE: f64 = 0.5;

/// Fewest timed repetitions a run reports quartiles of.
const MIN_REPS: usize = 5;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Divides every packet count (`--smoke` passes 10).
    pub div: u64,
}

/// One metric as the last line reports it.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: simulated results, digests,
    /// quartiles, host load. Printed as the `diag` line.
    pub diag: Json,
}

impl RunResult {
    /// The result line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value = Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]);
                    (m.name.clone(), value)
                })
                .collect(),
        );
        one_line(&Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ]))
    }
}

/// `Json::pretty` on one line (its strings escape their own newlines).
pub fn one_line(json: &Json) -> String {
    json.pretty().lines().map(str::trim_start).collect()
}

pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Writes `text` to `out/<file>` under the benchmark's directory, the one
/// place results and traces go; returns the path.
pub fn write_out(file: &str, text: &str) -> PathBuf {
    let dir = bench_dir().join("out");
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    path
}

fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// The simulated results `expected.json` pins for one workload and seed.
pub fn pin_of(out: &Outcome) -> Json {
    Json::obj([
        ("digest", Json::Str(hex(out.digest))),
        ("offered_pkts", Json::Int(out.offered_pkts as i64)),
        ("delivered_pkts", Json::Int(out.delivered_pkts as i64)),
        ("delivered_bytes", Json::Int(out.delivered_bytes as i64)),
        ("dropped_pkts", Json::Int(out.dropped_pkts as i64)),
        ("evicted_pkts", Json::Int(out.evicted_pkts as i64)),
    ])
}

/// The pin for `workload` and `seed` in an `expected.json` document, if
/// it lists one.
pub fn pinned(expected_json: &str, workload: Workload, seed: u64) -> Option<Json> {
    let doc = Json::parse(expected_json).unwrap_or_else(|e| panic!("expected.json: {e}"));
    doc.get(workload.name())?.get(&seed.to_string()).cloned()
}

fn sim_json(out: &Outcome) -> Json {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    Json::obj([
        ("sim_goodput_gbps", opt(out.sim_goodput_gbps)),
        ("sim_loss_share", Json::Num(out.sim_loss_share)),
        ("sim_latency_p99_us", opt(out.sim_latency_p99_us)),
    ])
}

fn quartiles_json(q: &Quartiles) -> Json {
    Json::obj([
        ("q1", Json::Num(q.q1)),
        ("median", Json::Num(q.median)),
        ("q3", Json::Num(q.q3)),
    ])
}

/// Builds inputs and runs the workload's serial reference once, untimed:
/// the warm-up, and the simulated results every timed repetition must
/// reproduce (so a `*_2t` workload is checked against its serial twin).
fn reference_run(a: &RunArgs) -> Outcome {
    let inputs = a.workload.prepare(a.seed, a.div);
    a.workload
        .call(inputs, Some(1), &mut Tracer::off(), SpanId::NONE)
        .simulated()
}

/// The pin `--bless` writes for `workload` and `seed`.
pub fn reference_pin(workload: Workload, seed: u64) -> Json {
    pin_of(&reference_run(&RunArgs {
        workload,
        seed,
        seconds: 0.0,
        div: 1,
    }))
}

/// What the reference must equal for the run to count: the pin in
/// `expected.json` where it lists this seed (full size only), else nothing
/// beyond repeating itself.
fn check_reference(a: &RunArgs, reference: &Outcome) -> (bool, &'static str) {
    if a.div != 1 {
        return (true, "none (smoke sizes)");
    }
    let expected = std::fs::read_to_string(bench_dir().join("expected.json")).unwrap_or_default();
    if expected.is_empty() {
        return (true, "none (no expected.json)");
    }
    match pinned(&expected, a.workload, a.seed) {
        Some(pin) => (pin == pin_of(reference), "expected.json"),
        None => (true, "none (unlisted seed): repetitions must agree"),
    }
}

/// The timed pass: set-up, then repetitions of the workload's entry point
/// for `seconds`, inputs rebuilt outside the timed call before each.
pub fn timed_pass(a: &RunArgs) -> RunResult {
    let load_before = host::loadavg();
    let started = Instant::now();

    // The calibration kernel runs beside everything that is timed; see
    // `calib` for why.
    let mut kernel = Kernel::new();
    let mut cal_s = vec![kernel.seconds(0.0)];

    let mut setup_s = Vec::new();
    let mut reference = Outcome::default();
    for _ in 0..setups(a.div) {
        let t = Instant::now();
        reference = reference_run(a);
        setup_s.push(t.elapsed().as_secs_f64());
        cal_s.push(kernel.seconds(0.0));
    }
    let (pin_ok, pin_source) = check_reference(a, &reference);

    let mut wall_s = Vec::new();
    let mut cpu_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = reference.clone();
    let window = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    while wall_s.len() < MIN_REPS || window.elapsed() < budget {
        let inputs = a.workload.prepare(a.seed, a.div);
        let cpu0 = host::process_cpu_ns();
        let t0 = Instant::now();
        let out = a
            .workload
            .call(inputs, None, &mut Tracer::off(), SpanId::NONE);
        wall_s.push(t0.elapsed().as_secs_f64());
        cpu_s.push((host::process_cpu_ns() - cpu0) as f64 / 1e9);
        cal_s.push(kernel.seconds(CALIBRATION_SHARE * wall_s[wall_s.len() - 1]));
        attempted += out.offered_pkts;
        // A repetition whose simulated results differ from the reference
        // (or whose reference differs from its pin) got *some* answer
        // wrong, and nothing says which packets: all of them fail.
        failed += if pin_ok && out.simulated() == reference {
            out.failed()
        } else {
            out.offered_pkts
        };
        last = out;
    }

    // Lower deciles see through the short slow spells; dividing by the
    // kernel's own lower decile takes out the long ones. What is left is
    // in seconds of the reference host.
    let slowdown = lower_decile(&cal_s) / calib::REFERENCE_S;
    let wall = lower_decile(&wall_s) / slowdown;
    let cpu = lower_decile(&cpu_s) / slowdown;
    let offered = reference.offered_pkts as f64;
    let metrics = vec![
        metric("pkts_per_s", offered / wall, "1/s"),
        metric(
            "host_gbps",
            reference.delivered_bytes as f64 * 8.0 / wall / 1e9,
            "Gbit/s",
        ),
        metric("cpu_ns_per_pkt", cpu * 1e9 / offered, "ns"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric("setup_s", Quartiles::of(&setup_s).q1 / slowdown, "s"),
    ];

    let total_wall_ns = started.elapsed().as_nanos() as f64;
    let run_queue_share = host::run_queue_wait_ns() as f64 / total_wall_ns;
    if run_queue_share > 0.02 {
        eprintln!(
            "warning: {}: the main thread waited for a CPU for {:.1}% of the run; \
             the host is busy and timings are inflated",
            a.workload.name(),
            run_queue_share * 100.0
        );
    }
    let diag = Json::obj([
        ("workload", Json::Str(a.workload.name().into())),
        ("seed", Json::Int(a.seed as i64)),
        ("reps", Json::Int(wall_s.len() as i64)),
        ("slowdown", Json::Num(slowdown)),
        ("raw_wall_s", quartiles_json(&Quartiles::of(&wall_s))),
        ("raw_cpu_s", quartiles_json(&Quartiles::of(&cpu_s))),
        ("raw_calibration_s", quartiles_json(&Quartiles::of(&cal_s))),
        ("raw_setup_s", quartiles_json(&Quartiles::of(&setup_s))),
        (
            "raw_wall_s_each",
            Json::Arr(wall_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "raw_calibration_s_each",
            Json::Arr(cal_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("pin", pin_of(&reference)),
        ("pin_source", Json::Str(pin_source.into())),
        ("pin_ok", Json::Bool(pin_ok)),
        ("sim", sim_json(&reference)),
        ("residual_pkts", Json::Int(last.residual_pkts as i64)),
        ("host", host::provenance(a.workload.threads())),
        ("loadavg_before", Json::Str(load_before)),
        ("loadavg_after", Json::Str(host::loadavg())),
        ("run_queue_wait_share", Json::Num(run_queue_share)),
    ]);
    RunResult {
        attempted,
        failed,
        metrics,
        diag,
    }
}

/// The traced pass: ladder passes for `seconds`, each metric reported as
/// the median over the passes, the last pass's spans written to
/// `out/trace-<workload>.json`.
pub fn traced_pass(a: &RunArgs) -> RunResult {
    let window = Instant::now();
    let budget = Duration::from_secs_f64(a.seconds);
    let mut passes: Vec<ladder::Pass> = Vec::new();
    while passes.is_empty() || window.elapsed() < budget {
        passes.push(ladder::climb(a.workload, a.seed, a.div));
    }

    let last = passes.last().expect("at least one pass ran");
    let trace_path = write_out(
        &format!("trace-{}.json", a.workload.name()),
        &last.tracer.to_chrome_json(a.workload.name()).pretty(),
    );

    let metrics = ladder::METRICS
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes.iter().map(|p| p.value(name)).collect();
            metric(name, median(&values), unit)
        })
        .collect();
    let top = &last.top;
    let reference = reference_run(a);
    let ok = top.simulated() == reference;
    let diag = Json::obj([
        ("workload", Json::Str(a.workload.name().into())),
        ("seed", Json::Int(a.seed as i64)),
        ("ladder_passes", Json::Int(passes.len() as i64)),
        ("trace", Json::Str(trace_path.display().to_string())),
        ("spans", Json::Int(last.tracer.spans().len() as i64)),
        ("pin", pin_of(top)),
        ("sim", sim_json(top)),
        ("host", host::provenance(a.workload.threads().max(2))),
    ]);
    RunResult {
        attempted: top.offered_pkts,
        failed: if ok { top.failed() } else { top.offered_pkts },
        metrics,
        diag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_line_with_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics: vec![
                metric("setup_s", 0.25, "s"),
                metric("pkts_per_s", 1.5e6, "1/s"),
            ],
            diag: Json::Null,
        };
        let line = r.result_line();
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").unwrap().as_bool(), Some(true));
        let m = json.get("metrics").unwrap().get("pkts_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.5e6));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn pins_round_trip_through_expected_json() {
        let out = Outcome {
            offered_pkts: 9,
            delivered_pkts: 6,
            delivered_bytes: 600,
            dropped_pkts: 2,
            evicted_pkts: 1,
            digest: 0xDEAD_BEEF_0000_0001,
            ..Outcome::default()
        };
        let doc = Json::obj([(
            Workload::LoopMin64.name(),
            Json::obj([("42", pin_of(&out))]),
        )]);
        let text = doc.pretty();
        assert_eq!(pinned(&text, Workload::LoopMin64, 42), Some(pin_of(&out)));
        assert_eq!(pinned(&text, Workload::LoopMin64, 7), None);
        assert_eq!(pinned(&text, Workload::SvcSteady, 42), None);
        let other = Outcome { digest: 1, ..out };
        assert_ne!(pinned(&text, Workload::LoopMin64, 42), Some(pin_of(&other)));
    }
}
