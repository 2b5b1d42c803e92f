//! The suite around single runs: every workload's timed and traced run
//! as child processes of this binary (so each gets its own peak-memory
//! figure and exactly the code path the driver measures), `results.json`,
//! the two-set agreement check and `expected.json`'s pins.

use crate::run::{bench_dir, one_line, reference_pin, write_out};
use crate::stat::Quartiles;
use crate::workloads::Workload;
use crate::{host, Cli};
use npqm_bench::Json;
use std::process::{Command, Stdio};

fn benchmark_json() -> Option<Json> {
    let path = bench_dir().parent()?.join("BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// `run_seconds` of `BENCHMARK.json`: how long one run measures when
/// `--seconds` does not say.
pub fn run_seconds() -> f64 {
    benchmark_json()
        .and_then(|b| b.get("run_seconds")?.as_f64())
        .unwrap_or(10.0)
}

/// One child run's result line and `diag` line.
struct ChildRun {
    result: Json,
    diag: Json,
}

impl ChildRun {
    fn count(&self, key: &str) -> i64 {
        self.result.get(key).and_then(Json::as_i64).unwrap_or(0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    /// `(name, value, unit)` of every metric, in report order.
    fn metrics(&self) -> Vec<(&str, f64, &str)> {
        let entries = self.result.get("metrics").and_then(Json::entries);
        entries
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| {
                Some((
                    name.as_str(),
                    m.get("value")?.as_f64()?,
                    m.get("unit")?.as_str()?,
                ))
            })
            .collect()
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics()
            .into_iter()
            .find_map(|(n, v, _)| (n == name).then_some(v))
    }
}

/// Runs one workload once in a child process and waits for it.
fn child(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawning a run: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} run exited with {}", w.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout.lines().last().ok_or("a run printed nothing")?;
    let diag = stdout
        .lines()
        .find_map(|l| l.strip_prefix("diag "))
        .ok_or("a run printed no diag line")?;
    Ok(ChildRun {
        result: Json::parse(result)?,
        diag: Json::parse(diag)?,
    })
}

fn selected(cli: &Cli) -> Vec<Workload> {
    cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

fn metrics_json(run: &ChildRun) -> Json {
    Json::Obj(
        run.metrics()
            .into_iter()
            .map(|(name, value, unit)| {
                let m = Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]);
                (name.to_string(), m)
            })
            .collect(),
    )
}

fn print_metrics(run: &ChildRun) {
    for (name, value, unit) in run.metrics() {
        println!("  {name} {value} {unit}");
    }
}

/// One workload's entry in `results.json`.
fn workload_json(timed: &ChildRun, traced: &ChildRun) -> Json {
    let (attempted, failed) = (timed.count("attempted"), timed.count("failed"));
    let pick = |key: &str| timed.diag.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "fail_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("correct", Json::Bool(timed.correct() && traced.correct())),
        ("end_to_end", metrics_json(timed)),
        ("per_layer", metrics_json(traced)),
        ("sim", pick("sim")),
        ("pin", pick("pin")),
        ("pin_source", pick("pin_source")),
        ("reps", pick("reps")),
        ("slowdown", pick("slowdown")),
        ("raw_wall_s", pick("raw_wall_s")),
        ("raw_calibration_s", pick("raw_calibration_s")),
        ("run_queue_wait_share", pick("run_queue_wait_share")),
        ("loadavg_before", pick("loadavg_before")),
        ("loadavg_after", pick("loadavg_after")),
        (
            "trace",
            traced.diag.get("trace").cloned().unwrap_or(Json::Null),
        ),
    ])
}

/// Timed then traced run of every selected workload; `false` if any
/// operation failed anywhere.
pub fn run_suite(cli: &Cli) -> bool {
    let seconds = cli
        .seconds
        .unwrap_or(if cli.smoke { 0.5 } else { run_seconds() });
    let host = host::provenance(2);
    println!("host {}", one_line(&host));
    println!("loadavg {}", host::loadavg());
    let mut all_ok = true;
    let mut entries = Vec::new();
    for w in selected(cli) {
        println!("{} seed {} ({seconds} s per run)", w.name(), cli.seed);
        let runs = child(w, cli.seed, seconds, false, cli.smoke)
            .and_then(|timed| Ok((timed, child(w, cli.seed, seconds, true, cli.smoke)?)));
        let (timed, traced) = match runs {
            Ok(runs) => runs,
            Err(e) => {
                eprintln!("error: {e}");
                all_ok = false;
                continue;
            }
        };
        print_metrics(&timed);
        if let Some(sim) = timed.diag.get("sim").and_then(Json::entries) {
            for (name, value) in sim {
                match value.as_f64() {
                    Some(v) => println!("  {name} {v}"),
                    None => println!("  {name} n/a"),
                }
            }
        }
        let failed = timed.count("failed") + traced.count("failed");
        println!(
            "  fail_share {} ratio",
            failed as f64 / (timed.count("attempted") + traced.count("attempted")).max(1) as f64
        );
        print_metrics(&traced);
        all_ok &= failed == 0 && timed.correct() && traced.correct();
        entries.push((w.name().to_string(), workload_json(&timed, &traced)));
    }
    let results = Json::obj([
        ("seed", Json::Int(cli.seed as i64)),
        ("seconds_per_run", Json::Num(seconds)),
        ("smoke", Json::Bool(cli.smoke)),
        ("host", host),
        ("loadavg_after", Json::Str(host::loadavg())),
        ("workloads", Json::Obj(entries)),
    ]);
    let path = write_out("results.json", &results.pretty());
    println!("wrote {}", path.display());
    if !all_ok {
        eprintln!("FAIL: some operation failed or some run did not complete (fail_share > 0)");
    }
    all_ok
}

/// An end-to-end metric's rule from `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Vec<Bound> {
    let doc = benchmark_json().expect("BENCHMARK.json is readable at the repo root");
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    metrics
        .iter()
        .filter_map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect()
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
fn worsening(b: &Bound, first: f64, second: f64) -> f64 {
    if b.lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// The acceptance procedure, run locally: two sets of `--runs` timed runs
/// per workload, each run on another seed. Every metric's spread
/// (interquartile range over median; `setup_s` exempt) must stay within
/// its bound in both sets, and the second set's median may not be worse
/// than the first's by more than the bound.
pub fn agree(cli: &Cli) -> bool {
    let seconds = cli.seconds.unwrap_or(run_seconds());
    let bounds = bounds();
    let mut all_ok = true;
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median_1", "median_2", "worse", "spread_1", "spread_2", "bound"
    );
    for w in selected(cli) {
        let mut sets: Vec<Vec<ChildRun>> = Vec::new();
        for _set in 0..2 {
            let mut runs = Vec::new();
            for seed in 1..=cli.runs as u64 {
                match child(w, seed, seconds, false, cli.smoke) {
                    Ok(run) => {
                        // One line per run on stderr: what to look at
                        // when a set disagrees.
                        let raw = |key: &str| {
                            let q1 = run.diag.get(key).and_then(|q| q.get("q1")?.as_f64());
                            q1.unwrap_or(f64::NAN)
                        };
                        eprintln!(
                            "  {} seed {seed}: pkts_per_s {:.0} slowdown {:.3} raw wall q1 {:.4} s \
                             raw kernel q1 {:.5} s",
                            w.name(),
                            run.metric("pkts_per_s").unwrap_or(f64::NAN),
                            run.diag.get("slowdown").and_then(Json::as_f64).unwrap_or(f64::NAN),
                            raw("raw_wall_s"),
                            raw("raw_calibration_s"),
                        );
                        runs.push(run)
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return false;
                    }
                }
            }
            sets.push(runs);
        }
        let exact = sets.iter().flatten().all(|r| r.correct());
        let pins = |set: &[ChildRun]| -> Vec<Json> {
            set.iter()
                .map(|r| r.diag.get("pin").cloned().unwrap_or(Json::Null))
                .collect()
        };
        let identical = pins(&sets[0]) == pins(&sets[1]);
        for b in &bounds {
            let q: Vec<Quartiles> = sets
                .iter()
                .map(|set| {
                    let values: Vec<f64> = set.iter().filter_map(|r| r.metric(&b.name)).collect();
                    Quartiles::of(&values)
                })
                .collect();
            let worse = worsening(b, q[0].median, q[1].median);
            let spread_ok =
                b.name == "setup_s" || (q[0].spread() <= b.bound && q[1].spread() <= b.bound);
            let ok = spread_ok && worse <= b.bound;
            all_ok &= ok;
            println!(
                "{:<18} {:<16} {:>14.6} {:>14.6} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                w.name(),
                b.name,
                q[0].median,
                q[1].median,
                worse * 100.0,
                q[0].spread() * 100.0,
                q[1].spread() * 100.0,
                b.bound * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
        println!(
            "{:<18} simulated results: every run correct: {}; digests identical between sets: {}",
            w.name(),
            exact,
            identical
        );
        all_ok &= exact && identical;
    }
    println!("{}", if all_ok { "AGREE" } else { "DISAGREE" });
    all_ok
}

/// Rewrites `expected.json`'s pins for `--seed` (other seeds' pins stay).
pub fn bless(cli: &Cli) -> bool {
    let path = bench_dir().join("expected.json");
    let old = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let seed = cli.seed.to_string();
    let entries = Workload::ALL
        .into_iter()
        .map(|w| {
            let mut seeds: Vec<(String, Json)> = old
                .as_ref()
                .and_then(|doc| doc.get(w.name())?.entries())
                .unwrap_or_default()
                .iter()
                .filter(|(s, _)| *s != seed)
                .cloned()
                .collect();
            seeds.push((seed.clone(), reference_pin(w, cli.seed)));
            println!(
                "{} seed {seed}: {}",
                w.name(),
                one_line(&seeds[seeds.len() - 1].1)
            );
            (w.name().to_string(), Json::Obj(seeds))
        })
        .collect();
    std::fs::write(&path, Json::Obj(entries).pretty() + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(metrics: &str) -> ChildRun {
        let line = format!(
            r#"{{"correct": true, "attempted": 100, "failed": 0, "metrics": {{{metrics}}}}}"#
        );
        ChildRun {
            result: Json::parse(&line).unwrap(),
            diag: Json::obj([("sim", Json::obj([("sim_loss_share", Json::Num(0.25))]))]),
        }
    }

    #[test]
    fn results_json_round_trips() {
        let timed = run(r#""pkts_per_s": {"value": 2500000.5, "unit": "1/s"}"#);
        let traced = run(r#""traffic.gen.ns_per_pkt": {"value": 55.25, "unit": "ns"}"#);
        let doc = Json::obj([(
            "workloads",
            Json::obj([("loop_min64", workload_json(&timed, &traced))]),
        )]);
        let back = Json::parse(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
        let w = back.get("workloads").unwrap().get("loop_min64").unwrap();
        let v = w.get("end_to_end").unwrap().get("pkts_per_s").unwrap();
        assert_eq!(v.get("value").unwrap().as_f64(), Some(2500000.5));
        assert_eq!(w.get("fail_share").unwrap().as_f64(), Some(0.0));
        let layer = w.get("per_layer").unwrap().get("traffic.gen.ns_per_pkt");
        assert_eq!(layer.unwrap().get("unit").unwrap().as_str(), Some("ns"));
        assert_eq!(
            w.get("sim")
                .unwrap()
                .get("sim_loss_share")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn worsening_follows_the_metrics_direction() {
        let lower = Bound {
            name: "cpu_ns_per_pkt".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let higher = Bound {
            name: "pkts_per_s".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert!((worsening(&lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 100.0, 120.0) < 0.0);
    }
}
