//! Performance-regression gate over the committed bench artifacts.
//!
//! The table binaries write per-commit perf artifacts
//! (`BENCH_table6.json` … `BENCH_table10.json`) containing wall-clock
//! measurements and composite rates next to the deterministic counters.
//! This gate compares the **freshly regenerated** artifacts against the
//! **committed baselines** (the `HEAD` copies, extracted by `ci.sh`
//! before regeneration) and fails on a real regression:
//!
//! * any `wall_clock_us` leaf may not grow by more than the tolerance
//!   (sub-millisecond baselines are skipped as pure noise);
//! * any `segments_per_sec` / `ops_per_sec` leaf may not shrink by more
//!   than the tolerance.
//!
//! The two documents are walked structurally in lockstep; leaves that
//! exist only on one side (format evolution) are reported and skipped,
//! never failed — the gate guards performance, not schema. A table with
//! no committed baseline (first run of a new table) is skipped with a
//! notice. `ci.sh` applies the usual one-retry policy by regenerating
//! the artifacts once if the gate trips.
//!
//! Usage: `bench_gate --baseline-dir <dir> --current-dir <dir>
//! [--tolerance 0.15] [--tables table6,table7,...]`

use npqm_bench::cli::Cli;
use npqm_bench::json::Json;

/// Relative regression budget for both directions (wall clock up, rate
/// down).
const DEFAULT_TOLERANCE: f64 = 0.15;

/// Wall-clock baselines below this many microseconds are not compared:
/// scheduler jitter alone exceeds the tolerance at that scale.
const MIN_WALL_US: f64 = 1000.0;

const DEFAULT_TABLES: [&str; 6] = ["table6", "table7", "table8", "table9", "table10", "table11"];

/// Metric leaves where a larger current value is a regression.
const LOWER_BETTER: [&str; 1] = ["wall_clock_us"];
/// Metric leaves where a smaller current value is a regression.
/// Goodput is deterministic rather than timed, but a >15% drop is a
/// regression all the same — and intentional workload changes update
/// the committed baseline in the same commit.
const HIGHER_BETTER: [&str; 3] = ["segments_per_sec", "ops_per_sec", "goodput_gbps"];

struct Outcome {
    compared: u64,
    skipped: u64,
    violations: Vec<String>,
    /// Worst observed relative change, for the summary line.
    worst: Option<(String, f64)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            compared: 0,
            skipped: 0,
            violations: Vec::new(),
            worst: None,
        }
    }

    fn note(&mut self, path: &str, rel: f64) {
        if self.worst.as_ref().is_none_or(|(_, w)| rel > *w) {
            self.worst = Some((path.to_string(), rel));
        }
    }
}

/// Compares one metric leaf; `rel` is the regression magnitude (positive
/// = worse), sign-normalized across both metric directions.
fn compare_leaf(path: &str, key: &str, base: f64, cur: f64, tol: f64, out: &mut Outcome) {
    let lower_better = LOWER_BETTER.contains(&key);
    if lower_better && base < MIN_WALL_US {
        out.skipped += 1;
        return;
    }
    if base <= 0.0 {
        out.skipped += 1;
        return;
    }
    let rel = if lower_better {
        cur / base - 1.0
    } else {
        1.0 - cur / base
    };
    out.compared += 1;
    out.note(path, rel);
    if rel > tol {
        let dir = if lower_better { "slower" } else { "lower" };
        out.violations.push(format!(
            "{path}: {base:.1} -> {cur:.1} ({:+.1}% {dir}, tolerance {:.0}%)",
            rel * 100.0,
            tol * 100.0
        ));
    }
}

/// Walks baseline and current documents in lockstep, comparing metric
/// leaves and counting (never failing on) structural divergence.
fn walk(base: &Json, cur: &Json, path: &str, tol: f64, out: &mut Outcome) {
    match (base, cur) {
        (Json::Obj(bf), Json::Obj(_)) => {
            for (k, bv) in bf {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match cur.get(k) {
                    Some(cv) => {
                        if let (Some(b), Some(c)) = (bv.as_f64(), cv.as_f64()) {
                            if LOWER_BETTER.contains(&k.as_str())
                                || HIGHER_BETTER.contains(&k.as_str())
                            {
                                compare_leaf(&sub, k, b, c, tol, out);
                            }
                        } else {
                            walk(bv, cv, &sub, tol, out);
                        }
                    }
                    None => out.skipped += 1,
                }
            }
        }
        (Json::Arr(bs), Json::Arr(cs)) => {
            if bs.len() != cs.len() {
                out.skipped += 1;
            }
            for (i, (bv, cv)) in bs.iter().zip(cs).enumerate() {
                walk(bv, cv, &format!("{path}[{i}]"), tol, out);
            }
        }
        // Scalar leaves that are not tracked metrics, or a structural
        // type change: nothing to compare.
        _ => {}
    }
}

fn read_doc(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse: {e}"))
}

fn main() {
    let cli = Cli::parse("bench-gate");
    let flag_value = |name: &str| cli.flag_value(name);
    let baseline_dir = flag_value("--baseline-dir").unwrap_or_else(|| {
        eprintln!("bench-gate: --baseline-dir is required");
        std::process::exit(2);
    });
    let current_dir = flag_value("--current-dir").unwrap_or_else(|| {
        eprintln!("bench-gate: --current-dir is required");
        std::process::exit(2);
    });
    let tol = flag_value("--tolerance")
        .map(|t| t.parse::<f64>().expect("--tolerance must be a number"))
        .unwrap_or(DEFAULT_TOLERANCE);
    let tables: Vec<String> = flag_value("--tables")
        .map(|t| t.split(',').map(str::to_string).collect())
        .unwrap_or_else(|| DEFAULT_TABLES.iter().map(|s| s.to_string()).collect());

    let mut failed = false;
    for table in &tables {
        let file = format!("BENCH_{table}.json");
        let base_path = std::path::Path::new(&baseline_dir).join(&file);
        let cur_path = std::path::Path::new(&current_dir).join(&file);
        let base = match read_doc(&base_path) {
            Ok(doc) => doc,
            Err(e) => {
                // No baseline (new table, or HEAD predates it) is not a
                // regression; a broken baseline must not brick CI either.
                println!(
                    "bench-gate: {table}: skipped (baseline {}: {e})",
                    base_path.display()
                );
                continue;
            }
        };
        let cur = match read_doc(&cur_path) {
            Ok(doc) => doc,
            Err(e) => {
                // A missing/corrupt *current* artifact means generation
                // failed — that is a hard failure.
                eprintln!(
                    "bench-gate FAILED: {table}: current {}: {e}",
                    cur_path.display()
                );
                failed = true;
                continue;
            }
        };
        let mut out = Outcome::new();
        walk(&base, &cur, "", tol, &mut out);
        for v in &out.violations {
            eprintln!("bench-gate FAILED: {table}: {v}");
            failed = true;
        }
        if out.violations.is_empty() {
            match &out.worst {
                Some((path, rel)) => println!(
                    "bench-gate: {table}: {} metrics within {:.0}% (worst {:+.1}% at {path}), \
                     {} skipped: ok",
                    out.compared,
                    tol * 100.0,
                    rel * 100.0,
                    out.skipped
                ),
                None => println!(
                    "bench-gate: {table}: no tracked metrics found ({} skipped): ok",
                    out.skipped
                ),
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench-gate: PASS");
}
