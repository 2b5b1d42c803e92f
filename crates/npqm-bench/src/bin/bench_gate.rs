//! Equality gate over the committed table artifacts.
//!
//! The table binaries write `BENCH_table6.json` … `BENCH_table11.json`.
//! Everything in them outside a `"host"` object is simulated — a pure
//! function of the binary and the seed — so a regenerated artifact must
//! equal the committed one there, leaf for leaf. This gate compares the
//! tree's copies (set aside by `ci.sh` before regeneration) with the
//! regenerated ones and fails, naming the JSON path, on any changed,
//! missing or extra leaf. `host` subtrees (wall clock, busy times, the
//! rates derived from them, the always-zero steal count, cores) are not
//! looked at: host time is `bench/run.sh`'s job.
//!
//! A table with no baseline file (the first run of a new table) is a
//! notice; a baseline that does not parse, or a current artifact that is
//! missing or does not parse, is a failure.
//!
//! Usage: `bench_gate --baseline-dir <dir> --current-dir <dir>`

use npqm_bench::cli::Cli;
use npqm_bench::json::Json;
use std::path::Path;

const TABLES: [&str; 6] = ["table6", "table7", "table8", "table9", "table10", "table11"];

/// Appends to `out` one line per place where `base` and `cur` differ,
/// each starting with the JSON path. Callers strip `host` first.
fn diff(base: &Json, cur: &Json, path: &str, out: &mut Vec<String>) {
    match (base, cur) {
        (Json::Obj(bf), Json::Obj(cf)) => {
            for (k, bv) in bf {
                match cur.get(k) {
                    Some(cv) => diff(bv, cv, &format!("{path}.{k}"), out),
                    None => out.push(format!("{path}.{k}: missing from the current artifact")),
                }
            }
            for (k, _) in cf {
                if base.get(k).is_none() {
                    out.push(format!("{path}.{k}: not in the baseline"));
                }
            }
        }
        (Json::Arr(bs), Json::Arr(cs)) => {
            if bs.len() != cs.len() {
                out.push(format!("{path}: {} items -> {}", bs.len(), cs.len()));
            }
            for (i, (bv, cv)) in bs.iter().zip(cs).enumerate() {
                diff(bv, cv, &format!("{path}[{i}]"), out);
            }
        }
        _ if base == cur => {}
        _ => out.push(format!("{path}: {} -> {}", leaf(base), leaf(cur))),
    }
}

/// A differing value on one line: scalars as they print, containers by
/// kind (a container here means the two sides disagree on the type).
fn leaf(v: &Json) -> String {
    match v {
        Json::Arr(_) => "[...]".to_string(),
        Json::Obj(_) => "{...}".to_string(),
        scalar => scalar.pretty(),
    }
}

/// What the gate found for one table.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Equal outside `host`.
    Equal,
    /// No baseline file: a new table.
    NoBaseline,
    /// One line per difference or unreadable artifact.
    Failed(Vec<String>),
}

/// Judges one table from the two files' contents (`None`: no such file).
fn gate_table(base: Option<&str>, cur: Option<&str>) -> Verdict {
    let Some(base) = base else {
        return Verdict::NoBaseline;
    };
    let parse = |which: &str, text: Option<&str>| {
        let text = text.ok_or_else(|| format!("{which} artifact: cannot read"))?;
        Json::parse(text).map_err(|e| format!("{which} artifact: cannot parse: {e}"))
    };
    match (parse("baseline", Some(base)), parse("current", cur)) {
        (Ok(base), Ok(cur)) => {
            let mut lines = Vec::new();
            diff(&base.without_host(), &cur.without_host(), "$", &mut lines);
            if lines.is_empty() {
                Verdict::Equal
            } else {
                Verdict::Failed(lines)
            }
        }
        (base, cur) => Verdict::Failed(base.err().into_iter().chain(cur.err()).collect()),
    }
}

fn main() {
    let cli = Cli::parse("bench-gate");
    let dir = |name: &str| {
        cli.flag_value(name).unwrap_or_else(|| {
            eprintln!("bench-gate: {name} is required");
            std::process::exit(2);
        })
    };
    let (baseline_dir, current_dir) = (dir("--baseline-dir"), dir("--current-dir"));

    let mut failed = false;
    for table in TABLES {
        let read = |dir: &str| {
            std::fs::read_to_string(Path::new(dir).join(format!("BENCH_{table}.json"))).ok()
        };
        match gate_table(
            read(&baseline_dir).as_deref(),
            read(&current_dir).as_deref(),
        ) {
            Verdict::Equal => {
                println!("bench-gate: {table}: simulated leaves equal, host leaves ignored: ok")
            }
            Verdict::NoBaseline => {
                println!("bench-gate: {table}: skipped (no baseline in {baseline_dir})")
            }
            Verdict::Failed(lines) => {
                failed = true;
                for line in lines {
                    eprintln!("bench-gate FAILED: {table}: {line}");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench-gate: PASS");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
        "table": "t",
        "host": {"cores": 2},
        "rows": [
            {"admitted_pkts": 10, "fingerprint": "0x01", "host": {"wall_clock_us": 5.0}},
            {"admitted_pkts": 20, "fingerprint": "0x02", "host": {"wall_clock_us": 6.0}}
        ]
    }"#;

    fn lines(base: &str, cur: &str) -> Vec<String> {
        let doc = |text| {
            Json::parse(text)
                .expect("test document parses")
                .without_host()
        };
        let mut out = Vec::new();
        diff(&doc(base), &doc(cur), "$", &mut out);
        out
    }

    #[test]
    fn a_differing_host_subtree_passes() {
        let cur = BASE
            .replace("\"cores\": 2", "\"cores\": 64, \"threads\": 4")
            .replace("5.0", "50000.0");
        assert_ne!(cur, BASE);
        assert_eq!(lines(BASE, &cur), Vec::<String>::new());
    }

    #[test]
    fn a_changed_simulated_leaf_fails_naming_its_path() {
        let digest = lines(BASE, &BASE.replace("\"0x02\"", "\"0x03\""));
        assert_eq!(digest, ["$.rows[1].fingerprint: \"0x02\" -> \"0x03\""]);
        let integer = lines(BASE, &BASE.replace("10", "11"));
        assert_eq!(integer, ["$.rows[0].admitted_pkts: 10 -> 11"]);
        // An integer that became a float is a change too, not a tolerance.
        let float = lines(BASE, &BASE.replace("10", "10.0"));
        assert_eq!(float, ["$.rows[0].admitted_pkts: 10 -> 10.0"]);
    }

    #[test]
    fn a_key_on_one_side_only_fails_naming_its_path() {
        let without = BASE.replace("\"admitted_pkts\": 20, ", "");
        assert_eq!(
            lines(BASE, &without),
            ["$.rows[1].admitted_pkts: missing from the current artifact"]
        );
        assert_eq!(
            lines(&without, BASE),
            ["$.rows[1].admitted_pkts: not in the baseline"]
        );
    }

    #[test]
    fn arrays_of_different_length_fail_naming_their_path() {
        assert_eq!(
            lines(r#"{"rows": [1, 2]}"#, r#"{"rows": [1, 2, 3]}"#),
            ["$.rows: 2 items -> 3"]
        );
    }

    #[test]
    fn missing_baseline_is_a_notice_and_unparsable_files_are_failures() {
        let corrupt = "{\"table\": ";
        assert_eq!(gate_table(Some(BASE), Some(BASE)), Verdict::Equal);
        assert_eq!(gate_table(None, Some(BASE)), Verdict::NoBaseline);
        for (base, cur, who) in [
            (corrupt, Some(BASE), "baseline artifact: cannot parse"),
            (BASE, Some(corrupt), "current artifact: cannot parse"),
            (BASE, None, "current artifact: cannot read"),
        ] {
            match gate_table(Some(base), cur) {
                Verdict::Failed(lines) => {
                    assert_eq!(lines.len(), 1, "{lines:?}");
                    assert!(lines[0].starts_with(who), "{lines:?}");
                }
                other => panic!("expected a failure, got {other:?}"),
            }
        }
    }
}
