//! # npqm-bench — the paper's evaluation, regenerated
//!
//! One binary per table of *"Queue Management in Network Processors"*
//! (DATE 2005), printing the published values next to the values measured
//! from this repository's models, plus the relative deviation:
//!
//! * `table1` — DDR throughput loss vs. banks and scheduler (§3);
//! * `table2` — IXP1200 packet rates vs. queue count (§4);
//! * `table3` — NPU software queue-manager cycle breakdown (§5) and the
//!   §5.3 copy optimizations;
//! * `table4` — MMS command execution latencies (§6.1);
//! * `table5` — MMS FIFO/execution/data delays vs. load (§6.1), also
//!   emitted as a CSV latency-vs-load series;
//! * `table9` — the competitive-analysis arena (see [`competitive`]):
//!   empirical competitive ratios of every shipped drop policy against a
//!   certified offline bound, under Zipf and adversarial traffic;
//! * `all_tables` — tables 1–5 and the MMS saturation point as one JSON
//!   document (tables 6–11 write theirs with `tableN --json`).
//!
//! The golden-gated binaries (`table6` … `table11`) share one command
//! line — `--check`, `--report`, `--json`, `--trace` — in [`cli`]. Their
//! `--json` artifacts keep every host-dependent value under one `host`
//! key ([`json::HOST`]); `bench_gate` holds everything else to equality
//! with the committed copies. Host time itself is measured and gated in
//! one place, the `bench/` workspace at the repository root.

pub mod cli;
pub mod competitive;
pub mod json;
pub mod qos;

pub use json::{Json, ToJson};

use std::fmt::Write as _;

/// Formats one comparison row: a label, the paper's value, the measured
/// value and the relative deviation.
pub fn compare_row(label: &str, paper: f64, measured: f64) -> String {
    let delta = if paper.abs() < 1e-12 {
        0.0
    } else {
        (measured - paper) / paper * 100.0
    };
    format!("{label:<42} {paper:>10.3} {measured:>10.3} {delta:>+8.1}%")
}

/// Header matching [`compare_row`]'s columns.
pub fn compare_header(title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}", "=".repeat(title.len()));
    let _ = write!(
        out,
        "{:<42} {:>10} {:>10} {:>9}",
        "metric", "paper", "measured", "delta"
    );
    out
}

/// Serializes `value` as pretty JSON (for machine-readable result dumps).
pub fn to_json_string<T: ToJson>(value: &T) -> String {
    value.to_json().pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_row_formats_delta() {
        let row = compare_row("x", 10.0, 11.0);
        assert!(row.contains("+10.0%"), "{row}");
        let row = compare_row("x", 10.0, 9.0);
        assert!(row.contains("-10.0%"), "{row}");
        let row = compare_row("zero paper", 0.0, 5.0);
        assert!(row.contains("+0.0%"), "{row}");
    }

    #[test]
    fn header_mentions_columns() {
        let h = compare_header("Table 9");
        assert!(h.contains("Table 9"));
        assert!(h.contains("paper"));
        assert!(h.contains("measured"));
    }

    #[test]
    fn json_round_trip() {
        let s = to_json_string(&vec![1, 2, 3]);
        assert!(s.contains('['));
    }
}
