//! The command line the golden-gated table binaries (`table6` …
//! `table11`) share: `--check` runs the machine-checkable gates instead
//! of the pretty table, `--json <path>` (without `--check`) writes the
//! per-commit bench artifact, `--report <path>` (with `--check`) writes
//! the same rows without their `host` part
//! ([`Json::without_host`]) — the document CI diffs across thread
//! counts — and `--trace <path>` exports a telemetry trace.
//!
//! A binary calls [`Cli::parse`] first; that also records the table's
//! name, which [`check`] and [`write_file`] prefix their output with.

use crate::json::{host, Json, ToJson};
use std::sync::OnceLock;

static TABLE: OnceLock<&'static str> = OnceLock::new();

fn table() -> &'static str {
    TABLE
        .get()
        .expect("Cli::parse runs first in every table binary")
}

/// The process arguments of one table binary.
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Collects the process arguments and records `table` (e.g.
    /// `"table7"`) as the prefix of every gate and file message.
    pub fn parse(table: &'static str) -> Cli {
        TABLE.get_or_init(|| table);
        Cli {
            args: std::env::args().collect(),
        }
    }

    /// Whether the bare flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The argument following `name`, if both are present.
    pub fn flag_value(&self, name: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .cloned()
    }

    /// `Some(--report path, if any)` when `--check` was given, after
    /// warning that a `--json` riding along is ignored; `None` otherwise.
    pub fn check_mode(&self) -> Option<Option<String>> {
        if !self.has("--check") {
            return None;
        }
        if self.flag_value("--json").is_some() {
            eprintln!(
                "{}: --json is ignored in --check mode (run without --check for the \
                 bench artifact; --report writes it without its host part)",
                table()
            );
        }
        Some(self.flag_value("--report"))
    }
}

/// One golden gate: prints `what` as passed, or reports the failure on
/// stderr and exits with status 1.
pub fn check(ok: bool, what: &str) {
    if ok {
        println!("{} check: {what}: ok", table());
    } else {
        eprintln!("{} check FAILED: {what}", table());
        std::process::exit(1);
    }
}

/// Cores the host offers (1 when it cannot say).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `host` entry at the top of every table artifact: [`cores`].
pub fn host_cores() -> (&'static str, Json) {
    host([("cores", cores().to_json())])
}

/// Writes `contents` to `path`, creating its directory, and says so.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("{}: wrote {path}", table());
}
