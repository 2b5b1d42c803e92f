//! What the host did: CPU time, peak memory, run-queue wait, provenance.
//!
//! Linux only (`/proc` and `clock_gettime`), like the sandbox the
//! benchmark's bounds were fixed on.

use npqm_bench::Json;
use std::fs;
use std::process::Command;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has consumed on all its threads, living or
/// joined, in nanoseconds. (`/proc/self/task/*/schedstat` would lose the
/// threads `run_service` and the batch executor spawn and join inside one
/// call.)
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Time the main thread spent runnable but not running, in nanoseconds
/// (second field of `/proc/self/schedstat`); 0 where the kernel does not
/// keep it.
pub fn run_queue_wait_ns() -> u64 {
    fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

fn first_line(text: String) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// `/proc/loadavg`, verbatim.
pub fn loadavg() -> String {
    first_line(fs::read_to_string("/proc/loadavg").unwrap_or_default())
}

/// The host a result was taken on: a number without this is not
/// comparable with anything.
pub fn provenance(threads_used: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| first_line(String::from_utf8_lossy(&o.stdout).into_owned()))
        .unwrap_or_default();
    let kernel = first_line(fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("threads_used", Json::Int(threads_used as i64)),
        ("rustc", Json::Str(rustc)),
        // Cargo's default release profile; bench/Cargo.toml sets none.
        (
            "opt_level",
            Json::Str(if cfg!(debug_assertions) { "0" } else { "3" }.into()),
        ),
        ("kernel", Json::Str(kernel)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_memory_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(x > 0);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mb() > 0.5);
    }
}
