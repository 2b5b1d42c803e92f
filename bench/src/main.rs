//! The repo benchmark. See `bench/README.md`.
//!
//! With `--trace 0|1` this is one run of one workload, ending in the one
//! JSON line `BENCHMARK.json`'s contract asks for. Without it, it is the
//! suite: every workload's timed and traced run as child processes of
//! this same binary, printed by name and written to `out/results.json`.

mod alloc;
mod calib;
mod host;
mod ladder;
mod run;
mod span;
mod stat;
mod suite;
mod workloads;

use run::RunArgs;
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
           one run of one workload; the last line of stdout is its result
       run.sh [--workload W] [--seed N] [--seconds S] [--smoke]
           the suite: timed then traced run of every workload (or of W)
       run.sh --agree [--runs R] [--workload W] [--seconds S]
           two sets of R runs (seeds 1..R) per workload against the bounds
       run.sh --bless [--seed N]
           rewrite expected.json's pins for seed N (default 42)
workloads: svc_steady svc_lanes_2t batch_zipf batch_zipf_2t loop_min64 engine_32kq_1518";

/// Parsed command line.
pub struct Cli {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub agree: bool,
    pub bless: bool,
    pub runs: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: None,
        smoke: false,
        agree: false,
        bless: false,
        runs: 10,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = Some(Workload::from_name(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(v));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--runs" => {
                let v = value()?;
                cli.runs = v.parse().ok().filter(|&r| r >= 2).ok_or_else(|| bad(v))?;
            }
            "--smoke" => cli.smoke = true,
            "--agree" => cli.agree = true,
            "--bless" => cli.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match (cli.trace, cli.workload) {
        (Some(traced), Some(workload)) => {
            let a = RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds.unwrap_or(suite::run_seconds()),
                div: if cli.smoke { 10 } else { 1 },
            };
            let result = if traced {
                run::traced_pass(&a)
            } else {
                run::timed_pass(&a)
            };
            println!("diag {}", run::one_line(&result.diag));
            println!("{}", result.result_line());
            true
        }
        (Some(_), None) => {
            eprintln!("--trace needs --workload\n{USAGE}");
            return ExitCode::from(2);
        }
        (None, _) if cli.bless => suite::bless(&cli),
        (None, _) if cli.agree => suite::agree(&cli),
        (None, _) => suite::run_suite(&cli),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let cli = parse(&args(
            "--workload loop_min64 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload, Some(Workload::LoopMin64));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace),
            (7, Some(10.0), Some(true))
        );
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds",
            "--frobnicate",
            "--runs 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
