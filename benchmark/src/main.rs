//! The P2 reproduction's benchmark. See `README.md` in this directory.
//!
//! ```text
//! p2-benchmark run   [--seed N] [--seconds S] [--smoke]   every workload, end-to-end metrics
//! p2-benchmark trace [--seed N] [--seconds S] [--smoke]   every workload, per-layer metrics
//! p2-benchmark aa --runs N [--seed N] [--smoke]           same code N times: spread vs bound
//! p2-benchmark manifest                                   BENCHMARK.json from the metric tables
//! p2-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! The last form runs one workload in this process and ends its output
//! with the one-line JSON result; the other three start it as a child
//! process per workload, so that peak memory is per workload.

mod frontend;
mod json;
mod metrics;
mod report;
mod rig;
mod stats;
mod suite;
mod timed;
mod units;
mod workloads;

use std::process::{Command, ExitCode};

use serde::Json;

use metrics::{Clock, MANIFEST_END_TO_END, PER_LAYER, WORKLOADS};
use suite::Options;

const USAGE: &str =
    "usage: p2-benchmark (run | trace | aa --runs N | manifest | --workload NAME --trace 0|1) \
                     [--seed N] [--seconds S] [--smoke]";

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" | "trace" | "aa" | "manifest" if args.mode.is_none() => args.mode = Some(arg),
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Child mode: one workload in this process, the result line last.
fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(workload) = metrics::workload(name) else {
        eprintln!(
            "unknown workload {name}; known: {:?}",
            WORKLOADS.map(|w| w.name)
        );
        return ExitCode::from(2);
    };
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let detail = suite::run(workload, &opts);
    detail.print();
    if let Err(e) = detail.write() {
        eprintln!("result file not written: {e}");
        return ExitCode::FAILURE;
    }
    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        MANIFEST_END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    println!("{}", detail.result_line(&wanted));
    if detail.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in a fresh child process and reads its result file.
fn spawn(args: &Args, workload: &str, traced: bool) -> Result<report::Loaded, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child to end; its output goes straight through.
    let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
    let loaded = report::load(workload, traced)?;
    if !status.success() || !loaded.correct {
        return Err(format!("{workload}: an output check failed ({status})"));
    }
    Ok(loaded)
}

/// `run` and `trace`: every workload once; all results in one file.
fn run_suite(args: &Args, traced: bool) -> ExitCode {
    let mut docs = Vec::new();
    let mut failures = Vec::new();
    for w in WORKLOADS {
        match spawn(args, w.name, traced) {
            Ok(loaded) => docs.push(loaded.doc),
            Err(e) => failures.push(e),
        }
    }
    let file = if traced { "trace.json" } else { "results.json" };
    let path = report::out_dir().join(file);
    let text = serde_json::to_string_pretty(&Json::Array(docs)).expect("writer cannot fail");
    if let Err(e) = std::fs::write(&path, text) {
        failures.push(format!("{}: {e}", path.display()));
    }
    println!("results in {}", path.display());
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `aa`: the untraced suite `runs` times on the same code and seed. A
/// wall-clock metric's spread (max − min over its median) must stay within
/// its bound; a simulated metric must repeat bit for bit.
fn run_aa(args: &Args) -> ExitCode {
    if args.runs < 2 {
        eprintln!("aa needs --runs of at least 2");
        return ExitCode::from(2);
    }
    let mut breaches = 0usize;
    for w in WORKLOADS {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for _ in 0..args.runs {
            match spawn(args, w.name, false) {
                Ok(loaded) => runs.push(loaded.values),
                Err(e) => {
                    eprintln!("FAILED {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("-- A/A {} ({} runs, seed {})", w.name, args.runs, args.seed);
        for (name, _) in &runs[0] {
            let Some(def) = metrics::end_to_end(name) else {
                continue;
            };
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            let ok = match def.clock {
                Clock::Simulated => values.iter().all(|v| v.to_bits() == values[0].to_bits()),
                Clock::Wall => spread(&values) <= def.bound,
            };
            println!(
                "  {:<26} spread {:>7.4} bound {:>6.3} ({:>9}) {}",
                name,
                spread(&values),
                def.bound,
                match def.clock {
                    Clock::Simulated => "identical",
                    Clock::Wall => def.better.as_str(),
                },
                if ok { "ok" } else { "BREACH" }
            );
            breaches += usize::from(!ok);
        }
    }
    if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{breaches} metric(s) outside their bound");
        ExitCode::FAILURE
    }
}

/// Largest minus smallest value as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let median = stats::quantile(values, 0.5);
    if median == 0.0 {
        return if hi == lo { 0.0 } else { f64::INFINITY };
    }
    (hi - lo) / median.abs()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.mode.as_deref(), args.workload.as_deref()) {
        (None, Some(name)) => run_one(&args, name),
        (Some("run"), None) => run_suite(&args, false),
        (Some("trace"), None) => run_suite(&args, true),
        (Some("aa"), None) => run_aa(&args),
        (Some("manifest"), None) => {
            let text = serde_json::to_string_pretty(&metrics::manifest());
            println!("{}", text.expect("writer cannot fail"));
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_range_over_the_median() {
        assert_eq!(spread(&[10.0, 11.0, 12.0]), 2.0 / 11.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
