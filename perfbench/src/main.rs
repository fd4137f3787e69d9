//! Command-line entry point of the benchmark; see `perfbench/README.md`.

use perfbench::{Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

const HELP: &str = "\
perfbench — the repository's benchmark

USAGE (from the repository root):
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \\
        --workload <bootstrap|serve_churn|wire> --seed <n> --seconds <s> --trace <0|1>

Prints provenance, every named metric with its unit and kind, and every
output check, then one JSON result line. --trace 0 measures the end-to-end
metrics with tracing off; --trace 1 runs the traced per-layer replay.
Exits 1 when an output check fails, 2 on bad arguments.
";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            eprint!("{HELP}");
            return ExitCode::from(if message.is_empty() { 0 } else { 2 });
        }
    };
    let outcome = perfbench::run(args.workload, args.seed, args.seconds, args.traced);
    print!("{}", outcome.report());
    let declared: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    match outcome.result_line(declared) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
