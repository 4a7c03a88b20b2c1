//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--seed N] [--smoke]                 every workload, both passes, all checks
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                one workload in this process; the last
//!                                                line of output is one JSON object
//! benchmark compare A.json B.json                do two result files agree?
//! ```

mod compare;
mod host;
mod json;
mod measure;
mod names;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Options, RUN_SECONDS};

const USAGE: &str = "usage:
  benchmark [--seed N] [--smoke] [--out-dir DIR]
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out-dir DIR]
  benchmark compare A.json B.json
workloads: dense_small flux_small flux_paper_shape fleet_wire ckpt_recover";

struct Args {
    workload: Option<String>,
    seed: u64,
    smoke: bool,
    trace: bool,
    seconds: Option<f64>,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        smoke: false,
        trace: false,
        seconds: None,
        out_dir: PathBuf::from("target/benchmark"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or_else(|| format!("{flag}: `{text}` is not a non-negative number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => {
                let text = value()?;
                parsed.seed = text
                    .parse()
                    .map_err(|_| format!("--seed: `{text}` is not a whole number"))?;
            }
            "--seconds" => parsed.seconds = Some(number(value()?)?),
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    // Threads are fixed by the benchmark, not inherited. The per-expert
    // fan-outs inside the library size themselves from this variable, read
    // once on first use — so it is set here, before any thread exists.
    std::env::set_var("FLUX_THREADS", host::bench_threads().to_string());

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare takes exactly two result files".to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(run),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Runs what the arguments ask for; `Ok(false)` when a check failed.
fn run(args: Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let Some(name) = args.workload else {
        if args.seconds.is_some() || args.trace {
            return Err("--seconds and --trace go with --workload".to_string());
        }
        return report::run_all(args.seed, args.smoke, &args.out_dir);
    };
    let workload =
        workloads::by_name(&name).ok_or_else(|| format!("no workload named `{name}`"))?;
    // A smoke pass stops at its minimum number of repetitions.
    let default_seconds = if args.smoke { 0.0 } else { RUN_SECONDS };
    let result = report::run_and_save(&Options {
        workload,
        seed: args.seed,
        smoke: args.smoke,
        trace: args.trace,
        seconds: args.seconds.unwrap_or(default_seconds),
        out_dir: args.out_dir,
    });
    result.print();
    // The acceptance driver reads `correct` from this line; a workload that
    // printed its result has done its job, whatever the checks found.
    println!("{}", result.contract_line());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_acceptance_drivers_arguments_parse() {
        let args = parse(&[
            "--workload",
            "fleet_wire",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("fleet_wire"));
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        assert_eq!(args.seconds, Some(15.0));
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.smoke, defaults.trace),
            (42, false, false)
        );
    }

    #[test]
    fn malformed_arguments_are_refused() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "-3"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--reps", "3"]).is_err());
    }
}
