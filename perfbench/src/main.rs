//! End-to-end and per-layer benchmark of the Kernel Weaver reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <resident-scan|service-mix|out-of-core> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics on the host and the
//! simulated clock; with `--trace 1` it times each layer from outside and
//! prints the per-layer metrics (see `perfbench/README.md`). Every query's
//! output is checked against a CPU oracle; the last stdout line is one JSON
//! object, and the exit code is non-zero when any check failed.

mod exec;
mod measure;
mod oracle;
mod report;
mod stats;
mod traced;
mod workloads;

use std::process::ExitCode;

use workloads::Kind;

const USAGE: &str = "usage: kw-perfbench --workload <resident-scan|service-mix|out-of-core> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub kind: Kind,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload,
            kind,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The traced run reports no set-up time, so it sets up once.
    let report =
        workloads::setup(args.kind, args.seed, !args.trace).and_then(|(setup_s, queries)| {
            eprintln!("{}: set-up {setup_s:.4} s", args.workload);
            if args.trace {
                traced::run(&args, queries)
            } else {
                measure::run(&args, setup_s, &queries)
            }
        });
    match report {
        Ok(r) => {
            for e in &r.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", r.to_json());
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
