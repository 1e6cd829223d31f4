//! The repo benchmark: four workloads, end-to-end metrics measured
//! untraced, and a per-layer ledger from a separate traced pass. See
//! `README.md` for what is measured and why.

mod agree;
mod child;
mod gate;
mod json;
mod layers;
mod metrics;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "\
usage: reptile-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       reptile-benchmark agree A.json B.json

run    set up from the seed, measure every workload untraced, check every
       output against the sequential oracle, then make the traced pass;
       prints every metric by name and writes out/result-seed<N>.json and
       out/trace.json. --trace 0 or 1 makes one pass only; with --workload
       the last line of output is the driver's JSON object.
       --smoke runs at a twentieth of the size; its file is not comparable.
agree  compare two result files against the bounds in BENCHMARK.json.";

/// Build outputs aside, everything the harness writes goes here.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let mut opts = run::Options {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: run::DEFAULT_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload = Some(
                    workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| format!("--seed: {v} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v.parse().map_err(|_| format!("--seconds: {v} is not a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(format!("--seconds: {v} is outside 0..=600"));
                }
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                });
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown option {other}")),
        }
    }
    if opts.smoke {
        // a smoke run shows that everything works, in under 30 s in all
        opts.seconds = opts.seconds.min(1.0);
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|opts| run::run(&opts)),
        Some((cmd, rest)) if cmd == "agree" => agree::main(rest),
        Some((cmd, rest)) if cmd == "serve-child" => run::serve_child(rest).map(|()| true),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("reptile-benchmark: {message}");
            std::process::exit(2);
        }
    }
}
