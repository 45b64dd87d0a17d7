//! `textjoin-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON line per metric, then a summary line with `correct`,
//! `attempted`, `failed` and the metrics. Exits non-zero when a
//! correctness check fails or the arguments are invalid.

use std::process::ExitCode;

use textjoin_perfbench::metrics::{complete, metric_line, summary_line, END_TO_END, PER_LAYER};
use textjoin_perfbench::workloads::{run, Config, Workload};

const USAGE: &str =
    "usage: textjoin-perfbench --workload <lookup|q5-rtp|serve-sharded> [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Lookup,
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = run(&cfg);
    let end_to_end = complete(END_TO_END, &r.end_to_end);
    let per_layer = if cfg.trace {
        complete(PER_LAYER, &r.per_layer)
    } else {
        Vec::new()
    };
    for m in end_to_end.iter().chain(&per_layer) {
        println!("{}", metric_line(m, cfg.trace));
    }
    for f in &r.files {
        eprintln!("wrote {}", f.display());
    }
    for line in r.checks.lines() {
        eprintln!("{line}");
    }
    let reported = if cfg.trace { &per_layer } else { &end_to_end };
    println!(
        "{}",
        summary_line(r.checks.passed(), r.attempted, r.failed, reported)
    );
    if r.checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
