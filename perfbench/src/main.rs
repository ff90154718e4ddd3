//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Builds the workload's inputs from the seed, measures for `S` seconds
//! and prints, as its last line, one JSON object with the run's
//! correctness, operation counts and metrics: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Generated
//! inputs live under `.perfbench-work/` in the working directory and are
//! removed on exit.

use simmr_perfbench::metrics::{per_layer, END_TO_END};
use simmr_perfbench::{machine, run_workload, Run};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let work = PathBuf::from(".perfbench-work").join(format!("run-{}", std::process::id()));
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            work,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: cannot create {}: {e}", run.work.display());
        return ExitCode::FAILURE;
    }
    let result = run_workload(&workload, &run);
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(".perfbench-work");
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table: Vec<(String, &'static str)> = if run.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    for (name, unit) in &table {
        println!("{workload} {name} {} {unit}", outcome.get(name).unwrap_or(0.0));
    }
    println!(
        "{workload} attempted={} failed={} error_rate={} seed={} seconds={} trace={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    println!("machine {}", machine::block());
    println!("{}", outcome.result_line(&table));
    ExitCode::SUCCESS
}
