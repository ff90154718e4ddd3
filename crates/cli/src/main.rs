//! `simmr` — the SimMR-RS command-line tool.
//!
//! Subcommands mirror the workflows of the paper:
//!
//! * `generate` — Synthetic TraceGen: emit a replayable trace (Facebook
//!   LogNormal model) to a JSON file / trace database;
//! * `testbed`  — run the §IV-C application suite on the fine-grained
//!   testbed simulator and save the JobTracker-style history log;
//! * `profile`  — MRProfiler: history log → replayable trace JSON;
//! * `replay`   — replay a trace in the SimMR engine under a policy
//!   (binary traces stream through the engine without materializing);
//! * `checkpoint` — capture (or inspect) a serialized engine checkpoint
//!   at a settled batch boundary, the seed for time-travel forks;
//! * `compare`  — replay a trace under several policies and print the
//!   deadline-utility comparison (the §V case study);
//! * `serve`    — the long-running what-if HTTP service: cached, batched
//!   scenario queries against a trace database (`simmr-serve`);
//! * `trace`    — trace-database housekeeping: `convert` between JSON and
//!   the compact binary format, `store`/`list`/`remove` in a database dir;
//! * `scale`    — trace scaling (§VII future work): grow/shrink a trace;
//! * `fit`      — fit candidate distributions to a sample file and rank by
//!   the Kolmogorov–Smirnov statistic (§V-C methodology).

use simmr_types::WorkloadTrace;
use std::process::ExitCode;

mod args;
mod commands;

use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::new(rest);
    let result = match cmd.as_str() {
        "generate" => commands::generate(&args),
        "testbed" => commands::testbed(&args),
        "profile" => commands::profile(&args),
        "replay" => commands::replay(&args),
        "checkpoint" => commands::checkpoint(&args),
        "compare" => commands::compare(&args),
        "serve" => commands::serve(&args),
        "trace" => commands::trace(&args),
        "scale" => commands::scale(&args),
        "stats" => commands::stats(&args),
        "fit" => commands::fit(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simmr: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
simmr — trace-driven MapReduce simulation (SimMR-RS)

USAGE:
  simmr generate --jobs N [--mean-ia-ms MS] [--seed S] [--variants V]
                 [--format json|bin] --out TRACE.{json,bin}
  simmr testbed  [--policy fifo|maxedf|minedf] [--datasets 0,1,2] [--seed S] --out HISTORY.log
  simmr profile  HISTORY.log --out TRACE.json
  simmr replay   TRACE.{json,bin} [--policy NAME] [--pools POOLS.json]
                 [--format auto|json|bin] [--aggregate] [--map-slots N]
                 [--reduce-slots N] [--deadline-factor F --seed S] [--timeline]
                 [--check-invariants] [--hosts N] [--failures N]
                 [--failure-mtbf-s S] [--failure-recovery-s S]
                 [--speculation F] [--slowdown SIGMA]
                 [--fork-at MS] [--fork-policy SPEC] [--fork-add-map-slots N]
                 [--fork-add-reduce-slots N] [--fork-fault HOST[@MS]]
                 [--fork-surge TRACE.json]
  simmr checkpoint TRACE.{json,bin} --at MS --out C.ckpt [replay engine flags]
  simmr checkpoint --info C.ckpt
  simmr compare  TRACE.json [--policies fifo,maxedf,minedf] [--map-slots N]
                 [--reduce-slots N] [--deadline-factor F] [--seed S]
  simmr serve    [--addr HOST:PORT] [--db DIR] [--workers N] [--cache-cap N]
  simmr trace    convert IN OUT [--format json|bin]
  simmr trace    store NAME FILE --db DIR [--format json|bin]
  simmr trace    list --db DIR
  simmr trace    remove NAME --db DIR
  simmr scale    TRACE.json --factor F --out SCALED.json
  simmr stats    TRACE.json         (workload characterization)
  simmr fit      SAMPLES.txt        (one duration per line)

Traces: JSON (`.json`) is human-readable; the compact binary format
(`.bin`, SIMMRBIN) interns templates and stores tens of bytes per job.
`replay` sniffs the format and *streams* binary traces through the engine
without materializing them (`--aggregate` skips per-job results, keeping
memory flat for million-job traces). `generate --variants V` draws jobs
from a bounded template pool of V variants per class, which is what makes
binary interning effective.

Policies: fifo, maxedf, minedf, fair, maxedf-p, minedf-p (preemptive),
capacity[:q1=w1,q2=w2,...] (weighted queues routed by job-name prefix), and
hier[:SPEC] (hierarchical pool tree with weights, min/max shares and
min-share preemption timeouts; e.g. `hier:prod[w=3,min=4]{etl,serving},adhoc`;
--pools POOLS.json loads the same tree from a JSON file instead).

Failure model (replay): --hosts stripes the slot pools over N workers;
--failures plans N seeded fail-stop host losses (mean interval
--failure-mtbf-s seconds, reusing --seed); --failure-recovery-s S brings
each failed host back after a seeded exponential downtime of mean S seconds;
--speculation F re-executes map stragglers past F x the job's median map
duration; --slowdown SIGMA gives each slot a LogNormal(-SIGMA^2/2, SIGMA)
execution slowdown (mean 1).

Serve: `simmr serve --db DIR` answers what-if scenario queries over
HTTP/JSON (POST /v1/run, POST /v1/sweep[?stream=1], GET /v1/traces,
GET /healthz, POST /v1/shutdown). Repeated queries hit a memo cache
keyed on (trace digest, normalized scenario) and return byte-identical
reports; the `x-simmr-cache` header says `hit` or `miss`.

Time travel (replay / checkpoint / serve): --fork-at MS replays the shared
prefix once, then diverges at the first settled batch boundary at or after
MS with any mix of --fork-policy (swap the scheduler mid-run),
--fork-add-map-slots/--fork-add-reduce-slots (capacity growth),
--fork-fault HOST[@MS] (inject a fail-stop loss) and --fork-surge FILE
(splice extra arrivals). A forked run is byte-identical to running the
changed scenario from scratch. `simmr checkpoint` snapshots the prefix to
a .ckpt file (SIMMRCKP v3, CRC-64 sealed; bytes and digests differ
between format versions) carrying the not-yet-pulled jobs; `--info` counts as admitted only the
jobs pulled by the boundary. The serve layer keeps the same snapshots in a
warm-start cache so a /v1/sweep over divergences runs the prefix once (the
`x-simmr-ckpt` header says `hit` or `miss`).";

/// Loads a trace from JSON or the binary format (sniffed by magic), with a
/// helpful error. Thin wrapper over the facade's loader keeping the CLI's
/// error strings.
pub(crate) fn load_trace(path: &str) -> Result<WorkloadTrace, String> {
    simmr_serve::load_trace_file(path).map_err(|e| e.message().to_string())
}

/// Saves a trace as JSON.
pub(crate) fn save_trace(path: &str, trace: &WorkloadTrace) -> Result<(), String> {
    let json = serde_json::to_string_pretty(trace).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Prints the `[simmr]` replay timing line for a facade run.
pub(crate) fn print_run_timing(run: &simmr_serve::FacadeRun, wall: std::time::Duration) {
    eprintln!(
        "[simmr] {}{} jobs, {} events in {:.3}s ({:.2}M events/s)",
        if run.streamed { "streamed " } else { "" },
        run.jobs,
        run.report.events_processed,
        wall.as_secs_f64(),
        run.report.events_processed as f64 / wall.as_secs_f64().max(1e-9) / 1e6
    );
}
