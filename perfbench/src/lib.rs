//! The SimMR-RS repository benchmark: three workloads measured end to end
//! with tracing off, and layer by layer in a separate traced run. See
//! `NOTES.md` for why each workload exists and which end-to-end metric
//! each layer metric should move.

pub mod inputs;
pub mod machine;
pub mod metrics;
pub mod replay;
pub mod serve;
pub mod timed;

use std::path::PathBuf;
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["replay_stream_1m", "policy_mix_1k", "serve_whatif"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Scratch directory for generated inputs, inside the checkout.
    pub work: PathBuf,
}

impl Run {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// Runs `workload` and returns its outcome.
pub fn run_workload(workload: &str, run: &Run) -> Result<metrics::Outcome, String> {
    match workload {
        "replay_stream_1m" => replay::replay_stream(run),
        "policy_mix_1k" => replay::policy_mix(run),
        "serve_whatif" => serve::serve_whatif(run),
        other => Err(format!("unknown workload `{other}` (known: {})", WORKLOADS.join(", "))),
    }
}
