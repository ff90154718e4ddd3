//! Metric names and units, the collector every workload fills, and the
//! small statistics the workloads share. `BENCHMARK.json` lists the same
//! names; the `benchmark_json` test keeps the two in step.

use crate::inputs::POLICIES;
use simmr_trace::Crc64;
use simmr_types::SimulationReport;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported with tracing off on every workload.
/// Times are interquartile means over the window (`op_iqm_ms`: the
/// geometric mean of the operation classes' interquartile means) and
/// memory a high-water mark. On a 2-core shared host the speed of one
/// process drifts between regimes a third apart that last 10 to 30 s: a
/// median jumps between them as their shares of the window cross one
/// half, where a mean of the middle half moves with the shares; tail
/// percentiles and plain means also take in the outlying passes.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("op_iqm_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics, reported by the traced run on every workload. A
/// layer a workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("trace.bin.pull_s", "s"),
        ("trace.bin.ns_per_job", "ns"),
        ("trace.bin.bytes_per_job", "B"),
        ("trace.json.load_s", "s"),
        ("trace.json.bytes", "B"),
        ("trace.digest_s", "s"),
        ("queue.pushpop_ns.b128", "ns"),
        ("queue.pushpop_ns.b1k", "ns"),
        ("queue.pushpop_ns.b10k", "ns"),
        ("engine.events", "count"),
        ("engine.self_s", "s"),
        ("engine.ns_per_event", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_owned(), u))
    .collect();
    for (label, _) in POLICIES {
        for (field, unit) in [
            ("calls", "count"),
            ("busy_s", "s"),
            ("pick_yield", "ratio"),
            ("wall_vs_fifo", "ratio"),
        ] {
            names.push((format!("sched.{label}.{field}"), unit));
        }
    }
    names.extend(
        [
            ("ckpt.capture_s", "s"),
            ("ckpt.encode_s", "s"),
            ("ckpt.bytes", "B"),
            ("ckpt.decode_s", "s"),
            ("ckpt.resume_s", "s"),
            ("ckpt.suffix_s", "s"),
            ("report.serialize_s", "s"),
            ("report.bytes", "B"),
            ("serve.parse_s", "s"),
            ("serve.resolve_s", "s"),
            ("serve.stamp_s", "s"),
            ("serve.cache_get_s", "s"),
            ("serve.http_s.hit", "s"),
            ("serve.http_s.miss", "s"),
            ("serve.http_s.sweep", "s"),
            ("serve.cache_hit_ratio", "ratio"),
            ("serve.ckpt_hit_ratio", "ratio"),
            ("serve.share.hit", "ratio"),
            ("serve.share.miss", "ratio"),
            ("serve.share.sweep", "ratio"),
            ("serve.hit_p50_ms", "ms"),
            ("serve.hit_p90_ms", "ms"),
            ("serve.miss_p50_ms", "ms"),
            ("serve.miss_p90_ms", "ms"),
            ("serve.sweep_p50_ms", "ms"),
            ("serve.sweep_p90_ms", "ms"),
            ("bench.trace_overhead", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_owned(), u)),
    );
    names
}

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    values: Vec<(String, f64)>,
}

impl Outcome {
    /// Records (or overwrites) one metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line: exactly the metrics of `table`, in table order;
    /// a metric the run did not record reads 0 (its layer did no work).
    pub fn result_line(&self, table: &[(String, &'static str)]) -> String {
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The `q`-quantile of `samples` (linear interpolation between order
/// statistics); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The interquartile mean of `samples`: the mean of the middle half in
/// sorted order (all of them when there are fewer than four); 0 for no
/// samples.
pub fn iqm(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// The simulated statistics a speed-only change must leave identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Events the engine processed.
    pub events: u64,
    /// Simulated makespan in ms.
    pub makespan_ms: u64,
    /// CRC-64/XZ of the serialized report.
    pub report_crc64: u64,
}

impl SimStats {
    /// Serializes `report` and returns its statistics plus the serialized
    /// length in bytes.
    pub fn of(report: &SimulationReport) -> (SimStats, usize) {
        let body = serde_json::to_string(report).expect("reports serialize");
        let mut crc = Crc64::new();
        crc.update(body.as_bytes());
        let stats = SimStats {
            events: report.events_processed,
            makespan_ms: report.makespan.as_millis(),
            report_crc64: crc.finish(),
        };
        (stats, body.len())
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "events={} makespan_ms={} report_crc64={:016x}",
            self.events, self.makespan_ms, self.report_crc64
        )
    }
}

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `setup` `reps` times and returns the last result with each
/// set-up's seconds.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let (out, s) = timed(&mut setup);
        last = Some(out?);
        secs.push(s);
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// Whether a measuring loop starts another iteration: always until it
/// ran `min`, then while one more of the median length ends by
/// `deadline`, so the loop stays within its window.
pub fn another_round(deadline: Instant, rounds: &[f64], min: usize) -> bool {
    rounds.len() < min || Instant::now() + Duration::from_secs_f64(median(rounds)) <= deadline
}

/// Median seconds of `reps` calls of `f`.
pub fn med_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(&(0..reps).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

/// The geometric mean of the interquartile means of `classes`, so that
/// each class weighs the same whatever its cost: a 2x change in one of
/// `n` classes moves it by `2^(1/n)`.
pub fn geomean_of_iqms(classes: &[Vec<f64>]) -> f64 {
    let logs: f64 = classes.iter().map(|c| iqm(c).ln()).sum();
    (logs / classes.len() as f64).exp()
}

/// The end-to-end metrics every workload reports, from per-pass seconds,
/// per-operation seconds grouped by operation class (one policy, one
/// request class) and the seconds of every set-up.
pub fn end_to_end(out: &mut Outcome, passes: &[f64], classes: &[Vec<f64>], setups: &[f64]) {
    out.set("wall_s", iqm(passes));
    out.set("op_iqm_ms", geomean_of_iqms(classes) * 1e3);
    out.set("setup_s", iqm(setups));
}
