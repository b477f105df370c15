//! The dosco benchmark: three workloads run in one process against the
//! workspace crates' public API.
//!
//! Every run is either *untraced* — it reports the end-to-end metrics —
//! or *traced* — it replays the workload through public calls, times
//! each call from outside, and reports an exclusive-time layer table
//! whose rows plus `unaccounted` sum to the traced wall clock. No span
//! is added to crate code; the traced run only arms and reads the spans
//! the crates already record (`dosco_obs`).
//!
//! See `README.md` next to this crate for the workloads, the metric
//! definitions, and which layer metric should move which end-to-end
//! metric.

pub mod host;
pub mod serve;
pub mod sim;
pub mod train;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every untraced run of every workload:
/// `(name, unit)`. Kept equal to `BENCHMARK.json` by the crate's tests.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("layers.traced_wall_ms", "ms"),
    ("layers.unaccounted_ms", "ms"),
    ("layers.untraced_wall_ms", "ms"),
    ("layers.trace_overhead_pct", "%"),
    // train-acktr-abilene
    ("rl.rollout.collect_self_ms", "ms"),
    ("core.gymenv.step_ms", "ms"),
    ("rl.acktr.update_self_ms", "ms"),
    ("nn.kfac.stats_ms", "ms"),
    ("nn.kfac.inversion_ms", "ms"),
    ("nn.kfac.inversions", "count"),
    ("nn.gemm.calls_per_update", "count"),
    ("core.eval.checkpoint_ms", "ms"),
    // serve-fabric-abilene
    ("serve.shard.batch_forward_ms", "ms"),
    ("serve.shard.batches", "count"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.frontend_other_ms", "ms"),
    ("serve.epoch_p50_us", "us"),
    ("serve.epoch_p99_us", "us"),
    ("core.observe.encode_ms", "ms"),
    ("core.policy.act_ms", "ms"),
    ("simnet.dispatch_us_per_decision", "us"),
    ("core.observe.encode_us_per_decision", "us"),
    ("core.policy.act_us_p50", "us"),
    ("core.policy.loop_decisions_per_s", "1/s"),
    // serve-fabric-abilene and sim-grid-churn
    ("simnet.dispatch_ms", "ms"),
    ("simnet.apply_ms", "ms"),
    // sim-grid-churn
    ("simnet.churn_epoch_ms", "ms"),
    ("simnet.churn_epochs", "count"),
    ("baselines.sp.decide_ms", "ms"),
    ("chaos.sp_recomputes", "count"),
    ("topology.paths.compute_masked_us", "us"),
    ("simnet.peak_live_flows", "count"),
    ("sim.static_events_per_s", "1/s"),
    ("sim.churn_slowdown", "ratio"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = [
    "train-acktr-abilene",
    "serve-fabric-abilene",
    "sim-grid-churn",
];

/// Set-ups timed before every measured repetition; `setup_s` is their
/// median.
pub const SETUPS_PER_REP: usize = 5;

/// Problem size: `Full` is the benchmark, `Tiny` a seconds-long version
/// of every workload for the crate's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed the generated inputs derive from (the training
    /// workload's inputs are fixed; see [`train::TRAIN_SEED`]).
    pub seed: u64,
    /// Measuring budget of the untraced loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    pub scale: Scale,
}

/// Correctness accounting: every measured operation is checked, and a
/// failed check counts as a failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    /// One description per failed operation.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one operation whose outputs passed (`ok`) or failed the
    /// check described by `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// An exclusive-time layer table: `rows` are self times in ms; whatever
/// of `wall_ms` they do not cover is `unaccounted`.
#[derive(Debug)]
pub struct LayerTable {
    pub rows: Vec<(&'static str, f64)>,
    pub wall_ms: f64,
}

impl LayerTable {
    pub fn unaccounted_ms(&self) -> f64 {
        self.wall_ms - self.rows.iter().map(|r| r.1).sum::<f64>()
    }

    /// The rows do not double-count: their sum stays within the wall
    /// clock (1 % slack for timer granularity).
    pub fn closes(&self) -> bool {
        self.rows.iter().all(|r| r.1 >= -0.01 * self.wall_ms)
            && self.unaccounted_ms() >= -0.01 * self.wall_ms
    }

    /// Renders the table with each row's share of the wall clock.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let share = |ms: f64| 100.0 * ms / self.wall_ms.max(f64::MIN_POSITIVE);
        for (name, ms) in &self.rows {
            let _ = writeln!(s, "#   {name:<34} {ms:>12.3} ms {:>6.1} %", share(*ms));
        }
        let un = self.unaccounted_ms();
        let _ = writeln!(
            s,
            "#   {:<34} {un:>12.3} ms {:>6.1} %",
            "unaccounted",
            share(un)
        );
        let _ = write!(s, "#   {:<34} {:>12.3} ms", "traced wall", self.wall_ms);
        s
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Checks,
    /// Metric values by name (units come from [`END_TO_END`] /
    /// [`PER_LAYER`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a traced run's layer table (rows, closure, overhead).
    pub fn set_layers(&mut self, table: &LayerTable, untraced_wall_ms: f64) {
        for &(name, ms) in &table.rows {
            self.set(name, ms);
        }
        self.set("layers.traced_wall_ms", table.wall_ms);
        self.set("layers.unaccounted_ms", table.unaccounted_ms());
        self.set("layers.untraced_wall_ms", untraced_wall_ms);
        self.set(
            "layers.trace_overhead_pct",
            100.0 * (table.wall_ms / untraced_wall_ms - 1.0),
        );
        self.checks.op(table.closes(), || {
            format!("layer table does not close:\n{}", table.render())
        });
        self.note("# layer table (exclusive self times)");
        self.note(table.render());
        self.note(format!(
            "# tracing overhead: traced {:.3} ms vs untraced {:.3} ms ({:+.2} %)",
            table.wall_ms,
            untraced_wall_ms,
            100.0 * (table.wall_ms / untraced_wall_ms - 1.0)
        ));
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty() && self.checks.attempted > 0
    }

    /// The result line: one JSON object with the metrics of this run's
    /// kind (end-to-end when untraced, per-layer when traced). A metric
    /// the workload did not set reads 0; a non-finite value makes the
    /// run incorrect and is written as 0.
    pub fn result_line(&self, trace: bool) -> String {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut finite = true;
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let mut v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                finite = false;
                v = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct() && finite,
            self.checks.attempted.max(1),
            self.checks.failures.len(),
        )
    }
}

/// Runs `workload` once with `opts`.
///
/// # Errors
///
/// Returns an error naming the valid workloads if `workload` is unknown.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    let mut report = match workload {
        "train-acktr-abilene" => train::run(opts),
        "serve-fabric-abilene" => serve::run(opts),
        "sim-grid-churn" => sim::run(opts),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                WORKLOADS.join(", ")
            ))
        }
    };
    report.set("peak_rss_mb", host::peak_rss_mb());
    Ok(report)
}

/// The untraced measuring loop. Before each repetition it builds the
/// workload state [`SETUPS_PER_REP`] times, timing each build, and runs
/// `rep` on the last one, for as long as [`repeat_for`] allows. Spreading
/// the set-ups across the run lets `setup_s` see the same host
/// conditions as the repetitions. Returns the median set-up seconds and
/// each repetition's result.
pub fn measure<S, T>(
    seconds: f64,
    mut setup: impl FnMut() -> S,
    mut rep: impl FnMut(&S) -> T,
) -> (f64, Vec<T>) {
    let mut secs = Vec::new();
    let out = repeat_for(seconds, || {
        let mut state = None;
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            state = Some(std::hint::black_box(setup()));
            secs.push(t.elapsed().as_secs_f64());
        }
        rep(state.as_ref().expect("set up at least once"))
    });
    (median(&mut secs), out)
}

/// Runs `rep` repeatedly while another repetition of the median length
/// so far still fits in `seconds` (at least once), returning each
/// repetition's result.
pub fn repeat_for<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut lens = Vec::new();
    loop {
        let t = Instant::now();
        out.push(rep());
        lens.push(t.elapsed().as_secs_f64());
        let typical = median(&mut lens.clone());
        if start.elapsed().as_secs_f64() + typical > seconds {
            return out;
        }
    }
}

/// Median (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A run's throughput: the first quartile of its repetitions' `rates`,
/// the rate three quarters of them reach. Every repetition does the same work, so their rates
/// differ only by how the shared host treated each. On the reference
/// host the slower repetitions sit on a steady floor while the faster
/// ones come from bursts of spare host capacity whose size varies from
/// minute to minute; between separate runs the first quartile spread
/// less than the median, the mean or the fastest repetition. A change
/// to the program changes every repetition, so it moves this rate too.
pub fn throughput(rates: &[f64]) -> f64 {
    quantile(&mut rates.to_vec(), 0.25)
}

/// A `#` line with the five-number summary of per-repetition `values`
/// of metric `name`, so a run's own spread can be read next to its result.
pub fn spread_note(name: &str, values: &[f64]) -> String {
    let mut v = values.to_vec();
    let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&p| format!("{:.1}", quantile(&mut v, p)))
        .collect();
    format!(
        "# {name} per repetition (min q1 median q3 max over {}): {}",
        v.len(),
        q.join(" ")
    )
}

/// Total length of the union of possibly overlapping `[start, end)`
/// intervals — the wall time during which at least one of them ran.
pub fn union_len(mut spans: Vec<(Instant, Instant)>) -> Duration {
    spans.sort_by_key(|s| s.0);
    let mut total = Duration::ZERO;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in spans {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let spans = vec![
            (at(0), at(10)),
            (at(5), at(12)),
            (at(20), at(25)),
            (at(21), at(22)),
        ];
        assert_eq!(union_len(spans), Duration::from_millis(17));
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!((quantile(&mut v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_is_the_first_quartile_of_rates() {
        assert_eq!(throughput(&[5.0, 3.0, 2.0, 4.0, 1.0]), 2.0);
    }

    #[test]
    fn table_closure() {
        let t = LayerTable {
            rows: vec![("a", 3.0), ("b", 5.0)],
            wall_ms: 10.0,
        };
        assert_eq!(t.unaccounted_ms(), 2.0);
        assert!(t.closes());
        let over = LayerTable {
            rows: vec![("a", 8.0), ("b", 5.0)],
            wall_ms: 10.0,
        };
        assert!(!over.closes());
    }
}
