//! The untraced measured run: set-up time, the interleaved op stream
//! through the router, and the seven end-to-end metrics.

use std::time::Instant;

use sj_shard::ShardRouter;

use crate::check::CycleDigests;
use crate::driver::{failed_in_cycle, run_op, OpKind, OpSample};
use crate::spec::Metric;
use crate::stats::{median, quantile, supported_tail};
use crate::workload::{Dataset, Schedule, Workload, STRATEGIES, WARMUP_CYCLES};

/// How long and how much one run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// `--quick`: three cycles in all (one warm-up, two measured) and
    /// one repetition of every probe, whatever `seconds` says.
    pub quick: bool,
    /// Cold `ShardRouter::start` calls `setup_s` is the median of.
    pub setup_builds: usize,
}

impl RunOptions {
    /// Cycles run and discarded before timing starts; the exact counts
    /// of the traced run are taken over these, so a full run always
    /// counts the same work.
    pub fn warmup_cycles(&self) -> usize {
        if self.quick {
            1
        } else {
            WARMUP_CYCLES
        }
    }

    /// Cap on measured cycles, beside the time box.
    pub fn max_cycles(&self) -> Option<usize> {
        self.quick.then_some(2)
    }
}

#[derive(Debug)]
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines: every metric by name with its unit, the
    /// sample count behind it and the tail its sample supports.
    pub report: Vec<String>,
}

/// Wall-time samples of one op type, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub joins: [Vec<f64>; 3],
    pub selects: Vec<f64>,
    pub commits: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, s: &OpSample) {
        let ns = s.wall_ns as f64;
        match s.kind {
            OpKind::Join(i) => self.joins[i].push(ns),
            OpKind::Select => self.selects.push(ns),
            OpKind::Commit => self.commits.push(ns),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `setup_builds` back-to-back cold starts on the workload's dataset,
/// each dropped before the next; the last one is measured against.
pub fn timed_starts(w: &Workload, data: &Dataset, builds: usize) -> (ShardRouter, Vec<f64>) {
    let mut times = Vec::with_capacity(builds);
    let mut router = None;
    for _ in 0..builds.max(1) {
        drop(router.take());
        let started = Instant::now();
        router = Some(ShardRouter::start(w.shard_config(), &data.r, &data.s));
        times.push(started.elapsed().as_secs_f64());
    }
    (router.expect("at least one build"), times)
}

/// The rule every op stream follows: `warmup_cycles` cycles that are
/// run and discarded, then whole cycles until `seconds` are used up
/// (stopping at the cycle boundary nearest the deadline), at least
/// `min_cycles` of them and at most `max_cycles`.
pub struct Window {
    warmup: usize,
    seconds: f64,
    min_cycles: usize,
    max_cycles: Option<usize>,
    started: Option<Instant>,
    measured: usize,
}

impl Window {
    pub fn new(opts: &RunOptions, seconds: f64, min_cycles: usize) -> Window {
        Window {
            warmup: opts.warmup_cycles(),
            seconds,
            min_cycles,
            max_cycles: opts.max_cycles().map(|m| m.max(min_cycles)),
            started: None,
            measured: 0,
        }
    }

    /// Asked before cycle `cycle` runs: `None` when the window is used
    /// up, otherwise whether the cycle is a warm-up one.
    pub fn admit(&mut self, cycle: usize) -> Option<bool> {
        if cycle < self.warmup {
            return Some(true);
        }
        let elapsed = self
            .started
            .get_or_insert_with(Instant::now)
            .elapsed()
            .as_secs_f64();
        let per_cycle = elapsed / self.measured.max(1) as f64;
        let out_of_time =
            self.measured >= self.min_cycles && elapsed + 0.5 * per_cycle >= self.seconds;
        if out_of_time || self.max_cycles.is_some_and(|m| self.measured >= m) {
            return None;
        }
        self.measured += 1;
        Some(false)
    }

    /// Measured cycles admitted so far, the current one included.
    pub fn measured(&self) -> usize {
        self.measured
    }
}

/// Runs cycles for the time box, verifying every one. Returns the
/// samples of the measured cycles (warm-up discarded) and the verdict
/// counts over all cycles, warm-up included.
pub fn measured_window(
    router: &ShardRouter,
    w: &Workload,
    schedule: &mut Schedule,
    expected: &CycleDigests,
    opts: &RunOptions,
) -> (Samples, u64, u64) {
    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut window = Window::new(opts, opts.seconds, 1);
    loop {
        let cycle = schedule.cycle();
        let Some(warmup) = window.admit(cycle) else {
            break;
        };
        let ops = schedule.next_cycle();
        let row: Vec<OpSample> = ops.iter().map(|op| run_op(router, w, op, None)).collect();
        attempted += row.len() as u64;
        failed += failed_in_cycle(&row, expected.get(cycle).map(Vec::as_slice));
        if !warmup {
            row.iter().for_each(|s| samples.push(s));
        }
    }
    (samples, attempted, failed)
}

fn report_line(name: &str, unit: &str, scale: f64, ns: &[f64]) -> String {
    let tail = supported_tail(ns.len()).map_or("n/a".to_string(), |p| {
        format!("p{p} {:.4} {unit}", quantile(ns, p / 100.0) / scale)
    });
    format!(
        "{name:<24} {:>12.4} {unit:<3} (n={}, {tail})",
        median(ns) / scale,
        ns.len()
    )
}

pub fn run(w: &Workload, opts: &RunOptions, expected: &CycleDigests) -> RunOutput {
    let data = Dataset::generate(w, opts.seed);
    let (router, starts) = timed_starts(w, &data, opts.setup_builds);
    let mut schedule = Schedule::new(w, &data, opts.seed);
    let (samples, attempted, failed) = measured_window(&router, w, &mut schedule, expected, opts);
    drop(router);

    let mut metrics = vec![Metric::new("setup_s", median(&starts), "s")];
    let mut report = vec![format!(
        "{:<24} {:>12.4} s   (median of {} cold starts)",
        "setup_s",
        median(&starts),
        starts.len()
    )];
    for (i, strategy) in STRATEGIES.iter().enumerate() {
        let name = format!("join_{}_ms_p50", strategy.name());
        report.push(report_line(&name, "ms", 1e6, &samples.joins[i]));
        metrics.push(Metric::new(name, median(&samples.joins[i]) / 1e6, "ms"));
    }
    report.push(report_line("select_us_p50", "us", 1e3, &samples.selects));
    metrics.push(Metric::new(
        "select_us_p50",
        median(&samples.selects) / 1e3,
        "us",
    ));
    report.push(report_line("commit_ms_p50", "ms", 1e6, &samples.commits));
    metrics.push(Metric::new(
        "commit_ms_p50",
        median(&samples.commits) / 1e6,
        "ms",
    ));
    let rss = rss_peak_mb();
    report.push(format!(
        "{:<24} {rss:>12.4} MiB (VmHWM at exit)",
        "rss_peak_mb"
    ));
    metrics.push(Metric::new("rss_peak_mb", rss, "MiB"));
    RunOutput {
        metrics,
        attempted,
        failed,
        report,
    }
}
