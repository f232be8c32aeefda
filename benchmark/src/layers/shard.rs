//! `shard.*`, `obs.*` and `bench.*`: the traced op stream through the
//! router. Pins `ShardRouter::{start, call, commit, emit_metrics}` and
//! the `queue_us` / `exec_us` / `duplicates` / `shards_queried` /
//! `shard_commits` fields its responses already carry.

use std::hint::black_box;
use std::time::Instant;

use sj_obs::TraceSink;
use sj_shard::ShardRouter;

use crate::check::CycleDigests;
use crate::driver::{failed_in_cycle, run_op, OpKind, OpSample};
use crate::layers::{counter, probe, ratio};
use crate::measure::{RunOptions, Window};
use crate::spec::Metric;
use crate::stats::{mean, median};
use crate::trace::{self_times, Tracer};
use crate::workload::{Dataset, Schedule, Workload};

/// Iterations of the calibration slice: a fixed dependent ALU chain of
/// about a millisecond that touches no memory and no benchmark code.
const CALIB_ITERS: u64 = 450_000;

/// The fixed ALU slice behind `bench.calib_ms_p50`. Its time moves with
/// the machine (frequency, steal, a noisy neighbour), never with the
/// repository's code.
pub fn calib_slice() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CALIB_ITERS {
        x ^= x >> 12;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        x ^= x << 25;
    }
    black_box(x)
}

pub struct Output {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

struct Row {
    sample: OpSample,
    /// Warm-up cycle: in the exact counts, out of every timing.
    warmup: bool,
    traced: bool,
}

/// Runs the op stream for `seconds` (after the fixed warm-up cycles),
/// recording spans on every other cycle so the same run yields both
/// sides of `obs.trace_overhead_frac`.
pub fn run(
    w: &Workload,
    data: &Dataset,
    opts: &RunOptions,
    seconds: f64,
    expected: &CycleDigests,
    tracer: &mut Tracer,
) -> Output {
    let (router, start_s) = probe(tracer, "probe.shard.start", || {
        ShardRouter::start(w.shard_config(), &data.r, &data.s)
    });
    let mut schedule = Schedule::new(w, data, opts.seed);
    let mut rows: Vec<Row> = Vec::new();
    let mut calib_ms: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut request = 0u64;
    // Two measured cycles at least: one traced, one not.
    let mut window = Window::new(opts, seconds, 2);
    loop {
        let cycle = schedule.cycle();
        let Some(warmup) = window.admit(cycle) else {
            break;
        };
        let traced = warmup || !window.measured().is_multiple_of(2);
        let ops = schedule.next_cycle();
        let mut cycle_samples = Vec::with_capacity(ops.len());
        for op in &ops {
            request += 1;
            let t = traced.then_some((&mut *tracer, request));
            cycle_samples.push(run_op(&router, w, op, t));
        }
        attempted += cycle_samples.len() as u64;
        failed += failed_in_cycle(&cycle_samples, expected.get(cycle).map(Vec::as_slice));
        rows.extend(cycle_samples.into_iter().map(|sample| Row {
            sample,
            warmup,
            traced,
        }));
        if !warmup {
            let started = Instant::now();
            calib_slice();
            calib_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
    }

    let mut sink = TraceSink::vec();
    router.emit_metrics(&mut sink);
    let summary = |name: &str| counter(&sink, "router/summary", name);

    let is_join = |r: &&Row| matches!(r.sample.kind, OpKind::Join(_));
    let is_select = |r: &&Row| r.sample.kind == OpKind::Select;
    let router_self_ns =
        |r: &Row| r.sample.wall_ns as f64 - ((r.sample.queue_us + r.sample.exec_us) * 1_000) as f64;
    let timed = || rows.iter().filter(|r| !r.warmup);
    let fixed = || rows.iter().filter(|r| r.warmup);
    let sweep_ms = |traced: bool| -> Vec<f64> {
        timed()
            .filter(|r| r.sample.kind == OpKind::Join(0) && r.traced == traced)
            .map(|r| r.sample.wall_ns as f64 / 1e6)
            .collect()
    };

    // Share of each join's root span that no child span accounts for.
    let selfs = self_times(tracer.spans());
    let unattributed: Vec<f64> = tracer
        .spans()
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.parent.is_none() && s.name.starts_with("op.join."))
        .map(|(s, own)| ratio(*own as f64, s.dur_ns() as f64))
        .collect();

    let metrics = vec![
        Metric::new(
            "shard.join_router_self_ms_p50",
            median(
                &timed()
                    .filter(is_join)
                    .map(|r| router_self_ns(r) / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        Metric::new(
            "shard.select_router_self_us_p50",
            median(
                &timed()
                    .filter(is_select)
                    .map(|r| router_self_ns(r) / 1e3)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        Metric::new(
            "shard.join_duplicates_removed",
            fixed()
                .filter(is_join)
                .map(|r| r.sample.duplicates as f64)
                .sum(),
            "count",
        ),
        Metric::new(
            "shard.select_shards_queried_mean",
            mean(
                &fixed()
                    .filter(is_select)
                    .map(|r| r.sample.shards as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        Metric::new(
            "shard.commit_shards_per_batch_mean",
            mean(
                &fixed()
                    .filter(|r| r.sample.kind == OpKind::Commit)
                    .map(|r| r.sample.shards as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        Metric::new(
            "shard.fallback_query_frac",
            ratio(summary("fallback_queries"), summary("queries")),
            "frac",
        ),
        Metric::new("shard.start_first_s", start_s, "s"),
        Metric::new(
            "obs.trace_overhead_frac",
            ratio(median(&sweep_ms(true)), median(&sweep_ms(false))) - 1.0,
            "frac",
        ),
        Metric::new("bench.calib_ms_p50", median(&calib_ms), "ms"),
        Metric::new("bench.unattributed_frac", mean(&unattributed), "frac"),
    ];
    Output {
        metrics,
        attempted,
        failed,
    }
}
