//! `service.*`: a whole-data `SpatialService` with one worker, fed the
//! router's op stream. Pins `SpatialService::{start, call, commit,
//! cache_stats, emit_metrics}` and the `queue_us` / `exec_us` /
//! `cached` / `io` / `cache_purged` / `cache_retained` fields of its
//! responses and receipts. `service.join_<s>_ms_p50` over the
//! end-to-end join metric is the sharding speed-up.

use sj_obs::TraceSink;
use sj_service::SpatialService;

use crate::driver::request_of;
use crate::layers::{counter, probe, ratio};
use crate::measure::{RunOptions, Window};
use crate::spec::Metric;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workload::{world_rect, Dataset, Op, Schedule, Workload, STRATEGIES};

pub fn run(
    w: &Workload,
    data: &Dataset,
    opts: &RunOptions,
    seconds: f64,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let (svc, start_s) = probe(tracer, "probe.service.start", || {
        SpatialService::start(w.service_config(), &data.r, &data.s, world_rect())
    });
    let mut schedule = Schedule::new(w, data, opts.seed);

    let mut join_ms: [Vec<f64>; 3] = Default::default();
    let (mut sel_wall, mut sel_queue, mut sel_exec, mut sel_over) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut hit_us = Vec::new();
    let mut commit_ms = Vec::new();
    // Counts taken over the fixed warm-up cycles only. All repeat
    // exactly but the page count: the apply diffs the tree through
    // `HashMap`s, whose per-process order moves a few pool misses.
    let (mut fixed_ops, mut fixed_pages, mut fixed_commits) = (0.0, 0.0, 0.0);
    let (mut fixed_purged, mut fixed_retained) = (0.0, 0.0);
    let mut fixed_wal_bytes = 0.0;

    let mut window = Window::new(opts, seconds, 1);
    while let Some(warmup) = window.admit(schedule.cycle()) {
        for op in &schedule.next_cycle() {
            match op {
                Op::Commit(batch) => {
                    let (receipt, secs) =
                        probe(tracer, "probe.service.commit", || svc.commit(batch));
                    let receipt = receipt.expect("mirror commit on a fault-free service");
                    if warmup {
                        fixed_ops += batch.len() as f64;
                        fixed_commits += 1.0;
                        fixed_pages += receipt.io.physical_total() as f64;
                        fixed_purged += receipt.cache_purged as f64;
                        fixed_retained += receipt.cache_retained as f64;
                    } else {
                        commit_ms.push(secs * 1e3);
                    }
                }
                _ => {
                    let req = request_of(w, op).expect("reads have a request");
                    let name = match op {
                        Op::Join(_) => "probe.service.join",
                        _ => "probe.service.select",
                    };
                    let (resp, secs) = probe(tracer, name, || svc.call(req));
                    let resp = resp.expect("closed loop never fills the queue");
                    if warmup {
                        continue;
                    }
                    match op {
                        Op::Join(s) => {
                            let i = STRATEGIES
                                .iter()
                                .position(|x| x == s)
                                .expect("known strategy");
                            join_ms[i].push(secs * 1e3);
                        }
                        _ => {
                            let us = secs * 1e6;
                            sel_wall.push(us);
                            sel_queue.push(resp.queue_us as f64);
                            sel_exec.push(resp.exec_us as f64);
                            sel_over.push(us - (resp.queue_us + resp.exec_us) as f64);
                            if resp.cached {
                                hit_us.push(us);
                            }
                        }
                    }
                }
            }
        }
        if warmup && schedule.cycle() == opts.warmup_cycles() {
            let mut sink = TraceSink::vec();
            svc.emit_metrics(&mut sink);
            fixed_wal_bytes = counter(&sink, "service/wal", "durable_bytes");
        }
    }

    let (hits, misses, _) = svc.cache_stats();
    let mut metrics: Vec<Metric> = STRATEGIES
        .iter()
        .zip(&join_ms)
        .map(|(s, ms)| {
            Metric::new(
                format!("service.join_{}_ms_p50", s.name()),
                median(ms),
                "ms",
            )
        })
        .collect();
    metrics.extend([
        Metric::new("service.select_queue_us_p50", median(&sel_queue), "us"),
        Metric::new("service.select_exec_us_p50", median(&sel_exec), "us"),
        Metric::new("service.select_overhead_us_p50", median(&sel_over), "us"),
        Metric::new("service.select_us_p99", quantile(&sel_wall, 0.99), "us"),
        Metric::new(
            "service.cache_hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
            "frac",
        ),
        Metric::new("service.cache_hit_us_p50", median(&hit_us), "us"),
        Metric::new("service.commit_ms_p50", median(&commit_ms), "ms"),
        Metric::new("service.commit_ms_p99", quantile(&commit_ms, 0.99), "ms"),
        Metric::new(
            "service.commit_pages_per_op",
            ratio(fixed_pages, fixed_ops),
            "pages",
        ),
        Metric::new(
            "service.commit_wal_bytes_per_op",
            ratio(fixed_wal_bytes, fixed_ops),
            "B",
        ),
        Metric::new(
            "service.cache_purged_per_commit",
            ratio(fixed_purged, fixed_commits),
            "count",
        ),
        Metric::new(
            "service.cache_retained_per_commit",
            ratio(fixed_retained, fixed_commits),
            "count",
        ),
        Metric::new("service.start_s", start_s, "s"),
    ]);
    metrics
}
