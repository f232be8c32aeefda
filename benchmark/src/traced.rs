//! The traced run: the same op stream through the router with harness
//! spans on, then one probe per layer. End-to-end metrics are never
//! taken from this run; it reports the per-layer metrics only.

use crate::check::CycleDigests;
use crate::layers::{self, Stored};
use crate::measure::{RunOptions, RunOutput};
use crate::trace::Tracer;
use crate::workload::{fresh_r_tuples, world_rect, Dataset, Op, Schedule, Workload};

/// Shares of `--seconds` the time-boxed probes get; the kernels and
/// tree probes after them do fixed work.
const SHARD_SHARE: f64 = 0.30;
const SERVICE_SHARE: f64 = 0.25;
const JOINS_SHARE: f64 = 0.15;
/// Select probes and fresh tuples the tree and storage probes use.
const TREE_PROBES: usize = 1_024;

pub fn run(w: &Workload, opts: &RunOptions, expected: &CycleDigests) -> Result<RunOutput, String> {
    let data = Dataset::generate(w, opts.seed);
    let config = w.service_config();
    let mut tracer = Tracer::new();

    let shard = layers::shard::run(
        w,
        &data,
        opts,
        opts.seconds * SHARD_SHARE,
        expected,
        &mut tracer,
    );
    let mut metrics = shard.metrics;
    metrics.extend(layers::service::run(
        w,
        &data,
        opts,
        opts.seconds * SERVICE_SHARE,
        &mut tracer,
    ));

    let stored = Stored::build(&config, &data.r, &data.s, world_rect());
    let (join_metrics, measured) = layers::joins::run(
        &stored,
        w.theta,
        config.shard_capacity,
        opts.seconds * JOINS_SHARE,
        opts.quick.then_some(1),
        &mut tracer,
    );
    metrics.extend(join_metrics);
    metrics.extend(layers::core::auto(
        &config,
        &data,
        w.theta,
        opts.quick.then_some(2),
        &mut tracer,
    ));
    metrics.extend(layers::core::residuals(&config, w.r_n, w.s_n, &measured));
    metrics.extend(layers::geom::run(
        &data,
        w.theta,
        config.record_size,
        if opts.quick { 1 } else { layers::geom::REPS },
        &mut tracer,
    ));

    // The tree and storage probes draw from the workload's own probe
    // distribution and its own commit batches.
    let mut schedule = Schedule::new(w, &data, opts.seed);
    let (mut probes, mut batches) = (Vec::new(), Vec::new());
    while probes.len() < TREE_PROBES {
        for op in schedule.next_cycle() {
            match op {
                Op::Select(p) => probes.push(p),
                Op::Commit(b) => batches.push(b),
                Op::Join(_) => {}
            }
        }
    }
    probes.truncate(TREE_PROBES);
    metrics.extend(layers::gentree::run(
        &stored,
        config.fanout,
        &data.r,
        &probes,
        &fresh_r_tuples(w, opts.seed, TREE_PROBES),
        &mut tracer,
    ));
    metrics.extend(layers::storage::run(
        &stored,
        &data,
        config.shard_capacity,
        &probes,
        &batches,
        &mut tracer,
    ));

    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.trace.jsonl", w.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let report = metrics
        .iter()
        .map(|m| format!("{:<40} {:>16.6} {}", m.name, m.value, m.unit))
        .chain([format!(
            "trace: {} spans in {}",
            tracer.spans().len(),
            path.display()
        )])
        .collect();
    Ok(RunOutput {
        metrics,
        attempted: shard.attempted,
        failed: shard.failed,
        report,
    })
}
