//! `joins.*`: `JoinExecutor::execute` directly, over relations the
//! harness stored, with the existing public `JoinRequest::with_trace`
//! sink on. Pins `Strategy::executor`, `JoinOperands`, `JoinRequest`,
//! `JoinRun::{pairs, stats}`, `ExecStats`, and the `<executor>/<phase>`
//! span names `JoinRun::seal` emits.

use std::time::Instant;

use sj_geom::ThetaOp;
use sj_joins::{ExecStats, JoinOperands, JoinRequest, Phase, Strategy, TraceSink};

use crate::layers::{probe, ratio, Stored};
use crate::spec::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::STRATEGIES;

/// The paper's Table 3 prices: `C_Θ` = 1, `C_IO` = 1000 units.
pub const C_THETA: f64 = 1.0;
pub const C_IO: f64 = 1000.0;

/// What the cost-model probe needs from this one.
pub struct Measured {
    pub ms_p50: [f64; 3],
    pub cost_units: [f64; 3],
    pub result_pairs: f64,
}

/// One executor run on a cold fork of the pool, the way a service
/// worker runs it. Returns wall seconds, the per-phase milliseconds the
/// trace sink reported, the run's counters and its result size.
fn run_once(
    stored: &Stored,
    strategy: Strategy,
    theta: ThetaOp,
    shard_capacity: usize,
    tracer: &mut Tracer,
) -> (f64, [f64; 4], ExecStats, usize) {
    let ops = JoinOperands::flat(&stored.r, &stored.s, stored.world)
        .with_trees(&stored.r_tree, &stored.s_tree);
    let mut exec = strategy
        .executor(&ops)
        .expect("operands cover every strategy");
    let mut shard = stored.pool.fork_view(shard_capacity);
    let req = JoinRequest::new(theta).with_trace(TraceSink::vec());
    let name = format!("probe.joins.{}", strategy.name());
    let (run, secs) = probe(tracer, &name, || exec.execute(&req, &mut shard));
    let sink = req.take_trace();
    let mut phase_ms = [0.0; 4];
    for (slot, phase) in Phase::ALL.iter().enumerate() {
        let suffix = format!("/{}", phase.name());
        phase_ms[slot] = sink
            .events()
            .iter()
            .filter(|e| e.span.ends_with(&suffix))
            .map(|e| e.dur_us as f64 / 1e3)
            .sum();
    }
    (secs, phase_ms, run.stats, run.pairs.len())
}

/// Interleaves the three strategies for `seconds`; the exact counts
/// come from each strategy's first run (the data never changes here).
pub fn run(
    stored: &Stored,
    theta: ThetaOp,
    shard_capacity: usize,
    seconds: f64,
    max_reps: Option<usize>,
    tracer: &mut Tracer,
) -> (Vec<Metric>, Measured) {
    let mut wall_ms: [Vec<f64>; 3] = Default::default();
    let mut phases: [[Vec<f64>; 4]; 3] = Default::default();
    let mut first: [Option<(ExecStats, usize)>; 3] = [None; 3];
    let started = Instant::now();
    let mut reps = 0usize;
    while reps == 0
        || (started.elapsed().as_secs_f64() < seconds && max_reps.is_none_or(|m| reps < m))
    {
        for (i, strategy) in STRATEGIES.into_iter().enumerate() {
            let (secs, phase_ms, stats, pairs) =
                run_once(stored, strategy, theta, shard_capacity, tracer);
            wall_ms[i].push(secs * 1e3);
            for (slot, ms) in phase_ms.into_iter().enumerate() {
                phases[i][slot].push(ms);
            }
            first[i].get_or_insert((stats, pairs));
        }
        reps += 1;
    }

    let mut metrics = Vec::new();
    let mut measured = Measured {
        ms_p50: [0.0; 3],
        cost_units: [0.0; 3],
        result_pairs: 0.0,
    };
    for (i, strategy) in STRATEGIES.into_iter().enumerate() {
        let s = strategy.name();
        let (stats, pairs) = first[i].expect("every strategy ran once");
        let evals = stats.theta_evals as f64;
        measured.ms_p50[i] = median(&wall_ms[i]);
        measured.cost_units[i] = stats.cost(C_THETA, C_IO);
        measured.result_pairs = pairs as f64;
        let mut push = |suffix: &str, value: f64, unit: &str| {
            metrics.push(Metric::new(format!("joins.{s}.{suffix}"), value, unit));
        };
        push("ms_p50", measured.ms_p50[i], "ms");
        push("partition_ms", median(&phases[i][0]), "ms");
        push("filter_ms", median(&phases[i][1]), "ms");
        push("refine_ms", median(&phases[i][2]), "ms");
        push("index_probe_ms", median(&phases[i][3]), "ms");
        push("filter_evals", stats.filter_evals as f64, "count");
        push("theta_evals", evals, "count");
        push("physical_reads", stats.physical_reads as f64, "count");
        push("logical_reads", stats.logical_reads as f64, "count");
        push("result_pairs", pairs as f64, "count");
        push("cost_units", measured.cost_units[i], "units");
        push("refine_useful_frac", ratio(pairs as f64, evals), "frac");
        push(
            "decode_frac",
            ratio(stats.decoded_exact as f64, evals),
            "frac",
        );
        push(
            "margin_resolved_frac",
            ratio((stats.margin_hits + stats.margin_misses) as f64, evals),
            "frac",
        );
    }
    (metrics, measured)
}
