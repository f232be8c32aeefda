//! `core.*` and `costmodel.*`: what `Strategy::Auto` picks and what the
//! pick costs, and the §4 prediction beside the measured cost. Pins
//! `sj_core::advisor::auto_chooser`, `JoinOperands::with_chooser`,
//! `JoinExecutor::resolved_strategy`, `ModelParams` and
//! `sj_costmodel::join::{d_i, d_iib}`.
//!
//! The static advisor can name strategy I or III, whose cost is
//! quadratic in the data; so the Auto probe runs on every 16th tuple of
//! the workload's data, where a mispick is affordable to measure, and
//! its regret is against the three fixed strategies on that same sample.

use sj_core::advisor::auto_chooser;
use sj_costmodel::{join, Distribution, ModelParams};
use sj_geom::ThetaOp;
use sj_joins::{JoinExecutor, JoinOperands, JoinRequest, Strategy};
use sj_service::ServiceConfig;

use crate::layers::joins::{Measured, C_IO, C_THETA};
use crate::layers::{probe, ratio, Stored};
use crate::spec::Metric;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{world_rect, Dataset, STRATEGIES};

/// Every `SAMPLE_STRIDE`-th tuple of each relation feeds the Auto probe.
const SAMPLE_STRIDE: usize = 16;
/// Auto joins per probe.
const AUTO_JOINS: usize = 20;

/// Twenty `Auto` joins interleaved with the three fixed strategies on
/// the sample; `max_rounds` shortens it for `--quick`.
pub fn auto(
    config: &ServiceConfig,
    data: &Dataset,
    theta: ThetaOp,
    max_rounds: Option<usize>,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let sample = |tuples: &[(u64, sj_geom::Geometry)]| -> Vec<(u64, sj_geom::Geometry)> {
        tuples.iter().step_by(SAMPLE_STRIDE).cloned().collect()
    };
    let stored = Stored::build(config, &sample(&data.r), &sample(&data.s), world_rect());
    let chooser = auto_chooser(
        config.profile,
        &stored.r,
        &stored.s,
        config.selectivity_samples,
        config.seed,
    );
    let ops = JoinOperands::flat(&stored.r, &stored.s, stored.world)
        .with_trees(&stored.r_tree, &stored.s_tree)
        .with_chooser(&chooser);
    let mut auto_exec = Strategy::Auto
        .executor(&ops)
        .expect("a chooser and both operand kinds are present");
    let mut fixed_execs: Vec<Box<dyn JoinExecutor + '_>> = STRATEGIES
        .iter()
        .map(|s| s.executor(&ops).expect("operands cover every strategy"))
        .collect();

    let mut auto_ms = Vec::new();
    let mut fixed_ms: [Vec<f64>; 3] = Default::default();
    let mut picks = [0.0f64; 4];
    for _ in 0..max_rounds.unwrap_or(AUTO_JOINS).min(AUTO_JOINS) {
        let req = JoinRequest::new(theta);
        let mut shard = stored.pool.fork_view(config.shard_capacity);
        let (_, secs) = probe(tracer, "probe.core.auto", || {
            auto_exec.execute(&req, &mut shard)
        });
        auto_ms.push(secs * 1e3);
        let slot = STRATEGIES
            .iter()
            .position(|s| *s == auto_exec.resolved_strategy())
            .unwrap_or(3);
        picks[slot] += 1.0;
        for (i, exec) in fixed_execs.iter_mut().enumerate() {
            let mut shard = stored.pool.fork_view(config.shard_capacity);
            let (_, secs) = probe(tracer, "probe.core.fixed", || {
                exec.execute(&req, &mut shard)
            });
            fixed_ms[i].push(secs * 1e3);
        }
    }
    let best_fixed = fixed_ms
        .iter()
        .map(|ms| median(ms))
        .fold(f64::INFINITY, f64::min);
    let total: f64 = picks.iter().sum();
    let mut metrics = vec![
        Metric::new("core.auto_ms_p50", median(&auto_ms), "ms"),
        Metric::new(
            "core.auto_regret",
            ratio(median(&auto_ms), best_fixed),
            "ratio",
        ),
    ];
    for (slot, label) in ["sweep", "partition", "tree", "other"]
        .into_iter()
        .enumerate()
    {
        metrics.push(Metric::new(
            format!("core.auto_pick_frac.{label}"),
            ratio(picks[slot], total),
            "frac",
        ));
    }
    metrics
}

/// The §4 model's parameters for this dataset: fan-out and record size
/// as configured, tree height from the geometric mean of the two
/// cardinalities (the model assumes equal-sized relations), memory as
/// one worker's pool shard.
fn model_params(config: &ServiceConfig, r_n: usize, s_n: usize) -> ModelParams {
    let k = config.fanout;
    let tuples = ((r_n as f64) * (s_n as f64)).sqrt();
    let n = (tuples.ln() / (k as f64).ln()).round().max(1.0) as usize;
    let p = ModelParams {
        n,
        k,
        v: config.record_size as f64,
        h: n,
        m_mem: config.shard_capacity as f64,
        c_theta: C_THETA,
        c_io: C_IO,
        ..ModelParams::paper()
    };
    ModelParams {
        t: p.n_tuples(),
        ..p
    }
}

/// Predicted cost per strategy and the residual, measured ÷ predicted.
/// §4 prices strategies I–III only: `tree` is held against `D_IIb`
/// (clustered generalization tree), `sweep` and `partition` against
/// `D_I`, the flat-relation strategy they replace — so their residual
/// far below 1 is the filter's saving, not model error.
pub fn residuals(
    config: &ServiceConfig,
    r_n: usize,
    s_n: usize,
    measured: &Measured,
) -> Vec<Metric> {
    let params = model_params(config, r_n, s_n);
    let selectivity = ratio(measured.result_pairs, r_n as f64 * s_n as f64);
    let flat = join::d_i(&params);
    let tree = join::d_iib(&params, Distribution::Uniform, selectivity);
    let mut metrics = Vec::new();
    for (i, strategy) in STRATEGIES.iter().enumerate() {
        let predicted = if *strategy == Strategy::Tree {
            tree
        } else {
            flat
        };
        metrics.push(Metric::new(
            format!("costmodel.pred_cost_units.{}", strategy.name()),
            predicted,
            "units",
        ));
        metrics.push(Metric::new(
            format!("costmodel.residual.{}", strategy.name()),
            ratio(measured.cost_units[i], predicted),
            "ratio",
        ));
    }
    metrics
}
