//! Properties of the unified executor surface and the observability
//! layer:
//!
//! 1. Every [`Strategy`] reachable through [`JoinExecutor::execute`]
//!    returns exactly the nested-loop reference match set.
//! 2. Per-phase [`PhaseStats`] deltas sum *exactly* to the run's
//!    [`ExecStats`] totals, on every strategy × every θ-operator (the
//!    `seal` invariant).
//! 3. A run with [`TraceSink::Null`] and a run with [`TraceSink::Vec`]
//!    produce identical [`JoinRun`]s — tracing observes, never perturbs —
//!    and the Vec sink actually captures well-formed span events.
//!
//! The library joins no request can name — the grid-file join (every θ
//! with a bounded filter region) and local join indices — are held to
//! the same three properties through their functions.

use proptest::prelude::*;
// `sj_joins::Strategy` shadows the prelude's generator trait; re-import it
// anonymously so `prop_map` et al. stay in scope.
use proptest::Strategy as _;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Direction, Geometry, Point, Rect, ThetaOp};
use sj_joins::grid::{grid_join, GridConfig};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::{
    JoinOperands, JoinRequest, JoinRun, LocalJoinIndex, StoredRelation, Strategy, TraceSink,
    TreeRelation,
};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const WORLD: f64 = 128.0;

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 64)
}

fn arb_geom() -> impl proptest::Strategy<Value = Geometry> {
    prop_oneof![
        (0.0..WORLD, 0.0..WORLD).prop_map(|(x, y)| Geometry::Point(Point::new(x, y))),
        (0.0..WORLD - 9.0, 0.0..WORLD - 9.0, 0.1..8.0f64, 0.1..8.0f64)
            .prop_map(|(x, y, w, h)| Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))),
    ]
}

fn arb_tuples(id0: u64) -> impl proptest::Strategy<Value = Vec<(u64, Geometry)>> {
    prop::collection::vec(arb_geom(), 1..32).prop_map(move |gs| {
        gs.into_iter()
            .enumerate()
            .map(|(i, g)| (id0 + i as u64, g))
            .collect()
    })
}

fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

/// All eight θ-operators of the paper's Table 1.
const ALL_THETAS: [ThetaOp; 8] = [
    ThetaOp::Overlaps,
    ThetaOp::Includes,
    ThetaOp::ContainedIn,
    ThetaOp::WithinDistance(6.0),
    ThetaOp::WithinCenterDistance(10.0),
    ThetaOp::Adjacent,
    ThetaOp::ReachableWithin {
        minutes: 4.0,
        speed: 2.0,
    },
    ThetaOp::DirectionOf(Direction::NorthWest),
];

/// Properties 1–3 for one join: `run` on a cold pool untraced, then
/// again with a Vec sink.
fn check_join(
    p: &mut BufferPool,
    label: &str,
    reference: &[(u64, u64)],
    run: impl Fn(&mut BufferPool, &mut TraceSink) -> JoinRun,
) -> Result<(), TestCaseError> {
    // Untraced run.
    p.clear();
    p.reset_stats();
    let untraced = run(p, &mut TraceSink::Null);

    // Property 2: phase deltas sum exactly to run totals.
    prop_assert_eq!(
        untraced.phases.total(),
        untraced.stats,
        "phase sums diverge for {}",
        label
    );

    // Property 1: same match set as the nested-loop reference.
    prop_assert_eq!(
        sorted(untraced.pairs.clone()),
        reference.to_vec(),
        "{} diverges from reference",
        label
    );

    // Property 3: a Vec-traced run is indistinguishable in pairs,
    // totals, and phase deltas.
    p.clear();
    p.reset_stats();
    let mut sink = TraceSink::vec();
    let traced = run(p, &mut sink);
    prop_assert_eq!(
        &untraced.pairs,
        &traced.pairs,
        "{} trace perturbed pairs",
        label
    );
    prop_assert_eq!(
        untraced.stats,
        traced.stats,
        "{} trace perturbed stats",
        label
    );
    prop_assert_eq!(
        untraced.phases.clone(),
        traced.phases.clone(),
        "{} trace perturbed phase deltas",
        label
    );
    let events = sink.events();
    prop_assert!(!events.is_empty(), "{} emitted no spans", label);
    for ev in events {
        prop_assert!(!ev.span.is_empty());
        prop_assert!(
            ev.counters.iter().all(|(name, _)| !name.is_empty()),
            "unnamed counter in span {}",
            ev.span
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn executors_wrap_trace_and_phase_sum(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..8,
    ) {
        let theta = ALL_THETAS[theta_pick];
        let world = Rect::from_bounds(0.0, 0.0, WORLD, WORLD);
        let mut p = pool();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let tr = TreeRelation::new(
            &mut p,
            RTree::bulk_load(RTreeConfig::with_fanout(5), r_tuples.clone()).tree().clone(),
            300,
            Layout::Clustered,
        );
        let ts = TreeRelation::new(
            &mut p,
            RTree::bulk_load(RTreeConfig::with_fanout(4), s_tuples.clone()).tree().clone(),
            300,
            Layout::Clustered,
        );
        let ops = JoinOperands::flat(&r, &s, world).with_trees(&tr, &ts);

        p.clear();
        p.reset_stats();
        let reference = sorted(nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);

        for strat in Strategy::ALL {
            let label = format!("{} under {theta:?}", strat.name());
            prop_assert_eq!(strat.executor(&ops).expect("both operand kinds present").strategy(), strat);
            // A fresh executor per run, so the join index builds each time.
            check_join(&mut p, &label, &reference, |p, sink| {
                let mut exec = strat.executor(&ops).expect("both operand kinds present");
                let req = JoinRequest::new(theta).with_trace(std::mem::take(sink));
                let run = exec.execute(&req, p);
                *sink = req.take_trace();
                run
            })?;
        }

        if theta.filter_radius().is_some() {
            let config = GridConfig { world, nx: 8, ny: 8 };
            check_join(&mut p, &format!("grid_join under {theta:?}"), &reference, |p, sink| {
                grid_join(p, &r, &s, config, theta, sink).unwrap()
            })?;
        }
        check_join(&mut p, &format!("local join index under {theta:?}"), &reference, |p, sink| {
            let (idx, _) = LocalJoinIndex::try_build(p, &tr, &ts, theta, 1, 16).unwrap();
            idx.join(p, sink).unwrap()
        })?;
    }
}
