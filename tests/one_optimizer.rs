//! One optimizer, as behaviour: for the same two point sets, θ, profile,
//! sample count and seed, the relational planner
//! ([`Database::spatial_join_auto`]) and the service's chooser
//! ([`auto_chooser`]) name the same strategy. They share one sampler and
//! one scoreboard, so a second copy of either shows up here as a
//! diverging pick. (The one input they prepare differently: the planner
//! floors a zero estimate at 1e-12 before scoring, the chooser does not.
//! The cases below resolve the same way on either side of that floor.)

use spatial_joins::costmodel::Distribution;
use spatial_joins::geom::{Geometry, Point, ThetaOp};
use spatial_joins::joins::advisor::{auto_chooser, Operation, WorkloadProfile};
use spatial_joins::joins::{StoredRelation, Strategy};
use spatial_joins::rel::planner::PlannerConfig;
use spatial_joins::rel::{Column, Database, JoinStrategy, Schema, Value, ValueType};
use spatial_joins::storage::{BufferPool, Disk, DiskConfig, Layout};

/// `n` points on a 10-unit lattice, shifted `shift` along x; ids are the
/// rowids the database hands out, so both sides sample the same tuples.
fn lattice(n: usize, shift: f64) -> Vec<(u64, Geometry)> {
    let side = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let (x, y) = ((i % side) as f64 * 10.0 + shift, (i / side) as f64 * 10.0);
            (i as u64, Geometry::Point(Point::new(x, y)))
        })
        .collect()
}

/// The strategy the planner reports and the one the chooser resolves.
fn picks(
    r: &[(u64, Geometry)],
    s: &[(u64, Geometry)],
    theta: ThetaOp,
    config: PlannerConfig,
) -> (Strategy, Strategy) {
    let mut db = Database::in_memory();
    for (name, tuples) in [("r", r), ("s", s)] {
        let schema = Schema::new(vec![Column::new("loc", ValueType::Spatial)]);
        db.create_table(name, schema, 300);
        for (_, g) in tuples {
            db.insert(name, vec![Value::Spatial(g.clone())]);
        }
    }
    let (plan, _) = db.spatial_join_auto("r", "loc", "s", "loc", theta, config);
    let planned = match plan.strategy {
        JoinStrategy::Exec(strategy) => strategy,
        JoinStrategy::JoinIndex { .. } => Strategy::JoinIndex,
        JoinStrategy::LocalJoinIndex { .. } => Strategy::LocalIndex,
    };

    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 256);
    let r = StoredRelation::build(&mut pool, r, 300, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, s, 300, Layout::Clustered);
    let profile = WorkloadProfile {
        params: plan.params,
        distribution: Distribution::Uniform,
        selectivity: 0.0, // overridden by the chooser's own estimate
        updates_per_query: config.updates_per_query,
        operation: Operation::Join,
    };
    let chooser = auto_chooser(profile, &r, &s, config.samples, config.seed);
    let chosen = chooser(theta, &mut pool).expect("no injector armed");
    (planned, chosen)
}

#[test]
fn planner_and_chooser_name_the_same_strategy() {
    // Sparse and static: one matching pair in 160 000, no updates.
    let mut s = lattice(400, 107.3);
    s.push((400, Geometry::Point(Point::new(0.2, 0.0))));
    let sparse = PlannerConfig {
        updates_per_query: 0.0,
        samples: 4_000,
        seed: 9,
    };
    let (planned, chosen) = picks(&lattice(400, 0.0), &s, ThetaOp::WithinDistance(0.5), sparse);
    assert_eq!(
        (planned, chosen),
        (Strategy::JoinIndex, Strategy::JoinIndex)
    );

    // Dense: everything matches everything.
    let (planned, chosen) = picks(
        &lattice(100, 0.0),
        &lattice(100, 0.1),
        ThetaOp::WithinDistance(1_000.0),
        PlannerConfig::default(),
    );
    assert_eq!((planned, chosen), (Strategy::Tree, Strategy::Tree));

    // Update-heavy: ten inserts per query price the join index out.
    let heavy = PlannerConfig {
        updates_per_query: 10.0,
        samples: 2_000,
        seed: 9,
    };
    let (planned, chosen) = picks(
        &lattice(400, 0.0),
        &lattice(400, 0.4),
        ThetaOp::WithinDistance(0.5),
        heavy,
    );
    assert_eq!(planned, chosen);
    assert_ne!(planned, Strategy::JoinIndex);
}
