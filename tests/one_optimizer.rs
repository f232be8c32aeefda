//! One optimizer, as behaviour. The relational planner
//! ([`Database::spatial_join_auto`]) and the service's chooser
//! ([`auto_chooser`]) both derive their §4 inputs and pick through
//! [`try_pick`], so for one fan-out, one pool size and one pair of
//! relations they agree by construction. What remains to check is the
//! data they sample: rows inserted one at a time into a `Database` must
//! sit at the positions a bulk-built `StoredRelation` gives them, so that
//! one seed draws the same R tuples on both sides and the estimates match
//! bit for bit.

use spatial_joins::costmodel::Distribution;
use spatial_joins::geom::{Geometry, Point, ThetaOp};
use spatial_joins::joins::advisor::{auto_chooser, try_pick, Operation, WorkloadProfile};
use spatial_joins::joins::{StoredRelation, Strategy};
use spatial_joins::rel::planner::PlannerConfig;
use spatial_joins::rel::{Column, Database, Schema, Value, ValueType};
use spatial_joins::storage::{BufferPool, Disk, DiskConfig, Layout};

/// `n` points on a 10-unit lattice, shifted `shift` along x; ids are the
/// rowids the database hands out.
fn lattice(n: usize, shift: f64) -> Vec<(u64, Geometry)> {
    let side = (n as f64).sqrt().ceil() as usize;
    (0..n)
        .map(|i| {
            let (x, y) = ((i % side) as f64 * 10.0 + shift, (i / side) as f64 * 10.0);
            (i as u64, Geometry::Point(Point::new(x, y)))
        })
        .collect()
}

#[test]
fn planner_and_chooser_name_the_same_strategy() {
    let mut sparse_s = lattice(900, 107.3);
    sparse_s.push((900, Geometry::Point(Point::new(0.2, 0.0))));
    let config = |updates_per_query, samples| PlannerConfig {
        updates_per_query,
        samples,
        seed: 9,
    };
    let default = PlannerConfig::default();
    let cases = [
        // Sparse and static: one matching pair in 900 × 901, no updates;
        // 4 000 samples read all of R, so p̂ is exact.
        (lattice(900, 0.0), sparse_s, 0.5, config(0.0, 4_000)),
        // Dense: everything matches everything.
        (lattice(100, 0.0), lattice(100, 0.1), 1_000.0, default),
        // Update-heavy: ten inserts per query price the join index out.
        (
            lattice(400, 0.0),
            lattice(400, 0.4),
            0.5,
            config(10.0, 2_000),
        ),
    ];
    let mut picked = Vec::new();
    for (r, s, within, config) in cases {
        let theta = ThetaOp::WithinDistance(within);
        let mut db = Database::in_memory();
        for (name, tuples) in [("r", &r), ("s", &s)] {
            let schema = Schema::new(vec![Column::new("loc", ValueType::Spatial)]);
            db.create_table(name, schema, 300).unwrap();
            for (_, g) in tuples {
                db.insert(name, vec![Value::Spatial(g.clone())]).unwrap();
            }
        }
        let (plan, _) = db
            .spatial_join_auto("r", "loc", "s", "loc", theta, config)
            .unwrap();

        // The database's pool size: `try_pick` prices M from the pool.
        let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 256);
        let r = StoredRelation::build(&mut pool, &r, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut pool, &s, 300, Layout::Clustered);
        let base = WorkloadProfile {
            params: plan.params,
            distribution: Distribution::Uniform,
            selectivity: 0.0, // overridden by the sampled estimate
            updates_per_query: config.updates_per_query,
            operation: Operation::Join,
        };
        let (samples, seed) = (config.samples, config.seed);
        let pick = try_pick(&mut pool, base, (&r, &s), theta, samples, seed).unwrap();
        assert_eq!(plan, pick, "{theta:?}");
        let chosen = auto_chooser(base, &r, &s, samples, seed)(theta, &mut pool).unwrap();
        assert_eq!((plan.strategy, chosen), (pick.strategy, pick.strategy));
        picked.push(plan.strategy);
    }
    assert_eq!(picked[..2], [Strategy::JoinIndex, Strategy::Tree]);
    assert_ne!(picked[2], Strategy::JoinIndex);
}
