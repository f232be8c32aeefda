//! Automatic strategy selection: this module hands the columns' index
//! fan-out and the database's pool to [`sj_joins::advisor::try_pick`],
//! which derives the §4 inputs from the stored data, estimates, scores
//! and picks — the step the service's `Auto` takes too — and runs the
//! strategy it picked.

use sj_costmodel::{Distribution, ModelParams};
use sj_geom::ThetaOp;
use sj_joins::advisor::{try_pick, Operation, Pick, WorkloadProfile};

use crate::db::{sides, Database};
use crate::error::{DbError, Result};

/// Planner inputs beyond the query itself.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Expected insertions per query — §5's update ratio. High values
    /// steer the planner away from join indices.
    pub updates_per_query: f64,
    /// Distinct R rows per selectivity estimate; the estimate is exact
    /// once this reaches the row count.
    pub samples: usize,
    /// Sampling seed (deterministic plans for deterministic tests).
    pub seed: u64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            updates_per_query: 0.01,
            samples: 2_000,
            seed: 42,
        }
    }
}

impl Database {
    /// Plans and executes a spatial join: [`try_pick`] prices strategies
    /// I/IIa/IIb/III for the two columns at their index fan-out and picks
    /// one, and the winner runs. Returns the pick (strategy, estimated
    /// selectivity, model cost and the §4 parameters priced) and the
    /// pairs.
    pub fn spatial_join_auto(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        config: PlannerConfig,
    ) -> Result<(Pick, Vec<(u64, u64)>)> {
        self.usable()?;
        let [r, s] = sides(&self.tables, (r_table, r_col), (s_table, s_col))?;
        // The model has one `k`; the narrower of the two trees is the
        // deeper one the synchronized traversal descends.
        let mut base = WorkloadProfile {
            params: ModelParams::paper(),
            distribution: Distribution::Uniform,
            selectivity: 0.0, // `try_pick` prices its own estimate
            updates_per_query: config.updates_per_query,
            operation: Operation::Join,
        };
        base.params.k = r.fanout.min(s.fanout);
        let (cols, samples) = ((r.side.rel(), s.side.rel()), config.samples);
        let plan = try_pick(&mut self.pool, base, cols, theta, samples, config.seed);
        let plan = plan.map_err(DbError::during("sampling"))?;
        let pairs = self.spatial_join_ids(r_table, r_col, s_table, s_col, theta, plan.strategy)?;
        Ok((plan, pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{Value, ValueType};
    use sj_geom::{Geometry, Point};
    use sj_joins::Strategy;

    fn grid_db(n: usize, shift: f64) -> Database {
        let mut db = Database::in_memory();
        for (name, off) in [("r", 0.0), ("s", shift)] {
            let schema = Schema::new(vec![
                Column::new("id", ValueType::Int),
                Column::new("loc", ValueType::Spatial),
            ]);
            db.create_table(name, schema, 300).unwrap();
            let side = (n as f64).sqrt().ceil() as usize;
            for i in 0..n {
                let at = Point::new((i % side) as f64 * 10.0 + off, (i / side) as f64 * 10.0);
                let row = vec![Value::Int(i as i64), Value::Spatial(Geometry::Point(at))];
                db.insert(name, row).unwrap();
            }
        }
        db
    }

    fn join(db: &mut Database, theta: ThetaOp, strategy: Strategy) -> Vec<(u64, u64)> {
        let mut v = db
            .spatial_join_ids("r", "loc", "s", "loc", theta, strategy)
            .unwrap();
        v.sort_unstable();
        v
    }

    fn auto(db: &mut Database, theta: ThetaOp, config: PlannerConfig) -> (Pick, Vec<(u64, u64)>) {
        let (plan, mut pairs) = db
            .spatial_join_auto("r", "loc", "s", "loc", theta, config)
            .unwrap();
        pairs.sort_unstable();
        (plan, pairs)
    }

    #[test]
    fn auto_plan_matches_reference_result() {
        let mut db = grid_db(400, 0.4);
        let theta = ThetaOp::WithinDistance(0.5);
        let reference = join(&mut db, theta, Strategy::NestedLoop);
        let (plan, pairs) = auto(&mut db, theta, PlannerConfig::default());
        assert_eq!(pairs, reference);
        assert_ne!(
            plan.strategy,
            Strategy::NestedLoop,
            "planner should use an index"
        );
        assert!(plan.cost.is_finite());
        // `Strategy::Auto` runs the same planner at its default config.
        assert_eq!(join(&mut db, theta, Strategy::Auto), reference);
    }

    #[test]
    fn plan_is_priced_for_the_tree_the_database_built() {
        let mut db = grid_db(400, 0.4);
        let theta = ThetaOp::WithinDistance(0.5);
        let plan = |db: &mut Database| auto(db, theta, PlannerConfig::default()).0;
        // No index declared: the default fan-out, ⌈log₁₀ 400⌉ = 3 levels,
        // priced at the tables' 300-byte slots and the database's
        // 256-frame pool.
        let default = ModelParams {
            k: 10,
            n: 3,
            h: 3,
            v: 300.0,
            m_mem: 256.0,
            ..ModelParams::paper()
        };
        let default = ModelParams {
            t: default.n_tuples(),
            ..default
        };
        assert_eq!(plan(&mut db).params, default);
        // A fan-out-4 index on one column: ⌈log₄ 400⌉ = 5 levels.
        db.create_spatial_index("r", "loc", 4, sj_storage::Layout::Clustered)
            .unwrap();
        let narrow = ModelParams {
            k: 4,
            n: 5,
            h: 5,
            ..default
        };
        let narrow = ModelParams {
            t: narrow.n_tuples(),
            ..narrow
        };
        assert_eq!(plan(&mut db).params, narrow);
    }

    /// An extremely selective join and no updates. 4 000 samples read all
    /// of R, so the estimate is the exact p.
    const SPARSE: PlannerConfig = PlannerConfig {
        updates_per_query: 0.0,
        samples: 4_000,
        seed: 9,
    };

    fn near(x: f64) -> Vec<Value> {
        vec![
            Value::Int(-1),
            Value::Spatial(Geometry::Point(Point::new(x, 0.0))),
        ]
    }

    #[test]
    fn static_sparse_workload_gets_a_join_index() {
        // Strategy III should win, and its index must be reused on the
        // second call.
        // Far shift: one matching pair in 900 × 901 (p = 1.2e-6), sparse
        // enough for the model to price III below IIa at N = 900.
        let mut db = grid_db(900, 107.3);
        db.insert("s", near(0.2)).unwrap();
        let theta = ThetaOp::WithinDistance(0.5);
        let (plan, pairs) = auto(&mut db, theta, SPARSE);
        assert_eq!(plan.strategy, Strategy::JoinIndex);
        let (plan2, pairs2) = auto(&mut db, theta, SPARSE);
        assert_eq!(plan.strategy, plan2.strategy);
        assert_eq!(pairs, pairs2);
    }

    /// Strategy III never answers from an index built for another θ or
    /// an older table: there is one index per (sides, θ), and it is
    /// rebuilt after either table changes.
    #[test]
    fn join_indices_never_answer_for_another_theta_or_an_older_table() {
        // 900 lattice points against 901: one pair within 0.5, none
        // within 0.1.
        let mut db = grid_db(900, 107.3);
        db.insert("s", near(0.2)).unwrap();
        let auto = |db: &mut Database, theta| {
            let (plan, pairs) = auto(db, theta, SPARSE);
            assert_eq!(plan.strategy, Strategy::JoinIndex);
            pairs
        };
        let (wide, narrow) = (ThetaOp::WithinDistance(0.5), ThetaOp::WithinDistance(0.1));
        db.create_join_index("r", "loc", "s", "loc", wide).unwrap();
        assert_eq!(auto(&mut db, wide).len(), 1);
        // Another θ: not answered from the 0.5 index.
        assert_eq!(
            auto(&mut db, narrow),
            join(&mut db, narrow, Strategy::NestedLoop)
        );
        assert!(join(&mut db, narrow, Strategy::JoinIndex).is_empty());

        // A second pair appears: the planner's and the explicit
        // strategy-III answers both see it.
        db.insert("s", near(10.2)).unwrap();
        let want = join(&mut db, wide, Strategy::NestedLoop);
        assert_eq!(want.len(), 2);
        assert_eq!(auto(&mut db, wide), want);
        assert_eq!(join(&mut db, wide, Strategy::JoinIndex), want);
    }

    #[test]
    fn update_heavy_workload_avoids_the_join_index() {
        let mut db = grid_db(400, 0.4);
        let theta = ThetaOp::WithinDistance(0.5);
        let config = PlannerConfig {
            updates_per_query: 10.0,
            samples: 2_000,
            seed: 9,
        };
        let (plan, _) = auto(&mut db, theta, config);
        assert_ne!(
            plan.strategy,
            Strategy::JoinIndex,
            "update-heavy workloads must not get a join index"
        );
    }

    #[test]
    fn dense_join_prefers_the_tree() {
        // Everything matches everything: the index would be as large as
        // the cross product.
        let mut db = grid_db(100, 0.1);
        let theta = ThetaOp::WithinDistance(1_000.0);
        let (plan, pairs) = auto(&mut db, theta, PlannerConfig::default());
        assert_eq!(pairs.len(), 100 * 100);
        assert_eq!(plan.strategy, Strategy::Tree);
        assert!(plan.selectivity > 0.9);
    }
}
