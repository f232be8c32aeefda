//! Automatic strategy selection — a miniature query optimizer that closes
//! the loop between the §4 cost model and the executors: sample the data
//! to estimate the join selectivity, score the strategies, run the winner.
//! Sampling, scoring and the choice itself are [`sj_joins::advisor`]'s;
//! this module scales the model to the stored data and runs the pick.

use sj_costmodel::{Distribution, ModelParams};
use sj_geom::ThetaOp;
use sj_joins::advisor::{
    choose_join_strategy, recommend, try_estimate_selectivity, Operation, WorkloadProfile,
};
use sj_joins::Strategy;

use crate::db::Database;
use crate::query::JoinStrategy;

/// Planner inputs beyond the query itself.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Expected insertions per query — §5's update ratio. High values
    /// steer the planner away from join indices.
    pub updates_per_query: f64,
    /// Monte-Carlo sample size for selectivity estimation.
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

/// What the planner decided and why.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The chosen execution strategy.
    pub strategy: JoinStrategy,
    /// The sampled selectivity estimate fed to the cost model.
    pub estimated_selectivity: f64,
    /// The model-unit total cost of the winner (query + amortized update).
    pub estimated_cost: f64,
    /// The model parameters the plan was scored under.
    pub params: ModelParams,
}

impl Database {
    /// Plans and executes a spatial join: estimates the selectivity by
    /// sampling, scores strategies I/IIa/IIb/III with the cost model at a
    /// [`ModelParams`] scaled to the actual relation sizes and index
    /// fan-out, and runs the winner (creating the join index on first use
    /// if strategy III wins).
    pub fn spatial_join_auto(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        config: PlannerConfig,
    ) -> (Plan, Vec<(u64, u64)>) {
        // 1. Estimate selectivity from the column files.
        let r = &self.tables[r_table].spatial[r_col];
        let s = &self.tables[s_table].spatial[s_col];
        let sampled = try_estimate_selectivity(
            &mut self.pool,
            &r.column,
            &s.column,
            theta,
            config.samples,
            config.seed,
        );
        // The database's own pool carries no fault injector.
        let p_hat = sampled.expect("storage fault during sampling");

        // 2. Scale the model to the data: N from the actual relations, the
        // generalization-tree shape from the columns' index fan-out (the
        // model has one `k`; the deeper of the two trees sets the height
        // the synchronized traversal descends).
        let k = r.index_fanout.min(s.index_fanout);
        let n_tuples = self.row_count(r_table).max(self.row_count(s_table)).max(2) as f64;
        let n_height = (n_tuples.ln() / (k as f64).ln()).ceil().max(1.0) as usize;
        let params = ModelParams {
            n: n_height,
            h: n_height,
            k,
            t: n_tuples,
            ..ModelParams::paper()
        };

        // 3. Score and pick. A sample that saw no match is not evidence of
        // an empty join, so the estimate is floored before it is priced.
        let profile = WorkloadProfile {
            params,
            distribution: Distribution::Uniform,
            selectivity: p_hat.max(1e-12),
            updates_per_query: config.updates_per_query,
            operation: Operation::Join,
        };
        let picked = choose_join_strategy(&profile, theta);
        let (_, ranked) = recommend(&profile);
        let estimated_cost = ranked
            .iter()
            .find(|scored| scored.candidate.strategy() == picked)
            .map_or(f64::NAN, |scored| scored.total(config.updates_per_query));

        // 4. Execute.
        let strategy = if picked == Strategy::JoinIndex {
            let name = format!("__auto:{r_table}.{r_col}:{s_table}.{s_col}");
            if !self.join_indices.contains_key(&name) {
                self.create_join_index(&name, r_table, r_col, s_table, s_col, theta);
            }
            JoinStrategy::JoinIndex { name }
        } else {
            JoinStrategy::Exec(picked)
        };
        let pairs = self.spatial_join_ids(r_table, r_col, s_table, s_col, theta, strategy.clone());
        (
            Plan {
                strategy,
                estimated_selectivity: p_hat,
                estimated_cost,
                params,
            },
            pairs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{Value, ValueType};
    use sj_geom::{Geometry, Point};

    fn grid_db(n: usize, shift: f64) -> Database {
        let mut db = Database::in_memory();
        for (name, off) in [("r", 0.0), ("s", shift)] {
            db.create_table(
                name,
                Schema::new(vec![
                    Column::new("id", ValueType::Int),
                    Column::new("loc", ValueType::Spatial),
                ]),
                300,
            );
            let side = (n as f64).sqrt().ceil() as usize;
            for i in 0..n {
                db.insert(
                    name,
                    vec![
                        Value::Int(i as i64),
                        Value::Spatial(Geometry::Point(Point::new(
                            (i % side) as f64 * 10.0 + off,
                            (i / side) as f64 * 10.0,
                        ))),
                    ],
                );
            }
        }
        db
    }

    #[test]
    fn auto_plan_matches_reference_result() {
        let mut db = grid_db(400, 0.4);
        let theta = ThetaOp::WithinDistance(0.5);
        let reference = {
            let mut v =
                db.spatial_join_ids("r", "loc", "s", "loc", theta, JoinStrategy::NestedLoop);
            v.sort_unstable();
            v
        };
        let (plan, mut pairs) =
            db.spatial_join_auto("r", "loc", "s", "loc", theta, PlannerConfig::default());
        pairs.sort_unstable();
        assert_eq!(pairs, reference);
        assert_ne!(
            plan.strategy,
            JoinStrategy::NestedLoop,
            "planner should use an index"
        );
        assert!(plan.estimated_cost.is_finite());
    }

    #[test]
    fn plan_is_priced_for_the_tree_the_database_built() {
        let mut db = grid_db(400, 0.4);
        let theta = ThetaOp::WithinDistance(0.5);
        let plan = |db: &mut Database| {
            db.spatial_join_auto("r", "loc", "s", "loc", theta, PlannerConfig::default())
                .0
        };
        // No index declared: the default fan-out, ⌈log₁₀ 400⌉ = 3 levels.
        let default = ModelParams {
            k: 10,
            n: 3,
            h: 3,
            t: 400.0,
            ..ModelParams::paper()
        };
        assert_eq!(plan(&mut db).params, default);
        // A fan-out-4 index on one column: ⌈log₄ 400⌉ = 5 levels.
        db.create_spatial_index("r", "loc", 4, sj_storage::Layout::Clustered);
        let narrow = ModelParams {
            k: 4,
            n: 5,
            h: 5,
            ..default
        };
        assert_eq!(plan(&mut db).params, narrow);
    }

    #[test]
    fn static_sparse_workload_gets_a_join_index() {
        // An extremely selective join (one matching pair in 160,000), no
        // updates: strategy III should win; and the auto-created index
        // must be reused on the second call.
        let mut db = grid_db(400, 107.3); // far shift: almost nothing matches
        db.insert(
            "s",
            vec![
                Value::Int(9_999),
                Value::Spatial(Geometry::Point(Point::new(0.2, 0.0))),
            ],
        );
        let theta = ThetaOp::WithinDistance(0.5);
        let config = PlannerConfig {
            updates_per_query: 0.0,
            samples: 4_000,
            seed: 9,
        };
        let (plan, pairs) = db.spatial_join_auto("r", "loc", "s", "loc", theta, config);
        assert!(
            matches!(plan.strategy, JoinStrategy::JoinIndex { .. }),
            "expected a join index for a static sparse join, got {:?}",
            plan.strategy
        );
        let (plan2, pairs2) = db.spatial_join_auto("r", "loc", "s", "loc", theta, config);
        assert_eq!(plan.strategy, plan2.strategy);
        assert_eq!(pairs, pairs2);
    }

    #[test]
    fn update_heavy_workload_avoids_the_join_index() {
        let mut db = grid_db(400, 0.4);
        let theta = ThetaOp::WithinDistance(0.5);
        let (plan, _) = db.spatial_join_auto(
            "r",
            "loc",
            "s",
            "loc",
            theta,
            PlannerConfig {
                updates_per_query: 10.0,
                samples: 2_000,
                seed: 9,
            },
        );
        assert!(
            !matches!(plan.strategy, JoinStrategy::JoinIndex { .. }),
            "update-heavy workloads must not get a join index"
        );
    }

    #[test]
    fn dense_join_prefers_the_tree() {
        // Everything matches everything: the index would be as large as
        // the cross product.
        let mut db = grid_db(100, 0.1);
        let theta = ThetaOp::WithinDistance(1_000.0);
        let (plan, pairs) =
            db.spatial_join_auto("r", "loc", "s", "loc", theta, PlannerConfig::default());
        assert_eq!(pairs.len(), 100 * 100);
        assert_eq!(plan.strategy, JoinStrategy::GenTree);
        assert!(plan.estimated_selectivity > 0.9);
    }
}
