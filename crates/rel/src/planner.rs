//! Automatic strategy selection — a miniature query optimizer that closes
//! the loop between the §4 cost model and the executors: sample the data
//! to estimate the join selectivity, score the strategies, run the winner.

use sj_geom::ThetaOp;

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
}

impl Database {
    /// Plans and executes a spatial join: estimates the selectivity by
    /// sampling, scores strategies I/IIa/IIb/III with the cost model at a
    /// [`sj_costmodel::ModelParams`] scaled to the actual relation sizes,
    /// and runs the winner (creating the join index on first use if
    /// strategy III wins).
    pub fn spatial_join_auto(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        config: PlannerConfig,
    ) -> (Plan, Vec<(u64, u64)>) {
        use sj_core_model::*;

        // 1. Estimate selectivity from the column files.
        let p_hat = {
            let pool = &mut self.pool;
            let r = &self.tables[r_table].spatial[r_col].column;
            let s = &self.tables[s_table].spatial[s_col].column;
            estimate(pool, r, s, theta, config.samples, config.seed)
        };

        // 2. Scale the model to the data: N from the actual relation, the
        // generalization-tree shape from the default fan-out.
        let n_tuples = self.row_count(r_table).max(self.row_count(s_table)).max(2) as f64;
        let k = 10usize;
        let n_height = (n_tuples.ln() / (k as f64).ln()).ceil().max(1.0) as usize;
        let mut params = sj_costmodel::ModelParams::paper();
        params.n = n_height;
        params.h = n_height;
        params.t = n_tuples;

        // 3. Score and pick.
        let profile = sj_core_model::Profile {
            params,
            selectivity: p_hat.max(1e-12),
            updates_per_query: config.updates_per_query,
        };
        let (candidate, cost) = pick(&profile);

        // 4. Execute.
        let strategy = match candidate {
            Pick::NestedLoop => JoinStrategy::NestedLoop,
            Pick::Tree => JoinStrategy::GenTree,
            Pick::JoinIndex => {
                let name = format!("__auto:{r_table}.{r_col}:{s_table}.{s_col}");
                if !self.join_indices.contains_key(&name) {
                    self.create_join_index(&name, r_table, r_col, s_table, s_col, theta);
                }
                JoinStrategy::JoinIndex { name }
            }
        };
        let pairs = self.spatial_join_ids(r_table, r_col, s_table, s_col, theta, strategy.clone());
        (
            Plan {
                strategy,
                estimated_selectivity: p_hat,
                estimated_cost: cost,
            },
            pairs,
        )
    }
}

/// A thin internal shim around the cost model so `sj-rel` does not depend
/// on `sj-core` (which depends on `sj-rel`): the scoring logic mirrors
/// `sj_core::advisor` for the join operation.
mod sj_core_model {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sj_costmodel::{join, update, Distribution, ModelParams};
    use sj_geom::ThetaOp;
    use sj_joins::StoredRelation;
    use sj_storage::BufferPool;

    pub(super) struct Profile {
        pub params: ModelParams,
        pub selectivity: f64,
        pub updates_per_query: f64,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Pick {
        NestedLoop,
        Tree,
        JoinIndex,
    }

    pub(super) fn pick(profile: &Profile) -> (Pick, f64) {
        let p = &profile.params;
        let d = Distribution::Uniform;
        let sel = profile.selectivity;
        let u = profile.updates_per_query;
        let candidates = [
            (Pick::NestedLoop, join::d_i(p), update::u_i(p)),
            (
                Pick::Tree,
                join::d_iib(p, d, sel).min(join::d_iia(p, d, sel)),
                update::u_iib(p),
            ),
            (Pick::JoinIndex, join::d_iii(p, d, sel), update::u_iii(p)),
        ];
        candidates
            .into_iter()
            .map(|(c, q, m)| (c, q + u * m))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .expect("non-empty")
    }

    pub(super) fn estimate(
        pool: &mut BufferPool,
        r: &StoredRelation,
        s: &StoredRelation,
        theta: ThetaOp,
        samples: usize,
        seed: u64,
    ) -> f64 {
        if r.is_empty() || s.is_empty() {
            return 0.0;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hits = 0usize;
        for _ in 0..samples.max(1) {
            let i = rng.random_range(0..r.len());
            let j = rng.random_range(0..s.len());
            // The database's own pool carries no fault injector.
            let (_, rg) = r
                .try_read_at(pool, i)
                .expect("storage fault during sampling");
            let (_, sg) = s
                .try_read_at(pool, j)
                .expect("storage fault during sampling");
            if theta.eval(&rg, &sg) {
                hits += 1;
            }
        }
        hits as f64 / samples.max(1) as f64
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
