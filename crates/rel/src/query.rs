//! Spatial query operators: selection and join with pluggable strategies.

use sj_geom::{Bounded, Geometry, Rect, ThetaOp};
use sj_joins::nested_loop::exhaustive_select;
use sj_joins::tree_join::{tree_select, TraversalOrder};
use sj_joins::{JoinOperands, JoinRequest, Strategy, TraceSink};

use crate::db::Database;
use crate::tuple::Tuple;

/// Execution strategy for [`Database::spatial_join`]: any executor
/// strategy of `sj-joins`, or one of the two kinds of named, precomputed
/// index the database itself keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    /// An [`sj_joins::Strategy`], dispatched through
    /// [`Strategy::executor`] over the two column files — plus their
    /// R-tree indices (built/refreshed on demand; the IIa/IIb distinction
    /// is the layout given to [`Database::create_spatial_index`]) when the
    /// strategy walks trees, and the data's bounding world when it
    /// partitions space.
    Exec(Strategy),
    /// Strategy III — a previously created named join index
    /// (see [`Database::create_join_index`]).
    JoinIndex {
        /// Name the index was registered under.
        name: String,
    },
    /// The paper's §5 mixed strategy — a previously created named *local*
    /// join index (see [`Database::create_local_join_index`]).
    LocalJoinIndex {
        /// Name the index was registered under.
        name: String,
    },
}

#[allow(non_upper_case_globals)] // §4's strategy names, spelled like the variants beside them
impl JoinStrategy {
    /// Strategy I — block nested loop.
    pub const NestedLoop: JoinStrategy = JoinStrategy::Exec(Strategy::NestedLoop);
    /// Strategy II — synchronized generalization-tree traversal.
    pub const GenTree: JoinStrategy = JoinStrategy::Exec(Strategy::Tree);
}

/// Execution strategy for [`Database::spatial_select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectStrategy {
    /// Strategy I — exhaustive scan.
    Exhaustive,
    /// Strategy II — Algorithm SELECT (breadth-first, as in the paper).
    Tree,
    /// Strategy II, depth-first variant.
    TreeDepthFirst,
}

impl Database {
    /// Spatial selection: all rows of `table` whose `column` satisfies
    /// `o θ column`.
    pub fn spatial_select(
        &mut self,
        table: &str,
        column: &str,
        o: &Geometry,
        theta: ThetaOp,
        strategy: SelectStrategy,
    ) -> Vec<(u64, Tuple)> {
        let run = match strategy {
            SelectStrategy::Exhaustive => {
                let pool = &mut self.pool;
                let col = &self.tables[table].spatial[column].column;
                exhaustive_select(pool, col, o, theta)
            }
            SelectStrategy::Tree | SelectStrategy::TreeDepthFirst => {
                self.ensure_index(table, column);
                let order = if strategy == SelectStrategy::Tree {
                    TraversalOrder::BreadthFirst
                } else {
                    TraversalOrder::DepthFirst
                };
                let pool = &mut self.pool;
                let (tree_rel, _) = self.tables[table].spatial[column]
                    .index
                    .as_ref()
                    .expect("ensure_index builds the index");
                tree_select(pool, tree_rel, o, theta, order)
            }
        };
        // The database's own pool carries no fault injector.
        run.unwrap_or_else(|e| panic!("spatial selection failed: {e}"))
            .matches
            .into_iter()
            .map(|id| (id, self.get(table, id)))
            .collect()
    }

    /// Spatial join: all row pairs of `r_table × s_table` whose spatial
    /// columns satisfy θ, computed with the chosen strategy. Returns the
    /// joined rows (the relational ⋈ output before any projection).
    pub fn spatial_join(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        strategy: JoinStrategy,
    ) -> Vec<(Tuple, Tuple)> {
        let id_pairs = self.spatial_join_ids(r_table, r_col, s_table, s_col, theta, strategy);
        id_pairs
            .into_iter()
            .map(|(a, b)| (self.get(r_table, a), self.get(s_table, b)))
            .collect()
    }

    /// Like [`Database::spatial_join`] but returning rowid pairs only
    /// (no row materialization) — useful for measurement.
    pub fn spatial_join_ids(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        strategy: JoinStrategy,
    ) -> Vec<(u64, u64)> {
        let run = match strategy {
            JoinStrategy::Exec(strategy) => {
                // Operands on demand, so a join is charged only for what
                // its strategy reads: the world scan when it partitions
                // space, the R-tree (re)build when it walks trees.
                let world = if strategy.partitions_space() {
                    self.data_world(&[(r_table, r_col), (s_table, s_col)])
                } else {
                    Rect::from_bounds(0.0, 0.0, 1.0, 1.0)
                };
                let needs_trees = {
                    let r = &self.tables[r_table].spatial[r_col].column;
                    let s = &self.tables[s_table].spatial[s_col].column;
                    strategy
                        .executor(&JoinOperands::flat(r, s, world))
                        .is_none()
                };
                if needs_trees {
                    self.ensure_index(r_table, r_col);
                    self.ensure_index(s_table, s_col);
                }
                let pool = &mut self.pool;
                let r = &self.tables[r_table].spatial[r_col];
                let s = &self.tables[s_table].spatial[s_col];
                let mut ops = JoinOperands::flat(&r.column, &s.column, world);
                if needs_trees {
                    let (r_tree, _) = r.index.as_ref().expect("built above");
                    let (s_tree, _) = s.index.as_ref().expect("built above");
                    ops = ops.with_trees(r_tree, s_tree);
                }
                strategy
                    .executor(&ops)
                    .unwrap_or_else(|| {
                        panic!("{strategy:?} needs a chooser: use spatial_join_auto")
                    })
                    .try_execute(&JoinRequest::new(theta), pool)
            }
            JoinStrategy::JoinIndex { name } => {
                let (idx, ir, ic, is, isc) = self
                    .join_indices
                    .get(&name)
                    .unwrap_or_else(|| panic!("no join index named {name:?}"));
                assert!(
                    ir == r_table && ic == r_col && is == s_table && isc == s_col,
                    "join index {name:?} was built for {ir}.{ic} ⋈ {is}.{isc}"
                );
                let pool = &mut self.pool;
                let r = &self.tables[r_table].spatial[r_col].column;
                let s = &self.tables[s_table].spatial[s_col].column;
                idx.join(pool, r, s, &mut TraceSink::Null)
            }
            JoinStrategy::LocalJoinIndex { name } => {
                let (idx, ir, ic, is, isc) = self
                    .local_join_indices
                    .get(&name)
                    .unwrap_or_else(|| panic!("no local join index named {name:?}"));
                assert!(
                    ir == r_table && ic == r_col && is == s_table && isc == s_col,
                    "local join index {name:?} was built for {ir}.{ic} ⋈ {is}.{isc}"
                );
                idx.join(&mut self.pool, &mut TraceSink::Null)
            }
        };
        // The database's own pool carries no fault injector.
        run.unwrap_or_else(|e| panic!("spatial join failed: {e}"))
            .pairs
    }

    /// The bounding rectangle of all geometries in the given spatial
    /// columns, slightly expanded (grid/z-order strategies need a world).
    fn data_world(&mut self, cols: &[(&str, &str)]) -> Rect {
        let mut acc: Option<Rect> = None;
        for &(table, col) in cols {
            let pool = &mut self.pool;
            let c = &self.tables[table].spatial[col].column;
            // The database's own pool carries no fault injector.
            let rows = c.try_scan(pool);
            for (_, g) in rows.expect("storage fault during world scan") {
                let m = g.mbr();
                acc = Some(match acc {
                    Some(a) => a.union(&m),
                    None => m,
                });
            }
        }
        acc.map(|r| r.expand(r.margin().max(1.0) * 0.01))
            .unwrap_or_else(|| Rect::from_bounds(0.0, 0.0, 1.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{Value, ValueType};
    use sj_geom::Point;
    use sj_storage::Layout;

    fn setup() -> Database {
        let mut db = Database::in_memory();
        for (name, offset) in [("a", 0.0), ("b", 0.4)] {
            db.create_table(
                name,
                Schema::new(vec![
                    Column::new("id", ValueType::Int),
                    Column::new("loc", ValueType::Spatial),
                ]),
                300,
            );
            for i in 0..30 {
                let x = (i % 6) as f64 * 5.0 + offset;
                let y = (i / 6) as f64 * 5.0;
                db.insert(
                    name,
                    vec![
                        Value::Int(i as i64),
                        Value::Spatial(Geometry::Point(Point::new(x, y))),
                    ],
                );
            }
        }
        db
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn all_strategies_return_the_same_join() {
        let mut db = setup();
        let theta = ThetaOp::WithinDistance(0.5);
        let reference =
            sorted(db.spatial_join_ids("a", "loc", "b", "loc", theta, JoinStrategy::NestedLoop));
        assert_eq!(reference.len(), 30); // each a-point matches its shifted twin

        db.create_spatial_index("a", "loc", 5, Layout::Clustered);
        db.create_spatial_index("b", "loc", 5, Layout::Unclustered { seed: 1 });
        let tree =
            sorted(db.spatial_join_ids("a", "loc", "b", "loc", theta, JoinStrategy::GenTree));
        assert_eq!(tree, reference);

        db.create_join_index("ab", "a", "loc", "b", "loc", theta);
        let ji = sorted(db.spatial_join_ids(
            "a",
            "loc",
            "b",
            "loc",
            theta,
            JoinStrategy::JoinIndex { name: "ab".into() },
        ));
        assert_eq!(ji, reference);

        let local_theta_work =
            db.create_local_join_index("ab_local", "a", "loc", "b", "loc", theta, 1);
        let lji = sorted(db.spatial_join_ids(
            "a",
            "loc",
            "b",
            "loc",
            theta,
            JoinStrategy::LocalJoinIndex {
                name: "ab_local".into(),
            },
        ));
        assert_eq!(lji, reference);
        assert!(
            local_theta_work <= 30 * 30,
            "local build must not exceed N²"
        );

        let grid = sorted(db.spatial_join_ids(
            "a",
            "loc",
            "b",
            "loc",
            theta,
            JoinStrategy::Exec(Strategy::Grid),
        ));
        assert_eq!(grid, reference);
    }

    #[test]
    fn zorder_strategy_for_overlaps() {
        let mut db = setup();
        let reference = sorted(db.spatial_join_ids(
            "a",
            "loc",
            "b",
            "loc",
            ThetaOp::Overlaps,
            JoinStrategy::NestedLoop,
        ));
        let z = sorted(db.spatial_join_ids(
            "a",
            "loc",
            "b",
            "loc",
            ThetaOp::Overlaps,
            JoinStrategy::Exec(Strategy::ZOrderMerge),
        ));
        assert_eq!(z, reference);
    }

    #[test]
    fn spatial_select_strategies_agree() {
        let mut db = setup();
        let o = Geometry::Point(Point::new(10.0, 10.0));
        let theta = ThetaOp::WithinDistance(5.1);
        let mut exh: Vec<u64> = db
            .spatial_select("a", "loc", &o, theta, SelectStrategy::Exhaustive)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let mut bfs: Vec<u64> = db
            .spatial_select("a", "loc", &o, theta, SelectStrategy::Tree)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let mut dfs: Vec<u64> = db
            .spatial_select("a", "loc", &o, theta, SelectStrategy::TreeDepthFirst)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        exh.sort_unstable();
        bfs.sort_unstable();
        dfs.sort_unstable();
        assert_eq!(bfs, exh);
        assert_eq!(dfs, exh);
        assert!(!exh.is_empty());
    }

    #[test]
    fn join_materializes_rows() {
        let mut db = setup();
        let rows = db.spatial_join(
            "a",
            "loc",
            "b",
            "loc",
            ThetaOp::WithinDistance(0.5),
            JoinStrategy::NestedLoop,
        );
        assert_eq!(rows.len(), 30);
        // Matched pairs carry equal ids by construction.
        for (ra, rb) in rows {
            assert_eq!(ra[0], rb[0]);
        }
    }

    #[test]
    #[should_panic(expected = "no join index named")]
    fn missing_join_index_panics() {
        let mut db = setup();
        let _ = db.spatial_join_ids(
            "a",
            "loc",
            "b",
            "loc",
            ThetaOp::Overlaps,
            JoinStrategy::JoinIndex {
                name: "nope".into(),
            },
        );
    }
}
