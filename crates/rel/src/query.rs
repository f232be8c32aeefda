//! Spatial query operators: selection by tree traversal, and joins
//! through `sj-joins`' one executor ([`Strategy::executor`]).

use sj_geom::{Geometry, ThetaOp};
use sj_joins::tree_join::{tree_select, TraversalOrder};
use sj_joins::{JoinOperands, JoinRequest, Strategy};

use crate::db::{column, sides, Database};
use crate::error::{DbError, Result};
use crate::planner::PlannerConfig;
use crate::tuple::Tuple;

impl Database {
    /// Spatial selection: all rows of `table` whose `column` satisfies
    /// `o θ column`, in rowid order, by Algorithm SELECT over the
    /// column's R-tree (maintained by every write) in the given traversal
    /// order.
    pub fn spatial_select(
        &mut self,
        table: &str,
        column: &str,
        o: &Geometry,
        theta: ThetaOp,
        order: TraversalOrder,
    ) -> Result<Vec<(u64, Tuple)>> {
        self.usable()?;
        let tree = self::column(&self.tables, (table, column))?.side.tree();
        let run = tree_select(&mut self.pool, tree, o, theta, order);
        let mut matches = run.map_err(DbError::during("select"))?.matches;
        matches.sort_unstable();
        let rows = matches.into_iter();
        rows.map(|id| Ok((id, self.row(table, id)?))).collect()
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
        strategy: Strategy,
    ) -> Result<Vec<(Tuple, Tuple)>> {
        let id_pairs = self.spatial_join_ids(r_table, r_col, s_table, s_col, theta, strategy)?;
        let rows = id_pairs.into_iter();
        rows.map(|(a, b)| Ok((self.row(r_table, a)?, self.row(s_table, b)?)))
            .collect()
    }

    /// [`Database::spatial_join`]'s rowid pairs, unmaterialized and
    /// sorted. `Tree` walks the columns' maintained R-trees (IIa or IIb
    /// per [`Database::create_spatial_index`]'s layout); `JoinIndex`
    /// answers from the one index kept per (sides, θ); `Auto` runs
    /// [`Database::spatial_join_auto`] with [`PlannerConfig::default`].
    pub fn spatial_join_ids(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        strategy: Strategy,
    ) -> Result<Vec<(u64, u64)>> {
        let (r, s) = ((r_table, r_col), (s_table, s_col));
        let mut pairs = match strategy {
            Strategy::Auto => {
                let auto = PlannerConfig::default();
                let (_, pairs) =
                    self.spatial_join_auto(r_table, r_col, s_table, s_col, theta, auto)?;
                return Ok(pairs);
            }
            Strategy::JoinIndex => self.index_join(r, s, theta)?.pairs,
            concrete => {
                self.usable()?;
                let [rc, sc] = sides(&self.tables, r, s)?;
                let ops = JoinOperands {
                    flat: Some((rc.side.rel(), sc.side.rel())),
                    trees: Some((rc.side.tree(), sc.side.tree())),
                    chooser: None,
                };
                let Some(mut exec) = concrete.executor(&ops) else {
                    unreachable!("both operand kinds are present") // PANIC-OK: logic error
                };
                let run = exec.try_execute(&JoinRequest::new(theta), &mut self.pool);
                run.map_err(DbError::during("join"))?.pairs
            }
        };
        pairs.sort_unstable();
        Ok(pairs)
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
            let schema = Schema::new(vec![
                Column::new("id", ValueType::Int),
                Column::new("loc", ValueType::Spatial),
            ]);
            db.create_table(name, schema, 300).unwrap();
            for i in 0..30 {
                let x = (i % 6) as f64 * 5.0 + offset;
                let y = (i / 6) as f64 * 5.0;
                let loc = Value::Spatial(Geometry::Point(Point::new(x, y)));
                db.insert(name, vec![Value::Int(i as i64), loc]).unwrap();
            }
        }
        db
    }

    fn join(db: &mut Database, theta: ThetaOp, strategy: Strategy) -> Vec<(u64, u64)> {
        let mut v = db
            .spatial_join_ids("a", "loc", "b", "loc", theta, strategy)
            .unwrap();
        v.sort_unstable();
        v
    }

    #[test]
    fn all_strategies_return_the_same_join() {
        let mut db = setup();
        let theta = ThetaOp::WithinDistance(0.5);
        let reference = join(&mut db, theta, Strategy::NestedLoop);
        assert_eq!(reference.len(), 30); // each a-point matches its shifted twin

        db.create_spatial_index("a", "loc", 5, Layout::Clustered)
            .unwrap();
        db.create_spatial_index("b", "loc", 5, Layout::Unclustered { seed: 1 })
            .unwrap();
        db.create_join_index("a", "loc", "b", "loc", theta).unwrap();
        for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
            assert_eq!(join(&mut db, theta, strategy), reference, "{strategy:?}");
        }
    }

    #[test]
    fn spatial_select_strategies_agree() {
        let mut db = setup();
        let o = Geometry::Point(Point::new(10.0, 10.0));
        let theta = ThetaOp::WithinDistance(5.1);
        let exh = db.select("a", |row| match &row[1] {
            Value::Spatial(g) => theta.eval(&o, g),
            _ => false,
        });
        let exh = exh.unwrap();
        let bfs = db.spatial_select("a", "loc", &o, theta, TraversalOrder::BreadthFirst);
        let mut bfs = bfs.unwrap();
        let dfs = db.spatial_select("a", "loc", &o, theta, TraversalOrder::DepthFirst);
        let mut dfs = dfs.unwrap();
        bfs.sort_unstable_by_key(|(id, _)| *id);
        dfs.sort_unstable_by_key(|(id, _)| *id);
        assert_eq!(bfs, exh);
        assert_eq!(dfs, exh);
        assert!(!exh.is_empty());
    }

    #[test]
    fn join_materializes_rows() {
        let mut db = setup();
        let theta = ThetaOp::WithinDistance(0.5);
        let rows = db.spatial_join("a", "loc", "b", "loc", theta, Strategy::NestedLoop);
        let rows = rows.unwrap();
        assert_eq!(rows.len(), 30);
        // Matched pairs carry equal ids by construction.
        for (ra, rb) in rows {
            assert_eq!(ra[0], rb[0]);
        }
    }
}
