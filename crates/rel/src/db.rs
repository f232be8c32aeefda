//! The database: disk-backed tables with spatial secondary structures.

use std::collections::{BTreeMap, HashMap};

use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, ThetaOp};
use sj_joins::{
    JoinIndex, LocalJoinIndex, Mutation, MutationOutcome, StoredRelation, TreeRelation,
};
use sj_storage::{BufferPool, Disk, DiskConfig, HeapFile, IoStats, Layout};

use crate::schema::Schema;
use crate::tuple::{decode_tuple, encode_tuple, Tuple};

/// A stored table: the row file plus, per spatial column, a column file
/// (the `(rowid, geometry)` projection used by the join executors) and an
/// optional R-tree generalization tree.
pub struct Table {
    pub(crate) schema: Schema,
    record_size: usize,
    file: HeapFile,
    /// Live rowid → physical heap slot. Deletes drop the entry; upserts
    /// of an existing rowid redirect it to a freshly appended slot, so a
    /// rowid survives any number of rewrites.
    live: BTreeMap<u64, usize>,
    /// Next rowid handed out by [`Database::insert`]; never reused.
    next_id: u64,
    /// Bumped once per applied mutation — the staleness tag spatial
    /// indices are checked against (a delete changes the live set
    /// without changing the row count, so counting rows is not enough).
    mutation_seq: u64,
    pub(crate) spatial: HashMap<String, SpatialColumn>,
}

impl Table {
    pub(crate) fn record_size(&self) -> usize {
        self.record_size
    }

    pub(crate) fn row_count(&self) -> usize {
        self.live.len()
    }

    pub(crate) fn file(&self) -> &HeapFile {
        &self.file
    }

    pub(crate) fn live_entries(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.live.iter().map(|(&id, &slot)| (id, slot))
    }

    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    pub(crate) fn mutation_seq(&self) -> u64 {
        self.mutation_seq
    }

    /// Shared insert/upsert path: screens oversized tuples, appends the
    /// physical record, redirects the rowid to the fresh slot, and syncs
    /// every spatial column file.
    fn apply_write(
        pool: &mut BufferPool,
        t: &mut Table,
        id: u64,
        row: &Tuple,
        replace: bool,
    ) -> MutationOutcome {
        t.schema.check_row(row);
        if crate::tuple::encoded_tuple_len(row) > t.record_size {
            return MutationOutcome::TooLarge;
        }
        let slot = t
            .file
            .try_append(pool, encode_tuple(row, t.record_size))
            .expect("storage fault during row append");
        t.live.insert(id, slot);
        for (col, sc) in &mut t.spatial {
            let idx = t.schema.expect_column(col);
            let g = row[idx].as_spatial().expect("validated spatial column");
            if replace {
                sc.column
                    .try_replace(pool, id, g)
                    .expect("storage fault during upsert");
            } else {
                sc.column
                    .try_insert(pool, id, g)
                    .expect("storage fault during insert");
            }
        }
        t.mutation_seq += 1;
        MutationOutcome::Inserted
    }
}

/// Secondary structures of one spatial column.
pub struct SpatialColumn {
    /// `(rowid, geometry)` projection, stored as its own file.
    pub(crate) column: StoredRelation,
    /// R-tree index, tagged with the table's mutation sequence at build
    /// time so stale indices are rebuilt transparently.
    pub(crate) index: Option<(TreeRelation, u64)>,
    /// Layout and fan-out requested for the index.
    pub(crate) index_layout: Layout,
    pub(crate) index_fanout: usize,
}

/// A named join index and what it answers for: its sides
/// (`r.col ⋈ s.col`), θ, and both tables' mutation sequences when it was
/// built — the staleness tags, as for R-tree indices.
pub(crate) struct NamedJoinIndex<I> {
    pub(crate) index: I,
    sides: String,
    theta: ThetaOp,
    built_at: (u64, u64),
}

impl<I> NamedJoinIndex<I> {
    /// Panics unless the index answers `sides` under θ: it never answers
    /// for other sides or another θ. False once either table moved.
    fn is_current(&self, name: &str, (sides, seqs): (String, (u64, u64)), theta: ThetaOp) -> bool {
        let built = (&self.sides, self.theta);
        assert!(
            built.0 == &sides,
            "join index {name:?} was built for {}",
            built.0
        );
        assert!(
            built.1 == theta,
            "join index {name:?} was built for θ = {:?}",
            built.1
        );
        self.built_at == seqs
    }
}

/// One side of a join: `(table, spatial column)`.
pub(crate) type Side<'a> = (&'a str, &'a str);

/// An in-process spatial database over the storage simulator.
pub struct Database {
    pub(crate) pool: BufferPool,
    pub(crate) tables: HashMap<String, Table>,
    pub(crate) join_indices: HashMap<String, NamedJoinIndex<JoinIndex>>,
    /// Local join indices, with the tree level each is anchored at.
    pub(crate) local_join_indices: HashMap<String, (NamedJoinIndex<LocalJoinIndex>, usize)>,
}

impl Database {
    /// Creates a database on a fresh simulated disk with `mem_pages`
    /// buffer-pool frames.
    pub fn new(config: DiskConfig, mem_pages: usize) -> Self {
        Database {
            pool: BufferPool::new(Disk::new(config), mem_pages),
            tables: HashMap::new(),
            join_indices: HashMap::new(),
            local_join_indices: HashMap::new(),
        }
    }

    /// A database with the paper's disk geometry and a 256-page pool —
    /// convenient for examples and tests.
    pub fn in_memory() -> Self {
        Database::new(DiskConfig::paper(), 256)
    }

    /// Wraps an existing pool (used by [`Database::open`]).
    pub(crate) fn from_pool(pool: BufferPool) -> Self {
        Database {
            pool,
            tables: HashMap::new(),
            join_indices: HashMap::new(),
            local_join_indices: HashMap::new(),
        }
    }

    /// The simulated disk behind the pool (for persistence).
    pub(crate) fn pool_disk(&self) -> &sj_storage::Disk {
        self.pool.disk()
    }

    /// The pool's page capacity (persisted so reopening restores `M`).
    pub(crate) fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Installs a fully reconstructed table (used by [`Database::open`]);
    /// errors on duplicates or schema/catalog mismatches.
    #[allow(clippy::too_many_arguments)] // mirrors the persisted catalog record
    pub(crate) fn install_table(
        &mut self,
        name: String,
        schema: Schema,
        record_size: usize,
        live: BTreeMap<u64, usize>,
        next_id: u64,
        mutation_seq: u64,
        file: HeapFile,
        spatial: Vec<(String, StoredRelation)>,
    ) -> Result<(), String> {
        if self.tables.contains_key(&name) {
            return Err(format!("duplicate table {name:?} in catalog"));
        }
        let mut spatial_map = HashMap::new();
        for (col, column) in spatial {
            if schema.index_of(&col).is_none() {
                return Err(format!("catalog column {col:?} missing from schema"));
            }
            if column.len() != live.len() {
                return Err(format!("spatial column {col:?} length mismatch"));
            }
            spatial_map.insert(
                col,
                SpatialColumn {
                    column,
                    index: None,
                    index_layout: Layout::Clustered,
                    index_fanout: 10,
                },
            );
        }
        self.tables.insert(
            name,
            Table {
                schema,
                record_size,
                file,
                live,
                next_id,
                mutation_seq,
                spatial: spatial_map,
            },
        );
        Ok(())
    }

    /// Physical/logical I/O counters accumulated so far.
    pub fn io_stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Zeroes the I/O counters (e.g. to measure one query).
    pub fn reset_io(&mut self) {
        self.pool.reset_stats();
    }

    /// Drops all cached pages, forcing cold reads.
    pub fn drop_caches(&mut self) {
        self.pool.clear();
    }

    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken.
    pub fn create_table(&mut self, name: &str, schema: Schema, record_size: usize) {
        assert!(
            !self.tables.contains_key(name),
            "table {name:?} already exists"
        );
        let file = HeapFile::bulk_load(&mut self.pool, record_size, 0, Layout::Clustered)
            .expect("storage fault during table creation");
        let mut spatial = HashMap::new();
        for c in schema.columns() {
            if c.ty == crate::value::ValueType::Spatial {
                let column =
                    StoredRelation::build(&mut self.pool, &[], record_size, Layout::Clustered);
                spatial.insert(
                    c.name.clone(),
                    SpatialColumn {
                        column,
                        index: None,
                        index_layout: Layout::Clustered,
                        index_fanout: 10,
                    },
                );
            }
        }
        self.tables.insert(
            name.to_string(),
            Table {
                schema,
                record_size,
                file,
                live: BTreeMap::new(),
                next_id: 0,
                mutation_seq: 0,
                spatial,
            },
        );
    }

    fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no table named {name:?}"))
    }

    fn table_mut(&mut self, name: &str) -> &mut Table {
        self.tables
            .get_mut(name)
            .unwrap_or_else(|| panic!("no table named {name:?}"))
    }

    /// The schema of a table.
    pub fn schema(&self, table: &str) -> &Schema {
        &self.table(table).schema
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> usize {
        self.table(table).row_count()
    }

    /// Inserts a row, returning its rowid. Spatial column files are
    /// extended; R-tree and join indices become stale and are rebuilt
    /// lazily on the next spatial query that uses them.
    pub fn insert(&mut self, table: &str, row: Tuple) -> u64 {
        let rowid = self.table(table).next_id;
        let outcomes = self.apply(
            table,
            &[Mutation::Insert {
                id: rowid,
                value: row,
            }],
        );
        assert_eq!(
            outcomes,
            vec![MutationOutcome::Inserted],
            "insert of a fresh rowid cannot be rejected"
        );
        rowid
    }

    /// Applies a batch of typed mutations to a table, returning one
    /// outcome per operation in order. Rejected operations (duplicate
    /// insert ids, deletes of absent rowids, oversized tuples) report a
    /// typed outcome and leave the table untouched; applied operations
    /// keep every spatial column file in sync and advance the mutation
    /// sequence so R-tree and join indices rebuild lazily on the next
    /// query that uses them.
    pub fn apply(&mut self, table: &str, ops: &[Mutation<Tuple>]) -> Vec<MutationOutcome> {
        let pool = &mut self.pool;
        let t = self
            .tables
            .get_mut(table)
            .unwrap_or_else(|| panic!("no table named {table:?}"));
        let mut outcomes = Vec::with_capacity(ops.len());
        for op in ops {
            let outcome = match op {
                Mutation::Insert { id, value } => {
                    if t.live.contains_key(id) {
                        MutationOutcome::DuplicateId
                    } else {
                        Table::apply_write(pool, t, *id, value, false)
                    }
                }
                Mutation::Delete { id } => {
                    if t.live.remove(id).is_none() {
                        MutationOutcome::MissingId
                    } else {
                        for sc in t.spatial.values_mut() {
                            sc.column
                                .try_delete(pool, *id)
                                .expect("storage fault during delete");
                        }
                        t.mutation_seq += 1;
                        MutationOutcome::Deleted
                    }
                }
                Mutation::Upsert { id, value } => {
                    let replaced = t.live.contains_key(id);
                    match Table::apply_write(pool, t, *id, value, replaced) {
                        MutationOutcome::Inserted => MutationOutcome::Upserted { replaced },
                        other => other,
                    }
                }
            };
            if outcome.applied() {
                t.next_id = t.next_id.max(op.id() + 1);
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Reads one live row by rowid.
    pub fn get(&mut self, table: &str, rowid: u64) -> Tuple {
        let t = self
            .tables
            .get(table)
            .unwrap_or_else(|| panic!("no table named {table:?}"));
        let &slot = t
            .live
            .get(&rowid)
            .unwrap_or_else(|| panic!("rowid {rowid} out of range"));
        let bytes = self
            .pool
            .try_read_record(&t.file, t.file.rid(slot))
            .expect("storage fault during row read");
        decode_tuple(bytes, &t.schema)
    }

    /// Full scan of a table's live rows, in rowid order. Deleted rows
    /// and superseded upsert slots are invisible.
    pub fn scan(&mut self, table: &str) -> Vec<(u64, Tuple)> {
        let t = self
            .tables
            .get(table)
            .unwrap_or_else(|| panic!("no table named {table:?}"));
        t.live
            .iter()
            .map(|(&id, &slot)| {
                let bytes = self
                    .pool
                    .try_read_record(&t.file, t.file.rid(slot))
                    .expect("storage fault during table scan");
                (id, decode_tuple(bytes, &t.schema))
            })
            .collect()
    }

    /// Scalar selection: all rows satisfying `pred`.
    pub fn select(&mut self, table: &str, pred: impl Fn(&Tuple) -> bool) -> Vec<(u64, Tuple)> {
        self.scan(table)
            .into_iter()
            .filter(|(_, row)| pred(row))
            .collect()
    }

    /// Projection of rows onto the named columns (the relational π; the
    /// paper applies it after joins to strip redundant columns).
    pub fn project(schema: &Schema, rows: &[Tuple], columns: &[&str]) -> (Schema, Vec<Tuple>) {
        let idxs: Vec<usize> = columns.iter().map(|c| schema.expect_column(c)).collect();
        let out_schema = schema.project(columns);
        let out_rows = rows
            .iter()
            .map(|r| idxs.iter().map(|&i| r[i].clone()).collect())
            .collect();
        (out_schema, out_rows)
    }

    /// Declares (and builds) an R-tree index on a spatial column with the
    /// given generalization-tree fan-out and storage layout — the choice
    /// between the paper's strategies IIa (`Unclustered`) and IIb
    /// (`Clustered`).
    pub fn create_spatial_index(
        &mut self,
        table: &str,
        column: &str,
        fanout: usize,
        layout: Layout,
    ) {
        {
            let t = self.table_mut(table);
            let sc = t
                .spatial
                .get_mut(column)
                .unwrap_or_else(|| panic!("no spatial column {column:?} on {table:?}"));
            sc.index_fanout = fanout;
            sc.index_layout = layout;
            sc.index = None;
        }
        self.ensure_index(table, column);
    }

    /// Rebuilds the R-tree for `table.column` if missing or stale.
    pub(crate) fn ensure_index(&mut self, table: &str, column: &str) {
        let needs = {
            let t = self.table(table);
            let sc = t
                .spatial
                .get(column)
                .unwrap_or_else(|| panic!("no spatial column {column:?} on {table:?}"));
            match &sc.index {
                Some((_, built_at)) => *built_at != t.mutation_seq,
                None => true,
            }
        };
        if !needs {
            return;
        }
        let pool = &mut self.pool;
        let t = self.tables.get_mut(table).expect("checked above");
        let record_size = t.record_size;
        let sc = t.spatial.get_mut(column).expect("checked above");
        let entries = sc
            .column
            .try_scan(pool)
            .expect("storage fault during index build");
        let rt = RTree::bulk_load(RTreeConfig::with_fanout(sc.index_fanout), entries);
        let tree_rel = TreeRelation::new(pool, rt.tree().clone(), record_size, sc.index_layout);
        sc.index = Some((tree_rel, t.mutation_seq));
    }

    /// A join's sides and both tables' mutation sequences: what a join
    /// index is tagged with.
    fn join_tags(&self, (r_table, r_col): Side, (s_table, s_col): Side) -> (String, (u64, u64)) {
        let seq = |t| self.table(t).mutation_seq;
        let sides = format!("{r_table}.{r_col} ⋈ {s_table}.{s_col}");
        (sides, (seq(r_table), seq(s_table)))
    }

    /// Precomputes a named join index for
    /// `r_table.r_col θ s_table.s_col` (strategy III). The build cost — a
    /// full nested-loop pass — is charged to the I/O and returned
    /// θ-evaluation counters. The index answers only for these sides and
    /// θ, and is rebuilt on first use after either table changes.
    pub fn create_join_index(
        &mut self,
        name: &str,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
    ) -> u64 {
        assert!(
            !self.join_indices.contains_key(name),
            "join index {name:?} already exists"
        );
        let (sides, built_at) = self.join_tags((r_table, r_col), (s_table, s_col));
        let pool = &mut self.pool;
        let r = &self.tables[r_table].spatial[r_col].column;
        let s = &self.tables[s_table].spatial[s_col].column;
        let (index, stats) = JoinIndex::try_build(pool, r, s, theta, 100)
            .expect("storage fault during join index build");
        let named = NamedJoinIndex {
            index,
            sides,
            theta,
            built_at,
        };
        self.join_indices.insert(name.to_string(), named);
        stats.theta_evals
    }

    /// Checks that the named join index answers `r ⋈_θ s`, and rebuilds
    /// it if either table moved since it was built.
    pub(crate) fn ensure_join_index(&mut self, name: &str, r: Side, s: Side, theta: ThetaOp) {
        let named = self.join_indices.get(name);
        let named = named.unwrap_or_else(|| panic!("no join index named {name:?}"));
        if !named.is_current(name, self.join_tags(r, s), theta) {
            self.join_indices.remove(name);
            self.create_join_index(name, r.0, r.1, s.0, s.1, theta);
        }
    }

    /// Precomputes a named **local** join index (the paper's §5 mixed
    /// strategy) anchored at tree level `level`, over the R-tree indices
    /// of both spatial columns (built on demand). Returns the number of
    /// θ-evaluations spent — compare with the `N²` of a global index. Like
    /// a global one, it answers only for its sides and θ and is rebuilt
    /// on first use after either table changes.
    #[allow(clippy::too_many_arguments)] // mirrors the query surface: two (table, column) pairs + θ + level
    pub fn create_local_join_index(
        &mut self,
        name: &str,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
        level: usize,
    ) -> u64 {
        assert!(
            !self.local_join_indices.contains_key(name),
            "local join index {name:?} already exists"
        );
        self.ensure_index(r_table, r_col);
        self.ensure_index(s_table, s_col);
        let (sides, built_at) = self.join_tags((r_table, r_col), (s_table, s_col));
        let pool = &mut self.pool;
        let (r_tree, _) = self.tables[r_table].spatial[r_col]
            .index
            .as_ref()
            .expect("built above");
        let (s_tree, _) = self.tables[s_table].spatial[s_col]
            .index
            .as_ref()
            .expect("built above");
        let (index, stats) = LocalJoinIndex::try_build(pool, r_tree, s_tree, theta, level, 100)
            .expect("storage fault during local join index build");
        let named = NamedJoinIndex {
            index,
            sides,
            theta,
            built_at,
        };
        self.local_join_indices
            .insert(name.to_string(), (named, level));
        stats.theta_evals
    }

    /// [`Database::ensure_join_index`] for a named local join index.
    pub(crate) fn ensure_local_join_index(&mut self, name: &str, r: Side, s: Side, theta: ThetaOp) {
        let named = self.local_join_indices.get(name);
        let (named, level) = named.unwrap_or_else(|| panic!("no local join index named {name:?}"));
        if !named.is_current(name, self.join_tags(r, s), theta) {
            let level = *level;
            self.local_join_indices.remove(name);
            self.create_local_join_index(name, r.0, r.1, s.0, s.1, theta, level);
        }
    }

    /// The geometry of `table.column` for a given rowid (reads through the
    /// column file).
    pub fn geometry(&mut self, table: &str, column: &str, rowid: u64) -> Geometry {
        let t = self
            .tables
            .get(table)
            .unwrap_or_else(|| panic!("no table named {table:?}"));
        let sc = t
            .spatial
            .get(column)
            .unwrap_or_else(|| panic!("no spatial column {column:?} on {table:?}"));
        let read = sc.column.try_read_by_id(&mut self.pool, rowid);
        read.expect("storage fault during geometry read").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{Value, ValueType};
    use sj_geom::Point;

    fn db_with_points(n: usize) -> Database {
        let mut db = Database::in_memory();
        db.create_table(
            "pts",
            Schema::new(vec![
                Column::new("id", ValueType::Int),
                Column::new("loc", ValueType::Spatial),
            ]),
            300,
        );
        for i in 0..n {
            db.insert(
                "pts",
                vec![
                    Value::Int(i as i64),
                    Value::Spatial(Geometry::Point(Point::new(i as f64, 0.0))),
                ],
            );
        }
        db
    }

    #[test]
    fn insert_get_scan() {
        let mut db = db_with_points(10);
        assert_eq!(db.row_count("pts"), 10);
        let row = db.get("pts", 7);
        assert_eq!(row[0], Value::Int(7));
        let all = db.scan("pts");
        assert_eq!(all.len(), 10);
        assert_eq!(all[3].0, 3);
    }

    #[test]
    fn select_and_project() {
        let mut db = db_with_points(10);
        let rows = db.select("pts", |r| r[0].as_int().unwrap() % 2 == 0);
        assert_eq!(rows.len(), 5);
        let tuples: Vec<Tuple> = rows.into_iter().map(|(_, t)| t).collect();
        let schema = db.schema("pts").clone();
        let (ps, prows) = Database::project(&schema, &tuples, &["id"]);
        assert_eq!(ps.arity(), 1);
        assert_eq!(prows[0], vec![Value::Int(0)]);
    }

    #[test]
    fn stale_index_is_rebuilt() {
        let mut db = db_with_points(20);
        db.create_spatial_index("pts", "loc", 4, Layout::Clustered);
        // Insert after building → stale.
        db.insert(
            "pts",
            vec![
                Value::Int(999),
                Value::Spatial(Geometry::Point(Point::new(100.0, 100.0))),
            ],
        );
        db.ensure_index("pts", "loc");
        let t = &db.tables["pts"];
        let (tree_rel, built_at) = t.spatial["loc"].index.as_ref().unwrap();
        assert_eq!(*built_at, 21);
        assert_eq!(tree_rel.tree.entry_nodes().len(), 21);
    }

    #[test]
    fn typed_mutations_report_outcomes_and_update_the_live_set() {
        let mut db = db_with_points(4);
        let row = |v: i64, x: f64| {
            vec![
                Value::Int(v),
                Value::Spatial(Geometry::Point(Point::new(x, 0.0))),
            ]
        };
        let outcomes = db.apply(
            "pts",
            &[
                Mutation::Insert {
                    id: 2,
                    value: row(2, 9.0),
                }, // duplicate rowid
                Mutation::Delete { id: 99 }, // absent rowid
                Mutation::Delete { id: 1 },  // applies
                Mutation::Upsert {
                    id: 3,
                    value: row(33, 30.0),
                }, // replaces
                Mutation::Upsert {
                    id: 7,
                    value: row(7, 70.0),
                }, // fresh insert
            ],
        );
        assert_eq!(
            outcomes,
            vec![
                MutationOutcome::DuplicateId,
                MutationOutcome::MissingId,
                MutationOutcome::Deleted,
                MutationOutcome::Upserted { replaced: true },
                MutationOutcome::Upserted { replaced: false },
            ]
        );
        assert_eq!(db.row_count("pts"), 4); // 4 - 1 deleted + 1 upsert-insert
        let rows = db.scan("pts");
        assert_eq!(
            rows.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 2, 3, 7],
            "deleted rowid 1 is invisible; rewrites keep their rowid"
        );
        assert_eq!(db.get("pts", 3)[0], Value::Int(33), "upsert replaced row 3");
        assert_eq!(
            db.geometry("pts", "loc", 3),
            Geometry::Point(Point::new(30.0, 0.0)),
            "the spatial column tracks the rewrite"
        );
        // The next plain insert must not collide with rowid 7.
        let rid = db.insert("pts", row(8, 80.0));
        assert_eq!(rid, 8);
    }

    #[test]
    fn deletes_make_the_spatial_index_stale() {
        let mut db = db_with_points(12);
        db.create_spatial_index("pts", "loc", 4, Layout::Clustered);
        let outcomes = db.apply("pts", &[Mutation::Delete { id: 5 }]);
        assert_eq!(outcomes, vec![MutationOutcome::Deleted]);
        db.ensure_index("pts", "loc");
        let (tree_rel, _) = db.tables["pts"].spatial["loc"].index.as_ref().unwrap();
        assert_eq!(
            tree_rel.tree.entry_nodes().len(),
            11,
            "a delete-only batch must still trigger the rebuild"
        );
    }

    #[test]
    fn oversized_tuples_are_rejected_not_panicked() {
        let mut db = db_with_points(2);
        db.create_table(
            "tiny",
            Schema::new(vec![Column::new("s", ValueType::Str)]),
            8,
        );
        let outcomes = db.apply(
            "tiny",
            &[Mutation::Insert {
                id: 0,
                value: vec![Value::Str("this string cannot fit".into())],
            }],
        );
        assert_eq!(outcomes, vec![MutationOutcome::TooLarge]);
        assert_eq!(db.row_count("tiny"), 0);
    }

    #[test]
    #[should_panic(expected = "no table named")]
    fn missing_table_panics() {
        let mut db = Database::in_memory();
        db.scan("nope");
    }

    #[test]
    fn io_counters_move() {
        let mut db = db_with_points(50);
        db.drop_caches();
        db.reset_io();
        let _ = db.scan("pts");
        assert!(db.io_stats().physical_reads > 0);
    }

    #[test]
    fn geometry_accessor() {
        let mut db = db_with_points(3);
        assert_eq!(
            db.geometry("pts", "loc", 2),
            Geometry::Point(Point::new(2.0, 0.0))
        );
    }
}
