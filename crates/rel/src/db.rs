//! The database: disk-backed tables with spatial secondary structures.

use std::collections::BTreeMap;
use std::sync::Arc;

use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_gentree::FlatChildren;
use sj_geom::{codec, Geometry, ThetaOp};
use sj_joins::{ClusterOrder, CodecMode, JoinIndex, PagedTree, TreeRelation};
use sj_joins::{JoinRun, Mutation, MutationOutcome, StoredRelation, TraceSink};
use sj_storage::StorageError;
use sj_storage::{BufferPool, Disk, DiskConfig, FaultInjector, HeapFile, IoStats, Layout};

use crate::error::{DbError, Result};
use crate::schema::Schema;
use crate::tuple::{decode_tuple, encode_tuple, encoded_tuple_len, Tuple};
use crate::value::{Value, ValueType};

/// A stored table: the row file plus, per spatial column, a column file
/// (the `(rowid, geometry)` projection used by the join executors) and an
/// optional R-tree generalization tree.
pub(crate) struct Table {
    pub(crate) schema: Schema,
    pub(crate) record_size: usize,
    pub(crate) file: HeapFile,
    /// Live rowid → physical heap slot. Deletes drop the entry; upserts
    /// of an existing rowid redirect it to a freshly appended slot, so a
    /// rowid survives any number of rewrites.
    pub(crate) live: BTreeMap<u64, usize>,
    /// Next rowid handed out by [`Database::insert`]; never reused.
    pub(crate) next_id: u64,
    /// Bumped once per applied mutation: the staleness tag of R-trees and
    /// join indices (a delete moves the live set, not always the count).
    pub(crate) mutation_seq: u64,
    /// One per spatial column, in schema order.
    pub(crate) spatial: Vec<SpatialColumn>,
}

/// Secondary structures of one spatial column.
pub(crate) struct SpatialColumn {
    pub(crate) name: String,
    /// `(rowid, geometry)` projection, stored as its own file.
    pub(crate) column: StoredRelation,
    /// R-tree index, tagged with the table's mutation sequence when built.
    index: Option<(TreeRelation, u64)>,
    /// Layout and fan-out requested for the index.
    pub(crate) index_layout: Layout,
    pub(crate) index_fanout: usize,
}

impl SpatialColumn {
    pub(crate) fn new(name: String, column: StoredRelation) -> Self {
        SpatialColumn {
            name,
            column,
            index: None,
            index_layout: Layout::Clustered,
            index_fanout: 10,
        }
    }

    /// The R-tree [`Database::ensure_index`] built.
    pub(crate) fn tree(&self) -> &TreeRelation {
        let built = self.index.as_ref().map(|(tree, _)| tree);
        built.expect("ensure_index runs first") // PANIC-OK: every caller ensures the index
    }
}

/// One side of a join: `(table, spatial column)`.
pub(crate) type Side<'a> = (&'a str, &'a str);

/// The catalog, by table name (ordered, so a saved catalog is too).
pub(crate) type Tables = BTreeMap<String, Table>;

/// A table by name.
pub(crate) fn table<'a>(tables: &'a Tables, name: &str) -> Result<&'a Table> {
    let found = tables.get(name);
    found.ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

pub(crate) fn table_mut<'a>(tables: &'a mut Tables, name: &str) -> Result<&'a mut Table> {
    let found = tables.get_mut(name);
    found.ok_or_else(|| DbError::UnknownTable(name.to_string()))
}

/// Both sides' spatial columns.
pub(crate) fn sides<'a>(tables: &'a Tables, r: Side, s: Side) -> Result<[&'a SpatialColumn; 2]> {
    Ok([column(tables, r)?, column(tables, s)?])
}

/// A spatial column by `(table, column)`.
pub(crate) fn column<'a>(tables: &'a Tables, (name, col): Side) -> Result<&'a SpatialColumn> {
    let t = table(tables, name)?;
    let found = t.spatial.iter().find(|sc| sc.name == col);
    found.ok_or_else(|| t.no_spatial((name, col)))
}

impl Table {
    fn spatial_mut(&mut self, side: Side) -> Result<&mut SpatialColumn> {
        match self.spatial.iter().position(|sc| sc.name == side.1) {
            Some(i) => Ok(&mut self.spatial[i]),
            None => Err(self.no_spatial(side)),
        }
    }

    /// Why `side` names no spatial column of this table.
    fn no_spatial(&self, (name, col): Side) -> DbError {
        match self.schema.index_of(col) {
            Some(_) => DbError::SchemaMismatch(format!("{name}.{col} is not a spatial column")),
            None => DbError::UnknownColumn(format!("{name}.{col}")),
        }
    }

    /// Reads a row back from the table's own pages: its geometry frames
    /// were written from validated values and carry a checksum, so they
    /// skip the ring check (`Database::open` runs it on bytes from outside).
    pub(crate) fn read_row(&self, pool: &mut BufferPool, slot: usize) -> Result<Tuple> {
        let bytes = pool.try_read_record(&self.file, self.file.rid(slot));
        let bytes = bytes.map_err(DbError::during("row read"))?;
        decode_tuple(bytes, &self.schema, codec::try_decode_record)
    }

    /// Builds `side`'s R-tree if it is missing or older than the table.
    fn ensure_index(&mut self, pool: &mut BufferPool, side: Side) -> Result<()> {
        let (seq, record_size) = (self.mutation_seq, self.record_size);
        let sc = self.spatial_mut(side)?;
        if matches!(sc.index, Some((_, built_at)) if built_at == seq) {
            return Ok(());
        }
        let during = DbError::during("R-tree build");
        let entries = sc.column.try_scan(pool).map_err(&during)?;
        let rtree = RTree::bulk_load(RTreeConfig::with_fanout(sc.index_fanout), entries);
        let tree = Arc::clone(rtree.shared_tree());
        let (bfs, exact) = (ClusterOrder::BreadthFirst, CodecMode::Exact);
        let paged = PagedTree::try_build(pool, &tree, record_size, sc.index_layout, bfs, exact);
        let paged = paged.map_err(during)?;
        let flat = FlatChildren::build(&tree);
        sc.index = Some((TreeRelation { tree, paged, flat }, seq));
        Ok(())
    }

    /// Applies a batch. An operation's writes all run before `live` and
    /// `mutation_seq` move; `landed` reports whether any write landed.
    fn apply(
        &mut self,
        pool: &mut BufferPool,
        ops: &[Mutation<Tuple>],
        landed: &mut bool,
    ) -> Result<Vec<MutationOutcome>> {
        for op in ops {
            if let Mutation::Insert { value, .. } | Mutation::Upsert { value, .. } = op {
                self.schema.check_row(value)?;
            }
        }
        let mut outcomes = Vec::with_capacity(ops.len());
        for op in ops {
            let (id, live) = (op.id(), self.live.contains_key(&op.id()));
            let outcome = match op {
                Mutation::Insert { .. } if live => MutationOutcome::DuplicateId,
                Mutation::Delete { .. } if !live => MutationOutcome::MissingId,
                Mutation::Insert { value, .. } => self.write_row(pool, id, value, false, landed)?,
                Mutation::Upsert { value, .. } => {
                    match self.write_row(pool, id, value, live, landed)? {
                        MutationOutcome::Inserted => MutationOutcome::Upserted { replaced: live },
                        other => other,
                    }
                }
                Mutation::Delete { .. } => {
                    for sc in &mut self.spatial {
                        write(landed, sc.column.try_delete(pool, id))?;
                    }
                    self.live.remove(&id);
                    self.mutation_seq += 1;
                    MutationOutcome::Deleted
                }
            };
            if outcome.applied() {
                self.next_id = self.next_id.max(id + 1);
            }
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Insert/upsert: appends the record and syncs every spatial column
    /// file, then redirects the rowid to the fresh slot.
    fn write_row(
        &mut self,
        pool: &mut BufferPool,
        id: u64,
        row: &Tuple,
        replace: bool,
        landed: &mut bool,
    ) -> Result<MutationOutcome> {
        if encoded_tuple_len(row) > self.record_size {
            return Ok(MutationOutcome::TooLarge);
        }
        let record = encode_tuple(row, self.record_size);
        let slot = write(landed, self.file.try_append(pool, record))?;
        // `check_row` put a geometry in each spatial column, in schema order.
        let geometries = row.iter().filter_map(Value::as_spatial);
        for (sc, g) in self.spatial.iter_mut().zip(geometries) {
            let written = match replace {
                true => sc.column.try_replace(pool, id, g),
                false => sc.column.try_insert(pool, id, g),
            };
            write(landed, written)?;
        }
        self.live.insert(id, slot);
        self.mutation_seq += 1;
        Ok(MutationOutcome::Inserted)
    }
}

/// One write of `apply`: once one lands, a later fault disagrees with it.
fn write<T>(landed: &mut bool, result: Result<T, StorageError>) -> Result<T> {
    let out = result.map_err(DbError::during("apply"))?;
    *landed = true;
    Ok(out)
}

/// Strategy III's precomputed index for one θ-join, and what it answers
/// for: its sides (`r.col ⋈ s.col`), θ, and both tables' mutation
/// sequences when it was built — the staleness tags, as for R-trees.
struct JoinIndexSlot {
    sides: [String; 4],
    theta: ThetaOp,
    built_at: (u64, u64),
    index: JoinIndex,
}

/// An in-process spatial database over the storage simulator.
pub struct Database {
    pub(crate) pool: BufferPool,
    pub(crate) tables: Tables,
    /// One join index per (sides, θ).
    join_indices: Vec<JoinIndexSlot>,
    /// Set when an `apply` faulted after part of its batch landed.
    poisoned: bool,
}

impl Database {
    /// Creates a database on a fresh simulated disk with `mem_pages`
    /// buffer-pool frames.
    pub fn new(config: DiskConfig, mem_pages: usize) -> Self {
        Database {
            pool: BufferPool::new(Disk::new(config), mem_pages),
            tables: BTreeMap::new(),
            join_indices: Vec::new(),
            poisoned: false,
        }
    }

    /// A database with the paper's disk geometry and a 256-page pool —
    /// convenient for examples and tests.
    pub fn in_memory() -> Self {
        Database::new(DiskConfig::paper(), 256)
    }

    /// [`DbError::Poisoned`] once a half-applied batch poisoned the database.
    pub(crate) fn usable(&self) -> Result<()> {
        (!self.poisoned).then_some(()).ok_or(DbError::Poisoned)
    }

    fn table(&self, name: &str) -> Result<&Table> {
        self.usable()?;
        table(&self.tables, name)
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

    /// Test hook: arms (or disarms) a fault injector on the database's
    /// disk. Every later physical read, write and allocation draws from
    /// it.
    #[doc(hidden)]
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.pool.set_fault_injector(injector);
    }

    /// Creates an empty table; a [`DbError::SchemaMismatch`] if the name
    /// is taken or a `record_size`-byte record does not fit a page.
    pub fn create_table(&mut self, name: &str, schema: Schema, record_size: usize) -> Result<()> {
        self.usable()?;
        if self.tables.contains_key(name) {
            let why = format!("table {name:?} already exists");
            return Err(DbError::SchemaMismatch(why));
        }
        // A tuple's u16 length prefix bounds what a record can hold.
        let page = self.pool.config().effective_capacity();
        if record_size == 0 || record_size > page.min(usize::from(u16::MAX)) {
            let why = format!("a {record_size}-byte record does not fit a page");
            return Err(DbError::SchemaMismatch(why));
        }
        let pool = &mut self.pool;
        let mut empty_file = || {
            let file = HeapFile::bulk_load(pool, record_size, 0, Layout::Clustered);
            file.map_err(DbError::during("table creation"))
        };
        let file = empty_file()?;
        let mut spatial = Vec::new();
        let spatial_columns = schema
            .columns()
            .iter()
            .filter(|c| c.ty == ValueType::Spatial);
        for c in spatial_columns {
            let column = StoredRelation::from_parts(empty_file()?, Vec::new(), Vec::new());
            spatial.push(SpatialColumn::new(c.name.clone(), column));
        }
        let table = Table {
            schema,
            record_size,
            file,
            live: BTreeMap::new(),
            next_id: 0,
            mutation_seq: 0,
            spatial,
        };
        self.tables.insert(name.to_string(), table);
        Ok(())
    }

    /// The schema of a table.
    pub fn schema(&self, table: &str) -> Result<&Schema> {
        Ok(&self.table(table)?.schema)
    }

    /// Number of rows in a table.
    pub fn row_count(&self, table: &str) -> Result<usize> {
        Ok(self.table(table)?.live.len())
    }

    /// Inserts a row, returning its rowid. Spatial column files are
    /// extended; R-tree and join indices become stale and are rebuilt
    /// lazily on the next spatial query that uses them.
    pub fn insert(&mut self, table: &str, row: Tuple) -> Result<u64> {
        let id = self.table(table)?.next_id;
        match self.apply(table, &[Mutation::Insert { id, value: row }])?[..] {
            [MutationOutcome::Inserted] => Ok(id),
            _ => {
                let why = format!("the row does not fit {table:?}'s record size");
                Err(DbError::SchemaMismatch(why))
            }
        }
    }

    /// Applies a batch of typed mutations to a table, returning one
    /// outcome per operation in order. Rejected operations (duplicate
    /// insert ids, deletes of absent rowids, oversized tuples) report a
    /// typed outcome and leave the table untouched; applied operations
    /// keep every spatial column file in sync and advance the mutation
    /// sequence so R-tree and join indices rebuild lazily on next use.
    /// A row that does not fit the schema fails the batch before any
    /// write. A storage fault fails it too, and poisons the database if
    /// an earlier write of the batch had landed: every later call then
    /// returns [`DbError::Poisoned`].
    pub fn apply(&mut self, table: &str, ops: &[Mutation<Tuple>]) -> Result<Vec<MutationOutcome>> {
        self.usable()?;
        let t = table_mut(&mut self.tables, table)?;
        let mut landed = false;
        let result = t.apply(&mut self.pool, ops, &mut landed);
        self.poisoned = result.is_err() && landed;
        result
    }

    /// Reads one row by rowid: `None` if it is not live.
    pub fn get(&mut self, table: &str, rowid: u64) -> Result<Option<Tuple>> {
        self.usable()?;
        let t = self::table(&self.tables, table)?;
        let slot = t.live.get(&rowid);
        slot.map(|&slot| t.read_row(&mut self.pool, slot))
            .transpose()
    }

    /// A row the join or select executors returned: live by construction.
    pub(crate) fn row(&mut self, table: &str, rowid: u64) -> Result<Tuple> {
        let row = self.get(table, rowid)?;
        row.ok_or_else(|| DbError::Corrupt(format!("rowid {rowid} of {table:?} is not live")))
    }

    /// Full scan of a table's live rows, in rowid order. Deleted rows
    /// and superseded upsert slots are invisible.
    pub fn scan(&mut self, table: &str) -> Result<Vec<(u64, Tuple)>> {
        self.usable()?;
        let t = self::table(&self.tables, table)?;
        let rows = t.live.iter();
        rows.map(|(&id, &slot)| Ok((id, t.read_row(&mut self.pool, slot)?)))
            .collect()
    }

    /// Scalar selection: all rows satisfying `pred`.
    pub fn select(
        &mut self,
        table: &str,
        pred: impl Fn(&Tuple) -> bool,
    ) -> Result<Vec<(u64, Tuple)>> {
        let rows = self.scan(table)?.into_iter();
        Ok(rows.filter(|(_, row)| pred(row)).collect())
    }

    /// Projection of rows onto the named columns (the relational π; the
    /// paper applies it after joins to strip redundant columns).
    pub fn project(schema: &Schema, rows: &[Tuple], cols: &[&str]) -> Result<(Schema, Vec<Tuple>)> {
        let out_schema = schema.project(cols)?;
        let idxs = cols
            .iter()
            .map(|c| schema.column(c))
            .collect::<Result<Vec<_>>>()?;
        let short = || DbError::SchemaMismatch("a row is shorter than its schema".into());
        let project = |r: &Tuple| {
            idxs.iter()
                .map(|&i| r.get(i).cloned())
                .collect::<Option<_>>()
        };
        let out_rows = rows.iter().map(|r| project(r).ok_or_else(short));
        Ok((out_schema, out_rows.collect::<Result<_>>()?))
    }

    /// Declares (and builds) an R-tree index on a spatial column with the
    /// given generalization-tree fan-out (at least 2) and storage layout
    /// — the choice between the paper's strategies IIa (`Unclustered`)
    /// and IIb (`Clustered`).
    pub fn create_spatial_index(
        &mut self,
        table: &str,
        column: &str,
        fanout: usize,
        layout: Layout,
    ) -> Result<()> {
        if fanout < 2 {
            let why = format!("an R-tree needs a fan-out of at least 2, not {fanout}");
            return Err(DbError::SchemaMismatch(why));
        }
        self.usable()?;
        let sc = table_mut(&mut self.tables, table)?.spatial_mut((table, column))?;
        (sc.index_fanout, sc.index_layout, sc.index) = (fanout, layout, None);
        self.ensure_index((table, column))
    }

    /// Rebuilds the R-tree for `table.column` if missing or stale.
    pub(crate) fn ensure_index(&mut self, side: Side) -> Result<()> {
        self.usable()?;
        table_mut(&mut self.tables, side.0)?.ensure_index(&mut self.pool, side)
    }

    /// Precomputes strategy III's join index for
    /// `r_table.r_col θ s_table.s_col`, charging the build — one
    /// partition join over the two columns — to the I/O counters. The
    /// index answers only for these sides and θ, and is rebuilt on first
    /// use after either table changes. Without this call the first
    /// [`Strategy::JoinIndex`](sj_joins::Strategy::JoinIndex) query
    /// builds it.
    pub fn create_join_index(
        &mut self,
        r_table: &str,
        r_col: &str,
        s_table: &str,
        s_col: &str,
        theta: ThetaOp,
    ) -> Result<()> {
        self.join_index((r_table, r_col), (s_table, s_col), theta)?;
        Ok(())
    }

    /// The slot of the join index answering `r ⋈_θ s`, built if it is
    /// missing or either table moved since it was built.
    fn join_index(&mut self, r: Side, s: Side, theta: ThetaOp) -> Result<usize> {
        self.usable()?;
        let [rc, sc] = sides(&self.tables, r, s)?;
        let seq = |name| table(&self.tables, name).map(|t| t.mutation_seq);
        let built_at = (seq(r.0)?, seq(s.0)?);
        let key = [r.0, r.1, s.0, s.1];
        let slots = &mut self.join_indices;
        let same = |j: &JoinIndexSlot| j.sides == key && j.theta == theta;
        let at = slots.iter().position(same);
        if let Some(i) = at.filter(|&i| slots[i].built_at == built_at) {
            return Ok(i);
        }
        let build = JoinIndex::try_build(&mut self.pool, &rc.column, &sc.column, theta, 100);
        let (index, _) = build.map_err(DbError::during("join-index build"))?;
        let slot = JoinIndexSlot {
            sides: key.map(String::from),
            theta,
            built_at,
            index,
        };
        match at {
            Some(i) => slots[i] = slot,
            None => slots.push(slot),
        }
        Ok(at.unwrap_or(slots.len() - 1))
    }

    /// Strategy III: answers `r ⋈_θ s` from its join index.
    pub(crate) fn index_join(&mut self, r: Side, s: Side, theta: ThetaOp) -> Result<JoinRun> {
        let i = self.join_index(r, s, theta)?;
        let [rc, sc] = sides(&self.tables, r, s)?;
        let index = &self.join_indices[i].index;
        let run = index.join(&mut self.pool, &rc.column, &sc.column, &mut TraceSink::Null);
        run.map_err(DbError::during("join"))
    }

    /// The geometry of `table.column` for a rowid, read through the
    /// column file: `None` if the row is not live.
    pub fn geometry(&mut self, table: &str, column: &str, rowid: u64) -> Result<Option<Geometry>> {
        self.usable()?;
        let sc = self::column(&self.tables, (table, column))?;
        if !self::table(&self.tables, table)?.live.contains_key(&rowid) {
            return Ok(None);
        }
        let read = sc.column.try_read_by_id(&mut self.pool, rowid);
        Ok(Some(read.map_err(DbError::during("geometry read"))?.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use sj_geom::Point;
    use sj_joins::Strategy;
    use sj_storage::PageId;

    fn db_with_points(n: usize) -> Database {
        let mut db = Database::in_memory();
        db.create_table(
            "pts",
            Schema::new(vec![
                Column::new("id", ValueType::Int),
                Column::new("loc", ValueType::Spatial),
            ]),
            300,
        )
        .unwrap();
        for i in 0..n {
            db.insert(
                "pts",
                vec![
                    Value::Int(i as i64),
                    Value::Spatial(Geometry::Point(Point::new(i as f64, 0.0))),
                ],
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn insert_get_scan() {
        let mut db = db_with_points(10);
        assert_eq!(db.row_count("pts"), Ok(10));
        let row = db.get("pts", 7).unwrap().unwrap();
        assert_eq!(row[0], Value::Int(7));
        assert_eq!(db.get("pts", 70), Ok(None));
        let all = db.scan("pts").unwrap();
        assert_eq!(all.len(), 10);
        assert_eq!(all[3].0, 3);
    }

    #[test]
    fn select_and_project() {
        let mut db = db_with_points(10);
        let rows = db.select("pts", |r| r[0].as_int().unwrap() % 2 == 0);
        let rows = rows.unwrap();
        assert_eq!(rows.len(), 5);
        let tuples: Vec<Tuple> = rows.into_iter().map(|(_, t)| t).collect();
        let schema = db.schema("pts").unwrap().clone();
        let (ps, prows) = Database::project(&schema, &tuples, &["id"]).unwrap();
        assert_eq!(ps.arity(), 1);
        assert_eq!(prows[0], vec![Value::Int(0)]);
    }

    #[test]
    fn stale_index_is_rebuilt() {
        let mut db = db_with_points(20);
        db.create_spatial_index("pts", "loc", 4, Layout::Clustered)
            .unwrap();
        // Insert after building → stale.
        db.insert(
            "pts",
            vec![
                Value::Int(999),
                Value::Spatial(Geometry::Point(Point::new(100.0, 100.0))),
            ],
        )
        .unwrap();
        db.ensure_index(("pts", "loc")).unwrap();
        let t = &db.tables["pts"];
        let (tree_rel, built_at) = t.spatial[0].index.as_ref().unwrap();
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
        let outcomes = db
            .apply(
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
            )
            .unwrap();
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
        assert_eq!(db.row_count("pts"), Ok(4)); // 4 - 1 deleted + 1 upsert-insert
        let rows = db.scan("pts").unwrap();
        assert_eq!(
            rows.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![0, 2, 3, 7],
            "deleted rowid 1 is invisible; rewrites keep their rowid"
        );
        let row3 = db.get("pts", 3).unwrap().unwrap();
        assert_eq!(row3[0], Value::Int(33), "upsert replaced row 3");
        assert_eq!(
            db.geometry("pts", "loc", 3),
            Ok(Some(Geometry::Point(Point::new(30.0, 0.0)))),
            "the spatial column tracks the rewrite"
        );
        // The next plain insert must not collide with rowid 7.
        let rid = db.insert("pts", row(8, 80.0));
        assert_eq!(rid, Ok(8));
    }

    #[test]
    fn deletes_make_the_spatial_index_stale() {
        let mut db = db_with_points(12);
        db.create_spatial_index("pts", "loc", 4, Layout::Clustered)
            .unwrap();
        let outcomes = db.apply("pts", &[Mutation::Delete { id: 5 }]);
        assert_eq!(outcomes, Ok(vec![MutationOutcome::Deleted]));
        db.ensure_index(("pts", "loc")).unwrap();
        let tree_rel = db.tables["pts"].spatial[0].tree();
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
        )
        .unwrap();
        let outcomes = db.apply(
            "tiny",
            &[Mutation::Insert {
                id: 0,
                value: vec![Value::Str("this string cannot fit".into())],
            }],
        );
        assert_eq!(outcomes, Ok(vec![MutationOutcome::TooLarge]));
        assert_eq!(db.row_count("tiny"), Ok(0));
    }

    #[test]
    fn missing_table_is_a_typed_error() {
        let mut db = db_with_points(3);
        let unknown = Err(DbError::UnknownTable("nope".into()));
        assert_eq!(db.scan("nope"), unknown);
        assert_eq!(
            db.row_count("nope").map(|_| ()),
            unknown.clone().map(|_| ())
        );
        let join = db.spatial_join_ids(
            "pts",
            "loc",
            "nope",
            "loc",
            ThetaOp::Overlaps,
            Strategy::Sweep,
        );
        assert_eq!(join, Err(DbError::UnknownTable("nope".into())));
        let column = Err(DbError::UnknownColumn("pts.nope".into()));
        assert_eq!(db.geometry("pts", "nope", 0), column);
        let scalar = db.create_spatial_index("pts", "id", 4, Layout::Clustered);
        assert!(
            matches!(scalar, Err(DbError::SchemaMismatch(_))),
            "{scalar:?}"
        );
        let wrong = db.insert("pts", vec![Value::Int(1)]);
        assert!(
            matches!(wrong, Err(DbError::SchemaMismatch(_))),
            "{wrong:?}"
        );
        assert_eq!(
            db.row_count("pts"),
            Ok(3),
            "a rejected call changes nothing"
        );
    }

    #[test]
    fn io_counters_move() {
        let mut db = db_with_points(50);
        db.drop_caches();
        db.reset_io();
        db.scan("pts").unwrap();
        assert!(db.io_stats().physical_reads > 0);
    }

    #[test]
    fn geometry_accessor() {
        let mut db = db_with_points(3);
        assert_eq!(
            db.geometry("pts", "loc", 2),
            Ok(Some(Geometry::Point(Point::new(2.0, 0.0))))
        );
        assert_eq!(db.geometry("pts", "loc", 9), Ok(None));
    }

    /// Rows read from the table's own pages skip the ring check, not the
    /// checksum: a bit flipped in a stored polygon's coordinates makes
    /// every read of that row `DbError::Corrupt`, never a different shape.
    #[test]
    fn a_bit_flipped_row_is_corrupt() {
        use sj_geom::{Polygon, Rect};
        let mut db = Database::in_memory();
        let schema = Schema::new(vec![Column::new("area", ValueType::Spatial)]);
        db.create_table("t", schema, 300).unwrap();
        let square = Polygon::from_rect(&Rect::from_bounds(0.0, 0.0, 4.0, 4.0)).unwrap();
        db.insert("t", vec![Value::Spatial(Geometry::Polygon(square))])
            .unwrap();
        assert!(db.get("t", 0).unwrap().is_some());
        let t = &db.tables["t"];
        let rid = t.file.rid(t.live[&0]);
        let mut record = db.pool.try_read_record(&t.file, rid).unwrap().to_vec();
        // Past the tuple's length prefix, value tag and frame length, and
        // the frame's 19-byte header: a low mantissa bit of a coordinate.
        record[5 + codec::HEADER_LEN] ^= 1;
        db.pool
            .try_update(rid.page, |page| page.update(rid.slot, record))
            .unwrap();
        assert!(matches!(db.get("t", 0), Err(DbError::Corrupt(_))));
        assert!(matches!(db.scan("t"), Err(DbError::Corrupt(_))));
    }

    fn two_columns_row(i: i64) -> Tuple {
        let at = |y: f64| Value::Spatial(Geometry::Point(Point::new(i as f64, y)));
        vec![Value::Int(i), at(0.0), at(1.0)]
    }

    /// Two spatial columns, so an insert or upsert writes three files and
    /// a delete two.
    fn two_columns_db() -> Database {
        let mut db = Database::in_memory();
        let schema = Schema::new(vec![
            Column::new("id", ValueType::Int),
            Column::new("a", ValueType::Spatial),
            Column::new("b", ValueType::Spatial),
        ]);
        db.create_table("t", schema, 300).unwrap();
        for i in 0..2 {
            db.insert("t", two_columns_row(i)).unwrap();
        }
        db
    }

    /// Everything a later call can read back: the rows, both columns'
    /// geometries, and each column's answer to a select of everything.
    fn observe(db: &mut Database) -> Result<Vec<String>, DbError> {
        let mut seen = vec![format!("{:?}", db.scan("t")?)];
        let everything = Geometry::Point(Point::new(0.0, 0.0));
        for col in ["a", "b"] {
            for id in 0..12 {
                seen.push(format!("{:?}", db.geometry("t", col, id)?));
            }
            let theta = ThetaOp::WithinDistance(100.0);
            let order = sj_joins::tree_join::TraversalOrder::BreadthFirst;
            let mut hits = db.spatial_select("t", col, &everything, theta, order)?;
            hits.sort_unstable_by_key(|(id, _)| *id);
            seen.push(format!("{hits:?}"));
        }
        Ok(seen)
    }

    /// Pages may be larger than a tuple's u16 length prefix can
    /// describe, but records may not: a table whose rows could overflow
    /// the prefix (and trip `encode_tuple`'s assert) is refused.
    #[test]
    fn a_record_past_the_length_prefix_is_refused() {
        let config = DiskConfig {
            page_size: 1 << 17,
            utilization: 1.0,
        };
        let mut db = Database::new(config, 4);
        let schema = || Schema::new(vec![Column::new("s", ValueType::Str)]);
        let refused = db.create_table("t", schema(), 1 << 16);
        assert!(matches!(refused, Err(DbError::SchemaMismatch(_))));
        db.create_table("t", schema(), usize::from(u16::MAX))
            .unwrap();
        let row = |n| vec![Value::Str("x".repeat(n))];
        let op = Mutation::Insert {
            id: 0,
            value: row(65_531),
        };
        assert_eq!(db.apply("t", &[op]), Ok(vec![MutationOutcome::TooLarge]));
        assert_eq!(db.insert("t", row(65_530)), Ok(0));
    }

    /// A write fault at each write of an insert, an upsert and a delete:
    /// a fault at the batch's first write leaves the table as it was,
    /// and one after an earlier write landed poisons the database. No
    /// later call returns rows that differ from the pre-batch model.
    #[test]
    fn a_write_fault_in_apply_never_exposes_a_half_applied_batch() {
        use sj_storage::{FaultConfig, FaultInjector};
        let ops = [
            Mutation::Insert {
                id: 9,
                value: two_columns_row(9),
            },
            Mutation::Upsert {
                id: 1,
                value: two_columns_row(11),
            },
            Mutation::Delete { id: 0 },
        ];
        for op in ops {
            let writes_rows = !matches!(op, Mutation::Delete { .. });
            for k in 0..2 + usize::from(writes_rows) {
                let mut db = two_columns_db();
                let model = observe(&mut db).unwrap();
                // The pages of the files the op writes, in write order.
                // Each file holds one page: `create_table` allocated the
                // row file's, then each column file's, in schema order.
                let t = &db.tables["t"];
                let row_page = t.file.rid(0).page;
                assert!(t.spatial.iter().all(|sc| sc.column.page_count() == 1));
                let mut files: Vec<_> = (1..=2).map(|c| PageId(row_page.0 + c)).collect();
                if writes_rows {
                    files.insert(0, row_page);
                }
                let pages = files[k..].iter().copied().collect();
                db.set_fault_injector(Some(FaultInjector::new(FaultConfig {
                    write_prob: 1.0,
                    target_pages: Some(pages),
                    budget: Some(1),
                    ..FaultConfig::default()
                })));
                let err = db.apply("t", std::slice::from_ref(&op)).unwrap_err();
                assert!(
                    matches!(
                        err,
                        DbError::Storage {
                            during: "apply",
                            ..
                        }
                    ),
                    "{err:?}"
                );
                db.set_fault_injector(None);
                if k == 0 {
                    assert_eq!(observe(&mut db), Ok(model), "{op:?}: nothing landed");
                    let retried = db.apply("t", std::slice::from_ref(&op));
                    assert!(
                        retried.unwrap()[0].applied(),
                        "the table still takes writes"
                    );
                } else {
                    assert_eq!(
                        observe(&mut db),
                        Err(DbError::Poisoned),
                        "{op:?} at write {k}"
                    );
                    let again = db.apply("t", std::slice::from_ref(&op));
                    assert_eq!(again, Err(DbError::Poisoned));
                    assert!(db.save(std::env::temp_dir().join("never")).is_err());
                }
            }
        }
    }
}
