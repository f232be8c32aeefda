//! The database: disk-backed tables with spatial secondary structures.

use std::collections::BTreeMap;

use sj_geom::{codec, Geometry, ThetaOp};
use sj_joins::{IndexedRelation, JoinIndex, JoinRun, Mutation, MutationOutcome, TraceSink};
use sj_storage::StorageError;
use sj_storage::{BufferPool, Disk, DiskConfig, FaultInjector, HeapFile, IoStats, Layout};

use crate::error::{DbError, Result};
use crate::schema::Schema;
use crate::tuple::{decode_tuple, encode_tuple, encoded_tuple_len, Tuple};
use crate::value::{Value, ValueType};

/// A stored table: the row file plus, per spatial column, one maintained
/// side: the `(rowid, geometry)` projection the join executors scan, its
/// R-tree and the paged generalization tree over it.
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
    /// Bumped once per applied mutation: the staleness tag of join
    /// indices (a delete moves the live set, not always the count).
    pub(crate) mutation_seq: u64,
    /// One per spatial column, in schema order.
    pub(crate) spatial: Vec<SpatialColumn>,
}

/// One spatial column: its side, laid out at `fanout` and `layout`.
pub(crate) struct SpatialColumn {
    pub(crate) name: String,
    pub(crate) side: IndexedRelation,
    pub(crate) fanout: usize,
    pub(crate) layout: Layout,
}

impl SpatialColumn {
    /// The column `name` over `tuples`: where `sj-rel` builds a side.
    fn try_new(
        pool: &mut BufferPool,
        name: String,
        tuples: &[(u64, Geometry)],
        record_size: usize,
        (fanout, layout): (usize, Layout),
    ) -> Result<Self, StorageError> {
        let side = IndexedRelation::try_build(pool, tuples, record_size, fanout, layout, None)?;
        Ok(SpatialColumn {
            name,
            side,
            fanout,
            layout,
        })
    }
}

/// A spatial column's fan-out and layout until it is re-laid.
const DEFAULT_SIDE: (usize, Layout) = (10, Layout::Clustered);

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

    /// Applies a batch — outcomes by [`Mutation::outcome`] over row
    /// presence and tuple size — then publishes every spatial column's
    /// side. `landed` reports whether any write landed.
    fn apply(
        &mut self,
        pool: &mut BufferPool,
        ops: &[Mutation<Tuple>],
        landed: &mut bool,
    ) -> Result<Vec<MutationOutcome>> {
        for row in ops.iter().filter_map(Mutation::value) {
            self.schema.check_row(row)?;
        }
        let mut outcomes = Vec::with_capacity(ops.len());
        for op in ops {
            let too_large = op
                .value()
                .is_some_and(|row| encoded_tuple_len(row) > self.record_size);
            let outcome = op.outcome(self.live.contains_key(&op.id()), too_large);
            if outcome.applied() {
                self.write_op(pool, op, landed)?;
            }
            outcomes.push(outcome);
        }
        let update = DbError::during("R-tree update");
        for sc in &mut self.spatial {
            sc.side.try_publish(pool).map_err(&update)?;
        }
        Ok(outcomes)
    }

    /// An applied op: the row record (insert, upsert), then each spatial
    /// column's side; `live`, `next_id` and `mutation_seq` move last.
    fn write_op(
        &mut self,
        pool: &mut BufferPool,
        op: &Mutation<Tuple>,
        landed: &mut bool,
    ) -> Result<()> {
        let id = op.id();
        let record = op.value().map(|row| encode_tuple(row, self.record_size));
        let slot = record.map(|record| write(landed, self.file.try_append(pool, record)));
        let slot = slot.transpose()?;
        // `check_row` put a geometry in each spatial column, in schema order.
        let row = op.value().into_iter().flatten();
        let mut geometries = row.filter_map(Value::as_spatial);
        for sc in &mut self.spatial {
            let op = match geometries.next() {
                Some(g) => Mutation::Upsert {
                    id,
                    value: g.clone(),
                },
                None => Mutation::Delete { id },
            };
            write(landed, sc.side.try_apply(pool, &op, false))?;
        }
        match slot {
            Some(slot) => self.live.insert(id, slot),
            None => self.live.remove(&id),
        };
        self.next_id = self.next_id.max(id + 1);
        self.mutation_seq += 1;
        Ok(())
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
/// sequences when it was built — its staleness tags.
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
        let during = DbError::during("table creation");
        let file = HeapFile::bulk_load(pool, record_size, 0, Layout::Clustered).map_err(&during)?;
        let columns = schema.columns().iter();
        let spatial = columns
            .filter(|c| c.ty == ValueType::Spatial)
            .map(|c| SpatialColumn::try_new(pool, c.name.clone(), &[], record_size, DEFAULT_SIDE))
            .collect::<Result<_, _>>()
            .map_err(during)?;
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

    /// Inserts a row, returning its rowid: a one-operation
    /// [`apply`](Self::apply) batch, so every spatial column's R-tree
    /// takes the row at once, and join indices are rebuilt on the next
    /// join that uses them.
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
    /// write every spatial column's side (its paged tree once per batch)
    /// and advance the mutation sequence so join indices rebuild on next
    /// use. A row that does not fit the schema fails the batch before any
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

    /// Re-lays a spatial column's side (fan-out 10, clustered, from
    /// [`create_table`](Self::create_table) on) from a scan, with the
    /// given R-tree fan-out (at least 2) and paged-tree layout — the
    /// choice between the paper's strategies IIa (`Unclustered`) and IIb
    /// (`Clustered`).
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
        let t = table_mut(&mut self.tables, table)?;
        let record_size = t.record_size;
        let sc = t.spatial_mut((table, column))?;
        let during = DbError::during("R-tree build");
        let tuples = sc.side.rel().try_scan(&mut self.pool).map_err(&during)?;
        let (pool, name) = (&mut self.pool, sc.name.clone());
        let laid = SpatialColumn::try_new(pool, name, &tuples, record_size, (fanout, layout));
        *sc = laid.map_err(during)?;
        Ok(())
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
        let (r, s) = (rc.side.rel(), sc.side.rel());
        let build = JoinIndex::try_build(&mut self.pool, r, s, theta, 100);
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
        let (r, s) = (rc.side.rel(), sc.side.rel());
        let run = index.join(&mut self.pool, r, s, &mut TraceSink::Null);
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
        let read = sc.side.rel().try_read_by_id(&mut self.pool, rowid);
        Ok(Some(read.map_err(DbError::during("geometry read"))?.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use sj_geom::Point;
    use sj_joins::tree_join::TraversalOrder;
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

    /// The live rows the column's paged tree stores.
    fn tree_entries(db: &Database) -> usize {
        db.tables["pts"].spatial[0]
            .side
            .tree()
            .tree
            .entry_nodes()
            .len()
    }

    #[test]
    fn an_insert_reaches_the_index_at_its_fan_out() {
        let mut db = db_with_points(20);
        db.create_spatial_index("pts", "loc", 4, Layout::Clustered)
            .unwrap();
        db.insert(
            "pts",
            vec![
                Value::Int(999),
                Value::Spatial(Geometry::Point(Point::new(100.0, 100.0))),
            ],
        )
        .unwrap();
        assert_eq!(tree_entries(&db), 21, "the insert's batch published it");
        assert_eq!(db.tables["pts"].spatial[0].fanout, 4);
        let far = Geometry::Point(Point::new(100.0, 100.0));
        let order = TraversalOrder::BreadthFirst;
        let hits = db.spatial_select("pts", "loc", &far, ThetaOp::WithinDistance(1.0), order);
        assert_eq!(hits.unwrap().len(), 1);
    }

    /// The paged tree is maintained per batch, not rebuilt: one insert
    /// and one SELECT against 4× the rows may cost at most 2× the
    /// physical reads plus writes, as the service demands of a commit
    /// (`incremental_apply_costs_pages_proportional_to_the_batch`).
    #[test]
    fn an_insert_and_a_select_cost_pages_proportional_to_the_batch() {
        let pages = |n: usize| {
            let mut db = db_with_points(n);
            db.create_spatial_index("pts", "loc", 10, Layout::Clustered)
                .unwrap();
            db.drop_caches();
            db.reset_io();
            let at = Geometry::Point(Point::new(n as f64 / 2.0 + 0.5, 0.0));
            let row = vec![Value::Int(-1), Value::Spatial(at.clone())];
            db.insert("pts", row).unwrap();
            let (theta, order) = (ThetaOp::WithinDistance(1.0), TraversalOrder::BreadthFirst);
            let hits = db.spatial_select("pts", "loc", &at, theta, order).unwrap();
            assert_eq!(hits.len(), 3, "the new row and its two neighbours");
            let io = db.io_stats();
            io.physical_reads + io.physical_writes
        };
        let (small, large) = (pages(200), pages(800));
        assert!(
            large <= 2 * small,
            "insert + select must follow the batch, not the data: \
             {small} pages at 200 rows, {large} at 800"
        );
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
    fn a_delete_only_batch_reaches_the_index() {
        let mut db = db_with_points(12);
        db.create_spatial_index("pts", "loc", 4, Layout::Clustered)
            .unwrap();
        let outcomes = db.apply("pts", &[Mutation::Delete { id: 5 }]);
        assert_eq!(outcomes, Ok(vec![MutationOutcome::Deleted]));
        assert_eq!(
            tree_entries(&db),
            11,
            "a delete-only batch is published too"
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
            let order = TraversalOrder::BreadthFirst;
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
                // The pages of the relation files the op writes, in write
                // order. Each file holds one page: `create_table`
                // allocated the row file's, then each spatial column's
                // relation and paged tree, in schema order.
                let t = &db.tables["t"];
                let row_page = t.file.rid(0).page;
                assert!(t.spatial.iter().all(|sc| sc.side.rel().page_count() == 1));
                assert!(t
                    .spatial
                    .iter()
                    .all(|sc| sc.side.tree().paged.page_count() == 1));
                let mut files: Vec<_> = [1, 3].map(|c| PageId(row_page.0 + c)).into();
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
