//! Database persistence: one file, a synced [`WriteAheadLog`] — the
//! workspace's one durable format — of the live tuples and what cannot
//! be derived from them. Pages, directories, R-trees and join indices are
//! derived: `open` re-applies every row through [`Database::apply`]'s
//! write path and restores the two counters. Each record is a tuple in
//! the row codec ([`encode_tuple`]):
//!
//! ```text
//! header:  ("SJDBASE1", utilization, page_size, pool frames, tables)
//! per table:
//!   table:  (name, record_size, columns, next_id, mutation_seq, rows)
//!   column: (name, type, R-tree fan-out, unclustered, seed) × columns
//!   row:    rowid u64 ++ the row's tuple  × rows, in spatial-column
//!                                           position order (else rowid order)
//! ```

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use sj_geom::codec;
use sj_joins::{Mutation, MutationOutcome};
use sj_storage::Layout::{Clustered, Unclustered};
use sj_storage::{DiskConfig, WriteAheadLog};

use crate::db::{table_mut, Database};
use crate::error::{DbError, Result};
use crate::schema::{Column, Schema};
use crate::tuple::{decode_tuple, encode_tuple, encoded_tuple_len, Tuple};
use crate::value::{Value, ValueType};
use ValueType::{Float, Int, Spatial, Str};

const TAG: &str = "SJDBASE1";
/// The schemas of the header, table and column records.
const HEADER: [ValueType; 5] = [Str, Float, Int, Int, Int];
const TABLE: [ValueType; 6] = [Str, Int, Int, Int, Int, Int];
const COLUMN: [ValueType; 5] = [Str, Int, Int, Int, Int];
/// A column record's type, by index.
const TYPES: [ValueType; 4] = [Int, Float, Str, Spatial];

fn corrupt(why: impl Into<String>) -> DbError {
    DbError::Corrupt(why.into())
}

/// A count or id as an `Int`, bit-cast; `from_image`'s `num` casts it back.
fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

/// `values` as one record; a name too long for the codec is refused.
fn record(values: &Tuple) -> Result<Vec<u8>> {
    let len = encoded_tuple_len(values);
    if len > usize::from(u16::MAX) {
        return Err(DbError::SchemaMismatch(format!("a {len}-byte record")));
    }
    Ok(encode_tuple(values, len))
}

/// A record of the fixed schema `types`: [`decode_tuple`] checks each
/// value's type, so `from_image`'s `num` and `text` never fall back.
fn fields(bytes: &[u8], types: &[ValueType]) -> Result<Tuple> {
    let columns = types.iter().enumerate();
    let columns = columns.map(|(i, &ty)| Column::new(i.to_string(), ty));
    decode_tuple(
        bytes,
        &Schema::new(columns.collect()),
        codec::try_decode_untrusted,
    )
}

impl Database {
    /// Saves the database to the file `path` through `<path>.tmp`, synced
    /// and renamed over it, so a crash leaves the old file or the new
    /// one. A poisoned database refuses to save.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let image = self.image().map_err(io::Error::other)?;
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&image)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    }

    /// The bytes [`save`](Self::save) writes. Rows are read through a
    /// fork of the pool, so saving moves no I/O counter.
    fn image(&self) -> Result<Vec<u8>> {
        self.usable()?;
        let (config, frames) = (self.pool.config(), self.pool.capacity());
        let mut log = WriteAheadLog::new();
        let head = vec![Value::Str(TAG.into()), Value::Float(config.utilization)];
        let sizes = [config.page_size, frames, self.tables.len()].map(|n| int(n as u64));
        log.append(&record(&[head, sizes.to_vec()].concat())?);
        let mut pool = self.pool.fork_view(frames);
        for (name, t) in &self.tables {
            let shape = [t.record_size, t.schema.arity()].map(|n| int(n as u64));
            let counts = [t.next_id, t.mutation_seq, t.live.len() as u64].map(int);
            let table = [
                vec![Value::Str(name.clone())],
                shape.to_vec(),
                counts.to_vec(),
            ];
            log.append(&record(&table.concat())?);
            for c in t.schema.columns() {
                let ty = TYPES.iter().position(|&ty| ty == c.ty).unwrap_or(0) as u64;
                let sc = t.spatial.iter().find(|sc| sc.name == c.name);
                let (k, layout) =
                    sc.map_or((0, Clustered), |sc| (sc.index_fanout, sc.index_layout));
                let (unclustered, seed) = match layout {
                    Clustered => (0, 0),
                    Unclustered { seed } => (1, seed),
                };
                let index = [ty, k as u64, unclustered, seed].map(int).to_vec();
                let name = vec![Value::Str(c.name.clone())];
                log.append(&record(&[name, index].concat())?);
            }
            let order: Vec<u64> = match t.spatial.first() {
                Some(sc) => sc.column.ids().to_vec(),
                None => t.live.keys().copied().collect(),
            };
            for id in order {
                let slot = t.live.get(&id).copied();
                let slot = slot.ok_or_else(|| corrupt(format!("rowid {id} is not live")))?;
                let row = t.read_row(&mut pool, slot)?;
                log.append(&[&id.to_le_bytes()[..], &record(&row)?].concat());
            }
        }
        log.sync().map_err(DbError::during("save"))?;
        Ok(log.durable_image())
    }

    /// Opens a database [`save`](Self::save) wrote, with a cold pool and
    /// zeroed I/O counters. A damaged file, another format, or a repeated
    /// table, column or rowid is an `InvalidData` error.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Database> {
        let image = std::fs::read(path)?;
        let invalid = |e: DbError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        Database::from_image(&image).map_err(invalid)
    }

    /// Rebuilds a database from the bytes [`save`](Self::save) wrote,
    /// checking what they name before `Schema::new`'s, the disk
    /// geometry's or the pool's asserts see it.
    fn from_image(image: &[u8]) -> Result<Database> {
        let (_, records) = WriteAheadLog::recover(image).map_err(DbError::during("open"))?;
        let mut records = records.into_iter().map(|(_, record)| record);
        let mut next = || records.next().ok_or_else(|| corrupt("the file ends early"));
        let num = |values: &Tuple, i: usize| values[i].as_int().map_or(0, |v| v as u64);
        let text = |values: &Tuple, i: usize| values[i].as_str().unwrap_or_default().to_string();
        let header = fields(&next()?, &HEADER)?;
        let utilization = header[1].as_float().unwrap_or_default();
        let (page_size, frames, tables) = (num(&header, 2), num(&header, 3), num(&header, 4));
        let frames = usize::try_from(frames).unwrap_or(usize::MAX);
        if text(&header, 0) != TAG || !(utilization > 0.0 && utilization <= 1.0) || frames == 0 {
            return Err(corrupt("not a database file, or a corrupt disk geometry"));
        }
        let page_size = usize::try_from(page_size).unwrap_or(usize::MAX);
        let config = DiskConfig {
            page_size,
            utilization,
        };
        let mut db = Database::new(config, frames);
        for _ in 0..tables {
            let table = fields(&next()?, &TABLE)?;
            let name = text(&table, 0);
            let [record_size, arity, next_id, mutation_seq, rows] =
                [1, 2, 3, 4, 5].map(|i| num(&table, i));
            let (mut columns, mut indices) = (Vec::<Column>::new(), Vec::new());
            for _ in 0..arity {
                let column = fields(&next()?, &COLUMN)?;
                let [ty, fanout, unclustered, seed] = [1, 2, 3, 4].map(|i| num(&column, i));
                let ty = TYPES.get(usize::try_from(ty).unwrap_or(usize::MAX));
                let ty = *ty.ok_or_else(|| corrupt(format!("a column type in {name:?}")))?;
                if ty == Spatial {
                    let layouts = [Clustered, Unclustered { seed }];
                    let layout = layouts.get(unclustered.min(2) as usize).copied();
                    let fanout = usize::try_from(fanout).ok().filter(|&k| k >= 2);
                    let index = fanout.zip(layout);
                    indices.push(index.ok_or_else(|| corrupt(format!("an index in {name:?}")))?);
                }
                let column = text(&column, 0);
                if columns.iter().any(|c| c.name == column) {
                    return Err(corrupt(format!("column {column:?} repeats in {name:?}")));
                }
                columns.push(Column::new(column, ty));
            }
            if columns.is_empty() {
                return Err(corrupt(format!("table {name:?} has no columns")));
            }
            let schema = Schema::new(columns);
            let record_size = usize::try_from(record_size).unwrap_or(usize::MAX);
            db.create_table(&name, schema.clone(), record_size)?;
            let ops = (0..rows).map(|_| {
                let row = next()?;
                let Some((id, tuple)) = row.split_first_chunk::<8>() else {
                    return Err(corrupt("a row record shorter than its rowid"));
                };
                let (id, value) = (
                    u64::from_le_bytes(*id),
                    decode_tuple(tuple, &schema, codec::try_decode_untrusted)?,
                );
                Ok(Mutation::Insert { id, value })
            });
            let ops = ops.collect::<Result<Vec<_>>>()?;
            let outcomes = db.apply(&name, &ops)?;
            if outcomes.iter().any(|o| *o != MutationOutcome::Inserted) {
                return Err(corrupt(format!("a repeated rowid or big row in {name:?}")));
            }
            let t = table_mut(&mut db.tables, &name)?;
            if next_id < t.next_id || mutation_seq < t.mutation_seq {
                return Err(corrupt(format!("{name:?}'s counters are behind its rows")));
            }
            (t.next_id, t.mutation_seq) = (next_id, mutation_seq);
            for (sc, (fanout, layout)) in t.spatial.iter_mut().zip(indices) {
                (sc.index_fanout, sc.index_layout) = (fanout, layout);
            }
        }
        if records.next().is_some() {
            return Err(corrupt("records after the last table"));
        }
        db.drop_caches();
        db.reset_io();
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use sj_geom::{Geometry, Point, ThetaOp};
    use sj_joins::Strategy;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sj_db_{}_{name}.sjdb", std::process::id()));
        p
    }

    fn sample_db() -> Database {
        let mut db = Database::in_memory();
        for (t, off) in [("a", 0.0), ("b", 0.3)] {
            db.create_table(
                t,
                Schema::new(vec![
                    Column::new("id", ValueType::Int),
                    Column::new("name", ValueType::Str),
                    Column::new("loc", ValueType::Spatial),
                ]),
                300,
            )
            .unwrap();
            for i in 0..40 {
                db.insert(
                    t,
                    vec![
                        Value::Int(i as i64),
                        Value::Str(format!("{t}-{i}")),
                        Value::Spatial(Geometry::Point(Point::new(
                            (i % 8) as f64 * 5.0 + off,
                            (i / 8) as f64 * 5.0,
                        ))),
                    ],
                )
                .unwrap();
            }
        }
        db
    }

    fn row(i: i64, x: f64) -> Vec<Value> {
        vec![
            Value::Int(i),
            Value::Str(format!("m-{i}")),
            Value::Spatial(Geometry::Point(Point::new(x, 0.0))),
        ]
    }

    /// `sample_db` after a delete, an upsert of a live rowid and an
    /// insert: dead slots in every file, a column position order that is
    /// not rowid order, and an R-tree of its own fan-out and layout.
    fn mutated_db() -> Database {
        let mut db = sample_db();
        let ops = [
            Mutation::Delete { id: 3 },
            Mutation::Upsert {
                id: 5,
                value: row(55, 2.25),
            },
            Mutation::Insert {
                id: 77,
                value: row(77, 0.1),
            },
        ];
        db.apply("a", &ops).unwrap();
        db.apply("b", &[Mutation::Delete { id: 0 }]).unwrap();
        let unclustered = sj_storage::Layout::Unclustered { seed: 9 };
        db.create_spatial_index("a", "loc", 3, unclustered).unwrap();
        db
    }

    /// Everything a caller can observe of `mutated_db`'s two tables.
    fn observe(db: &mut Database) -> Vec<String> {
        let mut seen = Vec::new();
        for t in ["a", "b"] {
            seen.push(format!("{:?}", db.scan(t)));
            seen.push(format!("{:?} {:?}", db.row_count(t), db.get(t, 5)));
            let probe = Geometry::Point(Point::new(10.0, 5.0));
            let order = sj_joins::tree_join::TraversalOrder::BreadthFirst;
            let hits = db.spatial_select(t, "loc", &probe, ThetaOp::WithinDistance(6.0), order);
            seen.push(format!("{hits:?}"));
        }
        let theta = ThetaOp::WithinDistance(0.5);
        for strategy in [
            Strategy::NestedLoop,
            Strategy::Sweep,
            Strategy::Tree,
            Strategy::JoinIndex,
            Strategy::Partition,
            Strategy::Auto,
        ] {
            let pairs = db.spatial_join_ids("a", "loc", "b", "loc", theta, strategy);
            seen.push(format!("{strategy:?} {pairs:?}"));
        }
        seen
    }

    #[test]
    fn save_open_roundtrips_mutated_tables() {
        let path = temp_path("mutated");
        let mut saved = mutated_db();
        saved.save(&path).expect("save");
        let mut db = Database::open(&path).expect("open");
        assert_eq!(observe(&mut db), observe(&mut saved));
        assert_eq!(db.row_count("a"), Ok(40), "the delete survives reopening");
        let row5 = db.get("a", 5).unwrap().unwrap();
        assert_eq!(row5[0], Value::Int(55), "the upsert survives");
        // Rowid 3 stays dead and the allocator does not reuse it.
        assert_eq!(db.insert("a", row(1000, 90.0)), Ok(78));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_open_roundtrips_rows_and_queries() {
        let path = temp_path("roundtrip");
        let theta = ThetaOp::WithinDistance(0.5);
        let expected = {
            let mut db = sample_db();
            db.save(&path).expect("save");
            let v = db.spatial_join_ids("a", "loc", "b", "loc", theta, Strategy::NestedLoop);
            let mut v = v.unwrap();
            v.sort_unstable();
            v
        };
        let mut db = Database::open(&path).expect("open");
        assert_eq!(
            db.io_stats(),
            Default::default(),
            "opened with zeroed counters"
        );
        assert_eq!(db.row_count("a"), Ok(40));
        assert_eq!(db.row_count("b"), Ok(40));
        let row7 = db.get("a", 7).unwrap().unwrap();
        assert_eq!(row7[1], Value::Str("a-7".into()));
        // Queries work, including index-based ones (indices are rebuilt).
        for strategy in [Strategy::NestedLoop, Strategy::Tree] {
            let got = db.spatial_join_ids("a", "loc", "b", "loc", theta, strategy);
            let mut got = got.unwrap();
            got.sort_unstable();
            assert_eq!(got, expected, "{strategy:?}");
        }
        // Inserts still work after reopening.
        db.insert("a", row(999, 100.0)).unwrap();
        assert_eq!(db.row_count("a"), Ok(41));
        std::fs::remove_file(&path).ok();
    }

    /// Rowids survive as saved, however sparse, and so do the gaps
    /// between them.
    #[test]
    fn roundtrip_preserves_records_and_ids() {
        let mut saved = Database::in_memory();
        let schema = Schema::new(vec![Column::new("v", ValueType::Int)]);
        saved.create_table("t", schema, 16).unwrap();
        let ops: Vec<_> = [7u64, 1 << 40, 3]
            .map(|id| Mutation::Insert {
                id,
                value: vec![Value::Int(id as i64)],
            })
            .into();
        saved.apply("t", &ops).unwrap();
        let mut db = Database::from_image(&saved.image().unwrap()).unwrap();
        assert_eq!(db.scan("t"), saved.scan("t"));
        assert_eq!(db.insert("t", vec![Value::Int(0)]), Ok((1 << 40) + 1));
    }

    /// A deleted rowid stays deleted and unused: the allocator and the
    /// index-staleness counter come back as saved.
    #[test]
    fn tombstones_survive() {
        let mut saved = sample_db();
        saved.apply("a", &[Mutation::Delete { id: 39 }]).unwrap();
        let mut db = Database::from_image(&saved.image().unwrap()).unwrap();
        assert_eq!(db.get("a", 39), Ok(None));
        let ([a, b], [c, d]) = (
            [&db.tables["a"], &db.tables["b"]].map(|t| (t.next_id, t.mutation_seq)),
            [&saved.tables["a"], &saved.tables["b"]].map(|t| (t.next_id, t.mutation_seq)),
        );
        assert_eq!((a, b), (c, d));
        assert_eq!(db.insert("a", row(40, 1.0)), Ok(40));
    }

    #[test]
    fn empty_disk_roundtrips() {
        let config = DiskConfig {
            page_size: 4096,
            utilization: 0.5,
        };
        let saved = Database::new(config, 3);
        let db = Database::from_image(&saved.image().unwrap()).unwrap();
        assert!(db.tables.is_empty());
        let geometry = |c: DiskConfig| (c.page_size, c.utilization);
        assert_eq!(geometry(db.pool.config()), geometry(config));
        assert_eq!(db.pool.capacity(), 3);
        // Saving what was opened writes the same bytes: save → open →
        // save → open is stable.
        let again = mutated_db().image().unwrap();
        let reopened = Database::from_image(&again).unwrap();
        assert_eq!(reopened.image().unwrap(), again);
    }

    /// Every single-bit flip of a small saved file is a typed error:
    /// never a panic, never a database holding other data.
    #[test]
    fn rejects_garbage() {
        let mut db = Database::new(DiskConfig::paper(), 4);
        let schema = Schema::new(vec![
            Column::new("k", ValueType::Str),
            Column::new("g", ValueType::Spatial),
        ]);
        db.create_table("t", schema, 64).unwrap();
        for (i, x) in [(0, 1.5), (1, -2.0)] {
            let g = Value::Spatial(Geometry::Point(Point::new(x, x)));
            db.insert("t", vec![Value::Str(format!("r{i}")), g])
                .unwrap();
        }
        let image = db.image().unwrap();
        for bit in 0..image.len() * 8 {
            let mut bad = image.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Database::from_image(&bad).is_err(), "bit {bit}");
        }
        assert!(Database::from_image(b"definitely not a database").is_err());
    }

    /// A file cut short anywhere is a typed error.
    #[test]
    fn rejects_truncation() {
        let image = sample_db().image().unwrap();
        for len in (0..image.len()).step_by(97) {
            assert!(Database::from_image(&image[..len]).is_err(), "cut at {len}");
        }
    }

    /// A well-framed file whose records name something a database
    /// cannot hold — a repeated column, table or rowid — is refused
    /// before it reaches `Schema::new`'s or the table's asserts.
    #[test]
    fn open_rejects_a_repeated_column_table_or_rowid() {
        let frame = |records: Vec<Vec<Vec<u8>>>| {
            let mut log = WriteAheadLog::new();
            for r in records.concat() {
                log.append(&r);
            }
            log.sync().unwrap();
            log.durable_image()
        };
        let header = |tables: u64| {
            let h = vec![
                Value::Str(TAG.into()),
                Value::Float(0.75),
                int(2000),
                int(8),
                int(tables),
            ];
            vec![record(&h).unwrap()]
        };
        let table = |columns: &[&str], rows: u64| {
            let n = columns.len() as u64;
            let t = vec![
                Value::Str("t".into()),
                int(64),
                int(n),
                int(10),
                int(10),
                int(rows),
            ];
            let index = [0, 0, 0, 0].map(int).to_vec();
            let columns = columns
                .iter()
                .map(|c| [vec![Value::Str(c.to_string())], index.clone()]);
            let columns = columns.map(|c| c.concat());
            let t = std::iter::once(t).chain(columns);
            t.map(|r| record(&r).unwrap()).collect::<Vec<_>>()
        };
        let row = |id: u64| vec![[&id.to_le_bytes()[..], &record(&vec![int(1)]).unwrap()].concat()];
        let good = frame(vec![header(1), table(&["x"], 2), row(1), row(2)]);
        assert!(Database::from_image(&good).is_ok());
        for (what, records) in [
            ("repeated column", vec![header(1), table(&["x", "x"], 0)]),
            ("no columns", vec![header(1), table(&[], 0)]),
            (
                "repeated rowid",
                vec![header(1), table(&["x"], 2), row(1), row(1)],
            ),
            (
                "repeated table",
                vec![header(2), table(&["x"], 0), table(&["x"], 0)],
            ),
            (
                "rowid past next_id",
                vec![header(1), table(&["x"], 1), row(10)],
            ),
            ("missing rows", vec![header(1), table(&["x"], 2), row(1)]),
            (
                "extra record",
                vec![header(1), table(&["x"], 1), row(1), row(2)],
            ),
        ] {
            let got = Database::from_image(&frame(records));
            assert!(got.is_err(), "{what}");
        }
    }

    /// The two-file page image and catalog of earlier versions
    /// (`SJDISK01`, `SJCAT003`/`SJCAT004`) open as typed errors.
    #[test]
    fn open_rejects_an_sjcat003_catalog() {
        for magic in [b"SJDISK01", b"SJCAT003", b"SJCAT004"] {
            let path = temp_path(std::str::from_utf8(magic).unwrap());
            let mut bytes = magic.to_vec();
            bytes.extend_from_slice(&[0u8; 64]);
            std::fs::write(&path, bytes).unwrap();
            let err = Database::open(&path).map(|_| ()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn open_rejects_garbage_catalog() {
        let path = temp_path("garbage");
        sample_db().save(&path).unwrap();
        std::fs::write(&path, b"nonsense").unwrap();
        let err = Database::open(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    /// A saved file is read from outside the process: a polygon whose
    /// frame was forged around a self-intersecting ring, record checksum
    /// and log frame both valid, does not open.
    #[test]
    fn open_rejects_a_sealed_self_intersecting_ring() {
        use sj_geom::{codec, Polygon, Rect};
        let square = Polygon::from_rect(&Rect::from_bounds(0.0, 0.0, 4.0, 4.0)).unwrap();
        let square = Geometry::Polygon(square);
        let mut db = Database::in_memory();
        let schema = Schema::new(vec![Column::new("area", ValueType::Spatial)]);
        db.create_table("t", schema, 300).unwrap();
        db.insert("t", vec![Value::Spatial(square.clone())])
            .unwrap();
        let (_, records) = WriteAheadLog::recover(&db.image().unwrap()).unwrap();
        let frame = codec::encode_record(0, &square, codec::encoded_len(&square));
        let reframe = |forge: bool| {
            let mut log = WriteAheadLog::new();
            for (_, mut record) in records.clone() {
                let at = record.windows(frame.len()).position(|w| w == &frame[..]);
                if let (true, Some(at)) = (forge, at) {
                    let coords = at + codec::HEADER_LEN;
                    let bowtie = [0.0, 0.0, 4.0, 0.0, 0.0, 4.0, 3.0, 5.0].map(f64::to_le_bytes);
                    record[coords..coords + 64].copy_from_slice(&bowtie.concat());
                    codec::seal_record(&mut record[at..at + frame.len()]);
                }
                log.append(&record);
            }
            log.sync().unwrap();
            let path = temp_path(&format!("forged_ring_{forge}"));
            std::fs::write(&path, log.durable_image()).unwrap();
            let opened = Database::open(&path).map(|_| ());
            std::fs::remove_file(&path).ok();
            opened
        };
        assert!(reframe(false).is_ok());
        let err = reframe(true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad polygon ring"), "{err}");
    }

    #[test]
    fn missing_files_error_cleanly() {
        let path = temp_path("missing");
        let err = Database::open(&path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
