//! Database persistence: save/open a whole [`Database`] — disk image plus
//! catalog — as a pair of files.
//!
//! `<prefix>.disk` holds the page image (see `sj_storage::persist`);
//! `<prefix>.cat` holds the catalog: schemas, row counts, heap-file
//! directories, and the spatial-column files. Secondary structures
//! (R-trees, join indices) are *not* persisted — they are derived data and
//! are rebuilt lazily on first use, exactly like after an insert.
//!
//! Catalog format (little-endian):
//!
//! ```text
//! [ magic "SJCAT004" ][ mem_pages: u32 ][ table_count: u32 ]
//! per table:  [ name ][ record_size u32 ][ live_rows u64 ][ schema ][ file ]
//!             [ live u64 × (id u64, slot u64) ][ next_id u64 ][ mutation_seq u64 ]
//!             [ spatial_count u32 ]
//!             per spatial col: [ name ][ ids ][ slots ][ file ]
//! name:       [ len u16 ][ utf-8 ]
//! schema:     [ cols u16 ] per col: [ name ][ type u8 ]
//! file:       [ record_size u32 ][ per_page u32 ][ pages u32 × u32 ]
//!             [ dir u64 × (u32 page, u16 slot) ]
//! ids:        [ count u64 × u64 ]
//! ```
//!
//! `SJCAT004` dropped `SJCAT003`'s per-column quantized-sidecar flag and
//! file: a spatial column is its exact heap file alone. An `SJCAT003`
//! catalog opens as an `InvalidData` error naming its version.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use sj_joins::StoredRelation;
use sj_storage::{BufferPool, Disk, HeapFile, PageId, RecordId};

use crate::db::{Database, SpatialColumn, Table};
use crate::schema::{Column, Schema};
use crate::value::ValueType;

const MAGIC: &[u8; 8] = b"SJCAT004";

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn w_u16(w: &mut impl Write, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn r_u16(r: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}
fn r_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn w_name(w: &mut impl Write, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| bad("name longer than u16::MAX"))?;
    w_u16(w, len)?;
    w.write_all(s.as_bytes())
}

fn r_name(r: &mut impl Read) -> io::Result<String> {
    let len = r_u16(r)? as usize;
    let mut b = vec![0u8; len];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| bad("catalog name is not UTF-8"))
}

fn w_file(w: &mut impl Write, file: &HeapFile) -> io::Result<()> {
    let (pages, dir, record_size, per_page) = file.to_parts();
    w_u32(w, record_size as u32)?;
    w_u32(w, per_page as u32)?;
    w_u32(w, pages.len() as u32)?;
    for p in &pages {
        w_u32(w, p.0)?;
    }
    w_u64(w, dir.len() as u64)?;
    for rid in &dir {
        w_u32(w, rid.page.0)?;
        w_u16(w, rid.slot)?;
    }
    Ok(())
}

fn r_file(r: &mut impl Read) -> io::Result<HeapFile> {
    let record_size = r_u32(r)? as usize;
    let per_page = r_u32(r)? as usize;
    let pages = (0..r_u32(r)?).map(|_| Ok(PageId(r_u32(r)?)));
    let pages: Vec<PageId> = pages.collect::<io::Result<_>>()?;
    let dir = (0..r_u64(r)?).map(|_| {
        Ok(RecordId {
            page: PageId(r_u32(r)?),
            slot: r_u16(r)?,
        })
    });
    let dir: Vec<RecordId> = dir.collect::<io::Result<_>>()?;
    if pages.is_empty() || record_size == 0 || per_page == 0 {
        return Err(bad("corrupt file descriptor"));
    }
    Ok(HeapFile::from_parts(pages, dir, record_size, per_page))
}

fn type_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 1,
        ValueType::Float => 2,
        ValueType::Str => 3,
        ValueType::Spatial => 4,
    }
}

fn tag_type(tag: u8) -> io::Result<ValueType> {
    Ok(match tag {
        1 => ValueType::Int,
        2 => ValueType::Float,
        3 => ValueType::Str,
        4 => ValueType::Spatial,
        other => return Err(bad(&format!("unknown column type tag {other}"))),
    })
}

impl Database {
    /// Persists the database as `<prefix>.disk` + `<prefix>.cat`.
    /// Derived structures (R-trees, join indices) are not saved, and a
    /// poisoned database refuses to save.
    pub fn save(&self, prefix: impl AsRef<Path>) -> io::Result<()> {
        self.usable().map_err(io::Error::other)?;
        let prefix = prefix.as_ref();
        self.pool.disk().save(with_ext(prefix, "disk"))?;
        let mut w = BufWriter::new(File::create(with_ext(prefix, "cat"))?);
        w.write_all(MAGIC)?;
        w_u32(&mut w, self.pool.capacity() as u32)?;
        w_u32(&mut w, self.tables.len() as u32)?;
        for (name, t) in &self.tables {
            w_name(&mut w, name)?;
            w_u32(&mut w, t.record_size as u32)?;
            w_u64(&mut w, t.live.len() as u64)?;
            w_u16(&mut w, t.schema.arity() as u16)?;
            for c in t.schema.columns() {
                w_name(&mut w, &c.name)?;
                w.write_all(&[type_tag(c.ty)])?;
            }
            w_file(&mut w, &t.file)?;
            // The live rowid → physical-slot map (deletes and upserts
            // leave dead slots behind in the heap file), plus the rowid
            // allocator and the index-staleness tag.
            for (&id, &slot) in &t.live {
                w_u64(&mut w, id)?;
                w_u64(&mut w, slot as u64)?;
            }
            w_u64(&mut w, t.next_id)?;
            w_u64(&mut w, t.mutation_seq)?;
            w_u32(&mut w, t.spatial.len() as u32)?;
            for sc in &t.spatial {
                w_name(&mut w, &sc.name)?;
                let (file, ids, slots) = sc.column.to_parts();
                w_u64(&mut w, ids.len() as u64)?;
                for &id in ids {
                    w_u64(&mut w, id)?;
                }
                for &slot in slots {
                    w_u64(&mut w, slot as u64)?;
                }
                w_file(&mut w, file)?;
            }
        }
        w.flush()
    }

    /// Opens a database saved with [`Database::save`].
    pub fn open(prefix: impl AsRef<Path>) -> io::Result<Database> {
        let prefix = prefix.as_ref();
        let disk = Disk::load(with_ext(prefix, "disk"))?;
        let mut r = BufReader::new(File::open(with_ext(prefix, "cat"))?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic == b"SJCAT003" {
            return Err(bad("SJCAT003 catalog: no longer supported"));
        }
        if &magic != MAGIC {
            return Err(bad("not a spatial-joins catalog"));
        }
        let mem_pages = r_u32(&mut r)? as usize;
        let pool = BufferPool::new(disk, mem_pages.max(1));
        let mut db = Database::from_pool(pool);
        let table_count = r_u32(&mut r)? as usize;
        for _ in 0..table_count {
            let name = r_name(&mut r)?;
            let record_size = r_u32(&mut r)? as usize;
            let rows = r_u64(&mut r)? as usize;
            let arity = r_u16(&mut r)? as usize;
            let mut columns = Vec::with_capacity(arity);
            for _ in 0..arity {
                let cname = r_name(&mut r)?;
                let mut tag = [0u8; 1];
                r.read_exact(&mut tag)?;
                columns.push(Column::new(cname, tag_type(tag[0])?));
            }
            let schema = Schema::new(columns);
            let file = r_file(&mut r)?;
            let mut live = std::collections::BTreeMap::new();
            for _ in 0..rows {
                let id = r_u64(&mut r)?;
                let slot = r_u64(&mut r)? as usize;
                if slot >= file.len() {
                    return Err(bad("live slot beyond the file directory"));
                }
                live.insert(id, slot);
            }
            if live.len() != rows {
                return Err(bad("duplicate rowid in the live map"));
            }
            let next_id = r_u64(&mut r)?;
            let mutation_seq = r_u64(&mut r)?;
            let spatial_count = r_u32(&mut r)? as usize;
            let mut spatial = Vec::with_capacity(spatial_count);
            for _ in 0..spatial_count {
                let cname = r_name(&mut r)?;
                let id_count = r_u64(&mut r)? as usize;
                let ids = (0..id_count).map(|_| r_u64(&mut r));
                let ids: Vec<u64> = ids.collect::<io::Result<_>>()?;
                let slots = (0..id_count).map(|_| Ok(r_u64(&mut r)? as usize));
                let slots: Vec<usize> = slots.collect::<io::Result<_>>()?;
                let cfile = r_file(&mut r)?;
                if slots.iter().any(|&s| s >= cfile.len()) {
                    return Err(bad("column slot beyond the file directory"));
                }
                if slots.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(bad("column slots not ascending"));
                }
                if ids.len() != live.len() {
                    return Err(bad("spatial column length mismatch"));
                }
                let column = StoredRelation::from_parts(cfile, ids, slots);
                spatial.push(SpatialColumn::new(cname, column));
            }
            // One column file per spatial column, kept in schema order.
            spatial.sort_by_key(|sc| schema.index_of(&sc.name));
            let want = schema
                .columns()
                .iter()
                .filter(|c| c.ty == ValueType::Spatial);
            if !want.map(|c| &c.name).eq(spatial.iter().map(|sc| &sc.name)) {
                return Err(bad("catalog columns are not the schema's spatial columns"));
            }
            if db.tables.contains_key(&name) {
                return Err(bad("duplicate table in catalog"));
            }
            let table = Table {
                schema,
                record_size,
                file,
                live,
                next_id,
                mutation_seq,
                spatial,
            };
            db.tables.insert(name, table);
        }
        Ok(db)
    }
}

fn with_ext(prefix: &Path, ext: &str) -> std::path::PathBuf {
    let mut p = prefix.to_path_buf();
    let name = p
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    p.set_file_name(format!("{name}.{ext}"));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use sj_geom::{Geometry, Point, ThetaOp};
    use sj_joins::Strategy;

    fn temp_prefix(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sj_db_{}_{name}", std::process::id()));
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

    #[test]
    fn save_open_roundtrips_mutated_tables() {
        use sj_joins::Mutation;

        let prefix = temp_prefix("mutated");
        let row = |i: i64, x: f64| {
            vec![
                Value::Int(i),
                Value::Str(format!("m-{i}")),
                Value::Spatial(Geometry::Point(Point::new(x, 0.0))),
            ]
        };
        let expected = {
            let mut db = sample_db();
            db.apply(
                "a",
                &[
                    Mutation::Delete { id: 3 },
                    Mutation::Upsert {
                        id: 5,
                        value: row(55, 2.25),
                    },
                ],
            )
            .unwrap();
            db.save(&prefix).expect("save");
            db.scan("a").unwrap()
        };
        let mut db = Database::open(&prefix).expect("open");
        assert_eq!(db.row_count("a"), Ok(39), "the delete survives reopening");
        assert_eq!(db.scan("a"), Ok(expected), "live rows round-trip exactly");
        let row5 = db.get("a", 5).unwrap().unwrap();
        assert_eq!(row5[0], Value::Int(55), "the upsert survives");
        // Rowid 3 stays dead and the allocator does not reuse it.
        let rid = db.insert("a", row(1000, 90.0));
        assert_eq!(rid, Ok(40));
        cleanup(&prefix);
    }

    #[test]
    fn save_open_roundtrips_rows_and_queries() {
        let prefix = temp_prefix("roundtrip");
        let theta = ThetaOp::WithinDistance(0.5);
        let expected = {
            let mut db = sample_db();
            db.save(&prefix).expect("save");
            let v = db.spatial_join_ids("a", "loc", "b", "loc", theta, Strategy::NestedLoop);
            let mut v = v.unwrap();
            v.sort_unstable();
            v
        };
        let mut db = Database::open(&prefix).expect("open");
        assert_eq!(db.row_count("a"), Ok(40));
        assert_eq!(db.row_count("b"), Ok(40));
        let row = db.get("a", 7).unwrap().unwrap();
        assert_eq!(row[1], Value::Str("a-7".into()));
        // Queries work, including index-based ones (indices are rebuilt).
        for strategy in [Strategy::NestedLoop, Strategy::Tree] {
            let got = db.spatial_join_ids("a", "loc", "b", "loc", theta, strategy);
            let mut got = got.unwrap();
            got.sort_unstable();
            assert_eq!(got, expected, "{strategy:?}");
        }
        // Inserts still work after reopening.
        db.insert(
            "a",
            vec![
                Value::Int(999),
                Value::Str("late".into()),
                Value::Spatial(Geometry::Point(Point::new(100.0, 100.0))),
            ],
        )
        .unwrap();
        assert_eq!(db.row_count("a"), Ok(41));
        cleanup(&prefix);
    }

    /// An `SJCAT003` catalog may carry sidecar files this version no
    /// longer reads, so it is refused as a typed error, never a panic.
    #[test]
    fn open_rejects_an_sjcat003_catalog() {
        let prefix = temp_prefix("sjcat003");
        sample_db().save(&prefix).unwrap();
        let cat = with_ext(&prefix, "cat");
        let mut bytes = std::fs::read(&cat).unwrap();
        bytes[..8].copy_from_slice(b"SJCAT003");
        std::fs::write(&cat, bytes).unwrap();
        let err = Database::open(&prefix)
            .map(|_| ())
            .expect_err("SJCAT003 catalog");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("SJCAT003"), "got {err}");
        cleanup(&prefix);
    }

    #[test]
    fn open_rejects_garbage_catalog() {
        let prefix = temp_prefix("garbage");
        let db = sample_db();
        db.save(&prefix).unwrap();
        std::fs::write(with_ext(&prefix, "cat"), b"nonsense").unwrap();
        assert!(Database::open(&prefix).is_err());
        cleanup(&prefix);
    }

    /// `StoredRelation` finds positions by binary search over its slot
    /// list, so a catalog whose column slots are out of order is refused
    /// as a typed error before any relation is assembled from it.
    #[test]
    fn open_rejects_a_catalog_with_unordered_column_slots() {
        let prefix = temp_prefix("unordered");
        sample_db().save(&prefix).unwrap();
        let cat = with_ext(&prefix, "cat");
        let mut bytes = std::fs::read(&cat).unwrap();
        // The last `38, 39` run in the file is the tail of table b's
        // column slot list; swap the two.
        let run: Vec<u8> = [38u64, 39].iter().flat_map(|v| v.to_le_bytes()).collect();
        let at = (0..bytes.len() - 16)
            .rev()
            .find(|&i| bytes[i..i + 16] == run[..])
            .expect("slot list in the catalog");
        bytes[at..at + 8].copy_from_slice(&39u64.to_le_bytes());
        bytes[at + 8..at + 16].copy_from_slice(&38u64.to_le_bytes());
        std::fs::write(&cat, bytes).unwrap();
        let err = Database::open(&prefix)
            .map(|_| ())
            .expect_err("unordered slots");
        assert!(err.to_string().contains("not ascending"), "got {err}");
        cleanup(&prefix);
    }

    #[test]
    fn missing_files_error_cleanly() {
        let prefix = temp_prefix("missing");
        assert!(Database::open(&prefix).is_err());
    }

    fn cleanup(prefix: &Path) {
        std::fs::remove_file(with_ext(prefix, "disk")).ok();
        std::fs::remove_file(with_ext(prefix, "cat")).ok();
    }
}
