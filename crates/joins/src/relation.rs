//! Storage-backed spatial relations: `(id, Geometry)` tuples serialized
//! into records on a heap file of fixed slot width.

use sj_geom::codec;
use sj_geom::{Geometry, QKind, Rect};
use sj_storage::{BufferPool, HeapFile, IdMap, Layout, StorageError};

/// Maps a codec failure on bytes that came back from a page onto the
/// storage-level corruption error for that page.
fn corrupt(file: &HeapFile, slot: usize) -> StorageError {
    StorageError::PageCorrupt {
        page: file.rid(slot).page,
    }
}

/// One record as [`StoredRelation::try_scan_mbrs`] saw it. The fields
/// stay in the crate: a `Point` entry's MBR must be degenerate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanEntry {
    pub(crate) id: u64,
    pub(crate) mbr: Rect,
    pub(crate) kind: QKind,
}

impl ScanEntry {
    /// The record itself if it is a point or a rectangle: a point is its
    /// MBR's `lo` corner and a rectangle is its MBR, so both are rebuilt
    /// bit-exactly; a polygon or polyline must be fetched to be refined.
    pub(crate) fn as_box(&self) -> Option<Geometry> {
        match self.kind {
            QKind::Point => Some(Geometry::Point(self.mbr.lo)),
            QKind::Rect => Some(Geometry::Rect(self.mbr)),
            QKind::Polygon | QKind::Polyline => None,
        }
    }
}

/// A relation with one spatial attribute, stored on disk in `v`-byte
/// slots (the model's tuple size), each record at its frame length. An
/// in-memory directory maps tuple ids to file slots, and a binary search
/// over the ascending `slots` turns a slot into its logical position, so
/// no mutation rewrites the directory; all *data* access goes through the
/// buffer pool and is charged I/O.
///
/// Positions are dense and **order-preserving** under mutation: a delete
/// closes the position gap without reordering survivors (so a scan of
/// the mutated relation yields exactly the tuple sequence a from-scratch
/// rebuild of the same logical contents would). The heap file itself is
/// append-only — deletes tombstone their page slot and `slots` skips
/// them — so `slots` stays ascending and sequential scans stay
/// page-monotone.
#[derive(Debug, Clone)]
pub struct StoredRelation {
    file: HeapFile,
    ids: Vec<u64>,
    /// `slots[i]` = file logical index backing position `i` (ascending).
    slots: Vec<usize>,
    /// Tuple id → the file logical index that backs it.
    slot_of: IdMap<usize>,
}

impl StoredRelation {
    /// Builds the relation, serializing each tuple into a `record_size`-
    /// byte record placed per `layout`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate ids, geometries that do not fit the record
    /// size, or a storage fault during the load — builders run on a pool
    /// the caller has just created, before any injector is armed.
    pub fn build(
        pool: &mut BufferPool,
        tuples: &[(u64, Geometry)],
        record_size: usize,
        layout: Layout,
    ) -> Self {
        Self::try_load(pool, tuples, record_size, layout)
            .unwrap_or_else(|e| panic!("relation build failed: {e}")) // PANIC-OK: see # Panics
    }

    /// [`StoredRelation::build`], returning the first storage fault.
    pub(crate) fn try_load(
        pool: &mut BufferPool,
        tuples: &[(u64, Geometry)],
        record_size: usize,
        layout: Layout,
    ) -> Result<Self, StorageError> {
        let file = HeapFile::bulk_load_with(pool, record_size, tuples.len(), layout, |i| {
            codec::encode_record(tuples[i].0, &tuples[i].1, record_size)
        })?;
        let ids = tuples.iter().map(|(id, _)| *id).collect();
        Ok(Self::from_parts(file, ids, (0..tuples.len()).collect()))
    }

    /// The same relation as [`StoredRelation::build`]; `quant_record_size`
    /// is ignored. Relations keep no compressed copy, so every join
    /// refines exact records. Kept only because the benchmark harness
    /// calls it; ROADMAP item 25(d) deletes it.
    pub fn build_compressed(
        pool: &mut BufferPool,
        tuples: &[(u64, Geometry)],
        record_size: usize,
        _quant_record_size: usize,
        layout: Layout,
    ) -> Self {
        Self::build(pool, tuples, record_size, layout)
    }

    /// The largest codec-v2 frame among `tuples`. No relation stores v2
    /// frames; kept only because the benchmark harness calls it, and
    /// ROADMAP item 25(d) deletes it.
    pub fn quant_record_size_for(tuples: &[(u64, Geometry)]) -> usize {
        tuples
            .iter()
            .map(|(_, g)| codec::encoded_qlen(g))
            .max()
            .unwrap_or(codec::QHEADER_LEN)
    }

    /// Number of tuples (the model's `N`).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Pages occupied (the model's `⌈N/m⌉`).
    pub fn page_count(&self) -> usize {
        self.file.page_count()
    }

    /// Tuples per page (the model's `m`).
    pub fn tuples_per_page(&self) -> usize {
        self.file.records_per_page()
    }

    /// Slot width in bytes (the model's `v`).
    pub(crate) fn record_size(&self) -> usize {
        self.file.record_size()
    }

    /// Reads the tuple at logical position `i` through the pool (charged),
    /// decoding from the frame's own bytes, or the fault that prevented it.
    /// A frame that fails its checksum is `PageCorrupt`; one that passes
    /// was written by this relation, so a polygon skips the ring check.
    pub fn try_read_at(
        &self,
        pool: &mut BufferPool,
        i: usize,
    ) -> Result<(u64, Geometry), StorageError> {
        let slot = self.slots[i];
        let bytes = pool.try_read_record(&self.file, self.file.rid(slot))?;
        codec::try_decode_record(bytes).map_err(|_| corrupt(&self.file, slot))
    }

    /// Reads a tuple by id through the pool (charged), or the I/O fault
    /// that prevented it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the relation — an unknown id is a logic
    /// error, not a storage fault.
    pub fn try_read_by_id(
        &self,
        pool: &mut BufferPool,
        id: u64,
    ) -> Result<(u64, Geometry), StorageError> {
        self.try_read_at(pool, self.position(id))
    }

    /// The logical position of `id`: its file slot, found in the
    /// ascending `slots`.
    fn position(&self, id: u64) -> usize {
        self.slot_of
            .get(id)
            .and_then(|slot| self.slots.binary_search(slot).ok())
            .unwrap_or_else(|| panic!("unknown tuple id {id}")) // PANIC-OK: caller bug, ids come from this relation
    }

    /// Full sequential scan in **position order**, decoding every tuple,
    /// or the first I/O fault. `slots` is ascending, so the walk is
    /// page-monotone and costs `page_count()` physical reads on a cold
    /// pool of at least one page.
    pub fn try_scan(&self, pool: &mut BufferPool) -> Result<Vec<(u64, Geometry)>, StorageError> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            out.push(self.try_read_at(pool, i)?);
        }
        Ok(out)
    }

    /// The MBR-extraction scan of the filter-and-refine executors: one
    /// [`ScanEntry`] per tuple in position order, or the first I/O fault.
    /// Each entry comes straight from the record's raw tag and
    /// coordinates ([`codec::try_decode_mbr`]: checksum, count and
    /// finiteness checked, no vertex list, no `Polygon`), so the scan
    /// costs a checksum and a min/max pass per record (DESIGN.md §5l). A
    /// point or rectangle needs nothing more, so refinement never reads
    /// it again; a polygon or polyline is re-fetched only if a candidate
    /// needs it.
    pub fn try_scan_mbrs(&self, pool: &mut BufferPool) -> Result<Vec<ScanEntry>, StorageError> {
        self.slots
            .iter()
            .map(|&slot| {
                let bytes = pool.try_read_record(&self.file, self.file.rid(slot))?;
                let (id, kind, mbr) =
                    codec::try_decode_mbr(bytes).map_err(|_| corrupt(&self.file, slot))?;
                Ok(ScanEntry { id, mbr, kind })
            })
            .collect()
    }

    /// The tuple ids, in position order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// A relation over `file`: its ids and the file slot of each position.
    fn from_parts(file: HeapFile, ids: Vec<u64>, slots: Vec<usize>) -> Self {
        let slot_of: IdMap<usize> = ids.iter().copied().zip(slots.iter().copied()).collect();
        assert!(slot_of.len() == ids.len(), "duplicate tuple id");
        StoredRelation {
            file,
            ids,
            slots,
            slot_of,
        }
    }

    /// Appends one tuple at the last position, or the I/O fault that
    /// prevented it (the relation is unchanged on error).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id or an oversized geometry — logic errors
    /// the caller must screen, not storage faults.
    pub fn try_insert(
        &mut self,
        pool: &mut BufferPool,
        id: u64,
        g: &Geometry,
    ) -> Result<(), StorageError> {
        assert!(self.slot_of.get(id).is_none(), "duplicate tuple id {id}");
        let record = codec::encode_record(id, g, self.file.record_size());
        let slot = self.file.try_append(pool, record)?;
        self.slot_of.insert(id, slot);
        self.ids.push(id);
        self.slots.push(slot);
        Ok(())
    }

    /// Deletes the tuple with `id`, preserving the order of survivors,
    /// and returns its former position. The page slot is physically
    /// cleared (one charged write); the file index is abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the relation.
    pub fn try_delete(&mut self, pool: &mut BufferPool, id: u64) -> Result<usize, StorageError> {
        let pos = self.position(id);
        let rid = self.file.rid(self.slots[pos]);
        pool.try_update(rid.page, |p| p.remove(rid.slot))?;
        self.slot_of.remove(id);
        self.ids.remove(pos);
        self.slots.remove(pos);
        Ok(pos)
    }

    /// Overwrites the geometry of the tuple with `id` in place (one
    /// charged write); its position is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the relation or the geometry does not
    /// fit the record size.
    pub fn try_replace(
        &mut self,
        pool: &mut BufferPool,
        id: u64,
        g: &Geometry,
    ) -> Result<(), StorageError> {
        let pos = self.position(id);
        let record = codec::encode_record(id, g, self.file.record_size());
        let rid = self.file.rid(self.slots[pos]);
        pool.try_update(rid.page, |p| p.update(rid.slot, record))?;
        Ok(())
    }
}

/// Σ [`Page::used`](sj_storage::Page::used) over the pages of `file`:
/// the bytes its records occupy.
#[cfg(test)]
pub(crate) fn stored_bytes(pool: &mut BufferPool, file: &HeapFile) -> usize {
    let mut pages: Vec<_> = (0..file.len()).map(|i| file.rid(i).page).collect();
    pages.sort_unstable();
    pages.dedup();
    let used = |page| pool.try_fetch(page).unwrap().used();
    pages.into_iter().map(used).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Point, Polygon, Rect};
    use sj_storage::{Disk, DiskConfig};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 32)
    }

    fn tuples(n: usize) -> Vec<(u64, Geometry)> {
        (0..n)
            .map(|i| {
                (
                    i as u64,
                    Geometry::Point(Point::new(i as f64, (i * 2) as f64)),
                )
            })
            .collect()
    }

    #[test]
    fn build_and_read_back() {
        let mut p = pool();
        let rel = StoredRelation::build(&mut p, &tuples(17), 300, Layout::Clustered);
        assert_eq!(rel.len(), 17);
        assert_eq!(rel.tuples_per_page(), 5);
        assert_eq!(rel.page_count(), 4);
        let (id, g) = rel.try_read_by_id(&mut p, 9).unwrap();
        assert_eq!(id, 9);
        assert_eq!(g, Geometry::Point(Point::new(9.0, 18.0)));
    }

    #[test]
    fn scan_costs_one_read_per_page() {
        let mut p = pool();
        let rel = StoredRelation::build(&mut p, &tuples(23), 300, Layout::Unclustered { seed: 5 });
        p.clear();
        p.reset_stats();
        let rows = rel.try_scan(&mut p).unwrap();
        assert_eq!(rows.len(), 23);
        assert_eq!(p.stats().physical_reads as usize, rel.page_count());
        // Every tuple decodes to its original value.
        for (id, g) in rows {
            assert_eq!(g, Geometry::Point(Point::new(id as f64, (id * 2) as f64)));
        }
    }

    #[test]
    fn append_grows_relation() {
        let mut p = pool();
        let mut rel = StoredRelation::build(&mut p, &tuples(5), 300, Layout::Clustered);
        let g = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 1.0, 1.0));
        let before = p.stats();
        rel.try_insert(&mut p, 100, &g).unwrap();
        assert!(p.stats().since(&before).physical_writes >= 1);
        assert_eq!(rel.len(), 6);
        assert_eq!(rel.try_read_by_id(&mut p, 100).unwrap().1, g);
    }

    #[test]
    fn delete_preserves_survivor_order_and_charges_one_write() {
        let mut p = pool();
        let mut rel = StoredRelation::build(&mut p, &tuples(12), 300, Layout::Clustered);
        let before = p.stats();
        let pos = rel.try_delete(&mut p, 4).unwrap();
        assert_eq!(pos, 4);
        assert_eq!(p.stats().since(&before).physical_writes, 1);
        assert_eq!(rel.len(), 11);
        // Survivors keep their relative order: positions close the gap.
        let got: Vec<u64> = rel
            .try_scan(&mut p)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let want: Vec<u64> = (0..12).filter(|&i| i != 4).collect();
        assert_eq!(got, want);
        // Position-order reads agree with id-directed reads.
        assert_eq!(rel.try_read_at(&mut p, 4).unwrap().0, 5);
        assert_eq!(rel.try_read_by_id(&mut p, 11).unwrap().0, 11);
    }

    #[test]
    fn insert_after_delete_appends_at_the_end() {
        let mut p = pool();
        let mut rel = StoredRelation::build(&mut p, &tuples(6), 300, Layout::Clustered);
        rel.try_delete(&mut p, 2).unwrap();
        let g = Geometry::Point(Point::new(9.0, 9.0));
        rel.try_insert(&mut p, 50, &g).unwrap();
        let got: Vec<u64> = rel
            .try_scan(&mut p)
            .unwrap()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(got, vec![0, 1, 3, 4, 5, 50]);
        assert_eq!(rel.try_read_by_id(&mut p, 50).unwrap().1, g);
    }

    #[test]
    fn replace_overwrites_in_place() {
        let mut p = pool();
        let mut rel = StoredRelation::build(&mut p, &tuples(7), 300, Layout::Clustered);
        let g = Geometry::Rect(Rect::from_bounds(1.0, 1.0, 2.0, 2.0));
        let before = p.stats();
        rel.try_replace(&mut p, 3, &g).unwrap();
        assert_eq!(p.stats().since(&before).physical_writes, 1);
        assert_eq!(rel.len(), 7);
        assert_eq!(rel.try_read_by_id(&mut p, 3).unwrap().1, g);
        assert_eq!(
            rel.try_read_at(&mut p, 3).unwrap().0,
            3,
            "position unchanged"
        );
    }

    /// The id → slot directory plus binary search must behave like the
    /// plainest model there is — a `Vec` of tuples in position order —
    /// under any interleaving of mutations and reads, and survive a
    /// catalog round trip once deletes have made positions ≠ slots.
    #[test]
    fn interleaved_mutations_match_a_vec_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x51075);
        let mut p = pool();
        let mut model = tuples(40);
        let mut rel = StoredRelation::build(&mut p, &model, 300, Layout::Clustered);
        let mut next_id = 1_000;
        for step in 0..400 {
            let g = Geometry::Point(Point::new(step as f64, rng.random_range(0.0..9.0)));
            let at = (!model.is_empty()).then(|| rng.random_range(0..model.len()));
            match (rng.random_range(0..4), at) {
                (0, Some(at)) => {
                    assert_eq!(rel.try_delete(&mut p, model[at].0).unwrap(), at);
                    model.remove(at);
                }
                (1, Some(at)) => {
                    rel.try_replace(&mut p, model[at].0, &g).unwrap();
                    model[at].1 = g;
                }
                (2, Some(at)) => {
                    assert_eq!(rel.try_read_by_id(&mut p, model[at].0).unwrap(), model[at]);
                    assert_eq!(rel.try_read_at(&mut p, at).unwrap(), model[at]);
                }
                _ => {
                    rel.try_insert(&mut p, next_id, &g).unwrap();
                    model.push((next_id, g));
                    next_id += 1;
                }
            }
            if step % 25 == 0 {
                assert_eq!(rel.try_scan(&mut p).unwrap(), model);
            }
        }
        assert!(rel.slots.iter().enumerate().any(|(pos, &slot)| pos != slot));

        let (file, ids, slots) = (rel.file.clone(), rel.ids.clone(), rel.slots.clone());
        let reloaded = StoredRelation::from_parts(file, ids, slots);
        assert_eq!(reloaded.try_scan(&mut p).unwrap(), model);
        for (id, g) in &model {
            assert_eq!(&reloaded.try_read_by_id(&mut p, *id).unwrap().1, g);
        }
    }

    /// Records are stored at their frame length through every mutation:
    /// the file's pages hold exactly Σ `encoded_len` of the live tuples,
    /// also after a record mid-page grows or shrinks in place.
    #[test]
    fn pages_hold_exactly_the_live_frames() {
        let mut p = pool();
        let mut model = tuples(12);
        let mut rel = StoredRelation::build(&mut p, &model, 300, Layout::Clustered);
        let check = |p: &mut BufferPool, rel: &StoredRelation, model: &[(u64, Geometry)]| {
            let want: usize = model.iter().map(|(_, g)| codec::encoded_len(g)).sum();
            assert_eq!(stored_bytes(p, &rel.file), want);
            assert_eq!(rel.try_scan(p).unwrap(), model);
        };
        check(&mut p, &rel, &model);
        let gon = |n| Geometry::Polygon(Polygon::regular(Point::new(5.0, 5.0), 2.0, n));
        rel.try_insert(&mut p, 100, &gon(6)).unwrap();
        model.push((100, gon(6)));
        check(&mut p, &rel, &model);
        // Tuple 2 sits mid-page (slot 2 of m = 5): a larger polygon, then
        // a smaller one.
        for n in [12, 3] {
            rel.try_replace(&mut p, 2, &gon(n)).unwrap();
            model[2].1 = gon(n);
            check(&mut p, &rel, &model);
        }
        rel.try_delete(&mut p, 1).unwrap();
        model.remove(1);
        check(&mut p, &rel, &model);
    }

    #[test]
    #[should_panic(expected = "unknown tuple id")]
    fn delete_of_missing_id_panics() {
        let mut p = pool();
        let mut rel = StoredRelation::build(&mut p, &tuples(3), 300, Layout::Clustered);
        let _ = rel.try_delete(&mut p, 99);
    }

    #[test]
    #[should_panic(expected = "duplicate tuple id")]
    fn duplicate_ids_rejected() {
        let mut p = pool();
        let mut ts = tuples(3);
        ts.push((1, Geometry::Point(Point::new(0.0, 0.0))));
        let _ = StoredRelation::build(&mut p, &ts, 300, Layout::Clustered);
    }

    #[test]
    fn corrupt_record_surfaces_as_page_corrupt() {
        let mut p = pool();
        let rel = StoredRelation::build(&mut p, &tuples(4), 300, Layout::Clustered);
        // Smash the geometry tag of record 1 in place through the pool.
        let rid = rel.file.rid(rel.slots[1]);
        p.try_update(rid.page, |pg| {
            let mut bytes = pg.get(rid.slot).expect("live record").to_vec();
            bytes[8] = 0x7f; // unknown tag
            pg.update(rid.slot, bytes);
        })
        .unwrap();
        match rel.try_read_at(&mut p, 1) {
            Err(StorageError::PageCorrupt { page }) => assert_eq!(page, rid.page),
            other => panic!("expected PageCorrupt, got {other:?}"),
        }
    }
}
