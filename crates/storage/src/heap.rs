//! Heap files: files of fixed slot width `v` holding frame-length records,
//! with *clustered* or *unclustered* record placement.
//!
//! The slot width prices the file as the paper does (§4.1): a page holds
//! `m = ⌊l·s/v⌋` records, so page ids and I/O counts follow `v` alone. A
//! record is stored at its own length, any length up to `v`; the page
//! keeps only its bytes, never padding out to `v`.
//!
//! The placement distinction is the heart of the paper's strategy IIa vs.
//! IIb comparison (§4.1): with `Layout::Clustered`, logically consecutive
//! records (e.g. a generalization tree in breadth-first order) are packed
//! onto consecutive pages; with `Layout::Unclustered`, records are strewn
//! across the file in a seeded random permutation, so fetching a set of
//! logically adjacent records touches ≈ Yao-many distinct pages.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::buffer::BufferPool;
use crate::cow::CowVec;
use crate::error::StorageError;
use crate::page::PageId;

/// Physical address of a record: page plus slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    pub page: PageId,
    pub slot: u16,
}

/// Record placement policy for [`HeapFile::bulk_load`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Logical record order = physical order (strategy IIb's premise).
    Clustered,
    /// Records are placed in a seeded random permutation of the physical
    /// slots (strategy IIa's premise: "the participating nodes are randomly
    /// distributed in the file").
    Unclustered {
        /// Seed for the placement permutation, for reproducible runs.
        seed: u64,
    },
}

/// A file of records in fixed-width slots (at most `m` records of at most
/// `v` bytes a page) with a logical-to-physical directory.
/// Both arrays only grow at the end, so a clone shares everything and an
/// append copies the last chunk: large chunks, short spines.
#[derive(Debug, Clone)]
pub struct HeapFile {
    pages: CowVec<PageId, 256>,
    /// `directory[i]` is the physical address of logical record `i`.
    directory: CowVec<RecordId, 256>,
    record_size: usize,
    records_per_page: usize,
}

impl HeapFile {
    /// Bulk-loads `count` records of at most `record_size` bytes (the
    /// slot width `v`) produced by `make_record(i)` (logical order),
    /// placing them `m` to a page per `layout`. The first allocation or
    /// write fault aborts the load (pages allocated so far are harmlessly
    /// orphaned).
    ///
    /// # Panics
    ///
    /// Panics if `make_record` returns a record longer than `record_size`.
    pub fn bulk_load_with(
        pool: &mut BufferPool,
        record_size: usize,
        count: usize,
        layout: Layout,
        mut make_record: impl FnMut(usize) -> Vec<u8>,
    ) -> Result<Self, StorageError> {
        let m = pool.config().records_per_page(record_size);
        let page_count = count.div_ceil(m).max(1);
        let pages = (0..page_count)
            .map(|_| pool.try_allocate())
            .collect::<Result<Vec<PageId>, _>>()?;

        // physical_of[i] = physical position of logical record i.
        let mut physical_of: Vec<usize> = (0..count).collect();
        if let Layout::Unclustered { seed } = layout {
            let mut rng = StdRng::seed_from_u64(seed);
            physical_of.shuffle(&mut rng);
        }

        // logical_at[p] = the logical record stored at physical position p.
        let mut logical_at = vec![0; count];
        for (logical, &phys) in physical_of.iter().enumerate() {
            logical_at[phys] = logical;
        }
        let mut directory = vec![
            RecordId {
                page: pages[0],
                slot: 0,
            };
            count
        ];
        // Fill each page's slots in physical order, then write it through
        // once: every write through the pool copies the page.
        for (&page, residents) in pages.iter().zip(logical_at.chunks(m)) {
            pool.try_update(page, |p| {
                for &logical in residents {
                    let record = make_record(logical);
                    assert!(
                        record.len() <= record_size,
                        "make_record must produce records of at most {record_size} bytes"
                    );
                    let slot = p.push(record);
                    directory[logical] = RecordId { page, slot };
                }
            })?;
        }

        Ok(HeapFile {
            pages: pages.into_iter().collect(),
            directory: directory.into_iter().collect(),
            record_size,
            records_per_page: m,
        })
    }

    /// Bulk-loads zero-filled records (sufficient when only I/O patterns,
    /// not contents, matter).
    pub fn bulk_load(
        pool: &mut BufferPool,
        record_size: usize,
        count: usize,
        layout: Layout,
    ) -> Result<Self, StorageError> {
        Self::bulk_load_with(pool, record_size, count, layout, |_| vec![0; record_size])
    }

    /// Appends one record at the end of the file, allocating a page if
    /// needed. Returns the logical index of the new record, or a typed
    /// error: [`StorageError::Io`] for a record wider than the slot width
    /// or a structurally empty file, [`StorageError::DiskFull`] when no
    /// page can be allocated, or any propagated I/O fault. On error the
    /// file is unchanged (a page allocated before a failed push is
    /// harmlessly orphaned).
    pub fn try_append(
        &mut self,
        pool: &mut BufferPool,
        record: Vec<u8>,
    ) -> Result<usize, StorageError> {
        if record.len() > self.record_size {
            return Err(StorageError::Io(format!(
                "record of {} bytes appended to a file of {}-byte slots",
                record.len(),
                self.record_size
            )));
        }
        let Some(&last) = self.pages.last() else {
            return Err(StorageError::Io("heap file has no pages".to_string()));
        };
        let has_room = pool.try_fetch(last)?.slot_count() < self.records_per_page;
        let page = if has_room { last } else { pool.try_allocate()? };
        let mut slot = 0;
        pool.try_update(page, |p| {
            slot = p.push(record);
        })?;
        if !has_room {
            self.pages.push(page);
        }
        self.directory.push(RecordId { page, slot });
        Ok(self.directory.len() - 1)
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True if the file holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Number of pages (the model's `⌈N/m⌉`).
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Records per page (the model's `m`).
    #[inline]
    pub fn records_per_page(&self) -> usize {
        self.records_per_page
    }

    /// Slot width in bytes (the model's `v`): the most a record may hold.
    #[inline]
    pub fn record_size(&self) -> usize {
        self.record_size
    }

    /// Physical address of logical record `i`.
    #[inline]
    pub fn rid(&self, i: usize) -> RecordId {
        self.directory[i]
    }

    pub(crate) fn owns_page(&self, page: PageId) -> bool {
        self.pages.iter().any(|&p| p == page)
    }

    /// Chunks of both arrays this file no longer shares with `since`.
    #[doc(hidden)]
    pub fn copied_chunks(&self, since: &HeapFile) -> usize {
        self.pages.copied_chunks(&since.pages) + self.directory.copied_chunks(&since.directory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Disk, DiskConfig};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    #[test]
    fn clustered_packs_sequentially() {
        let mut p = pool();
        let f =
            HeapFile::bulk_load_with(&mut p, 300, 12, Layout::Clustered, |i| vec![i as u8; 300])
                .unwrap();
        assert_eq!(f.page_count(), 3); // ⌈12/5⌉
        assert_eq!(f.records_per_page(), 5);
        // Logical record i sits on page i/5.
        for i in 0..12 {
            assert_eq!(f.rid(i).page, f.pages[i / 5]);
        }
        // Contents round-trip.
        for i in 0..12 {
            assert_eq!(p.try_read_record(&f, f.rid(i)).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn unclustered_scatters_but_preserves_contents() {
        let mut p = pool();
        let f = HeapFile::bulk_load_with(&mut p, 300, 50, Layout::Unclustered { seed: 7 }, |i| {
            vec![i as u8; 300]
        })
        .unwrap();
        assert_eq!(f.page_count(), 10);
        // Contents still round-trip through the directory.
        for i in 0..50 {
            assert_eq!(p.try_read_record(&f, f.rid(i)).unwrap()[0], i as u8);
        }
        // The first 5 logical records should *not* all be on the first page
        // (they would be, if clustered). With seed 7 this is deterministic.
        let first_page = f.pages[0];
        let on_first = (0..5).filter(|&i| f.rid(i).page == first_page).count();
        assert!(on_first < 5, "placement should be scattered");
    }

    #[test]
    fn unclustered_fetching_a_run_costs_more_pages() {
        // Fetching 10 consecutive logical records: clustered = 2 pages,
        // unclustered ≈ Yao(10, 20, 100) ≈ 8 pages.
        let mut pc = pool();
        let fc = HeapFile::bulk_load(&mut pc, 300, 100, Layout::Clustered).unwrap();
        pc.clear();
        pc.reset_stats();
        for i in 0..10 {
            pc.try_read_record(&fc, fc.rid(i)).unwrap();
        }
        let clustered_reads = pc.stats().physical_reads;

        let mut pu = pool();
        let fu = HeapFile::bulk_load(&mut pu, 300, 100, Layout::Unclustered { seed: 42 }).unwrap();
        pu.clear();
        pu.reset_stats();
        for i in 0..10 {
            pu.try_read_record(&fu, fu.rid(i)).unwrap();
        }
        let unclustered_reads = pu.stats().physical_reads;

        assert_eq!(clustered_reads, 2);
        assert!(
            unclustered_reads > clustered_reads,
            "unclustered ({unclustered_reads}) should exceed clustered ({clustered_reads})"
        );
    }

    #[test]
    fn append_extends_file() {
        let mut p = pool();
        let mut f = HeapFile::bulk_load(&mut p, 300, 5, Layout::Clustered).unwrap();
        assert_eq!(f.page_count(), 1);
        let idx = f.try_append(&mut p, vec![9; 300]).unwrap();
        assert_eq!(idx, 5);
        assert_eq!(f.page_count(), 2); // page 0 held exactly m = 5
        assert_eq!(p.try_read_record(&f, f.rid(5)).unwrap(), vec![9; 300]);
    }

    /// A bulk load fills each page in memory and writes it through once,
    /// whatever the layout — not once per record.
    #[test]
    fn bulk_load_writes_each_page_once() {
        for layout in [Layout::Clustered, Layout::Unclustered { seed: 3 }] {
            let mut p = pool();
            let f =
                HeapFile::bulk_load_with(&mut p, 300, 23, layout, |i| vec![i as u8; 300]).unwrap();
            assert_eq!(f.page_count(), 5);
            assert_eq!(p.stats().physical_writes as usize, f.page_count());
            assert_eq!(
                p.stats().physical_reads,
                0,
                "fresh pages have no image to read"
            );
            // Slots were assigned in physical order within each page.
            for page in f.pages.iter() {
                let on_page = (0..23).filter(|&i| f.rid(i).page == *page);
                let mut slots: Vec<u16> = on_page.map(|i| f.rid(i).slot).collect();
                slots.sort_unstable();
                assert!(slots.iter().enumerate().all(|(at, &s)| s as usize == at));
            }
        }
    }

    #[test]
    fn append_to_structurally_empty_file_is_a_typed_error() {
        // The public API never yields a pageless file; construct one
        // directly to pin the boundary behavior.
        let mut p = pool();
        let mut f = HeapFile {
            pages: CowVec::new(),
            directory: CowVec::new(),
            record_size: 300,
            records_per_page: 5,
        };
        match f.try_append(&mut p, vec![0; 300]) {
            Err(StorageError::Io(msg)) => assert!(msg.contains("no pages"), "{msg}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(f.is_empty(), "failed append must not grow the directory");
    }

    /// A record wider than the slot width is a typed error; a shorter
    /// one is stored at its own length and read back as written.
    #[test]
    fn append_size_mismatch_is_a_typed_error() {
        let mut p = pool();
        let mut f = HeapFile::bulk_load(&mut p, 300, 2, Layout::Clustered).unwrap();
        assert!(matches!(
            f.try_append(&mut p, vec![0; 301]),
            Err(StorageError::Io(_))
        ));
        assert_eq!(f.len(), 2);
        let used = p.try_fetch(f.rid(0).page).unwrap().used();
        let idx = f.try_append(&mut p, vec![7; 10]).unwrap();
        assert_eq!(f.len(), 3);
        assert_eq!(p.try_read_record(&f, f.rid(idx)).unwrap(), &[7u8; 10][..]);
        assert_eq!(p.try_fetch(f.rid(idx).page).unwrap().used(), used + 10);
    }

    #[test]
    fn append_surfaces_disk_full_and_leaves_file_consistent() {
        let mut p = pool();
        let mut f = HeapFile::bulk_load(&mut p, 300, 5, Layout::Clustered).unwrap();
        assert_eq!(f.page_count(), 1); // full: m = 5
                                       // Freeze the disk at its current size; the next append needs a
                                       // fresh page and must fail typed, not panic.
        let limit = u32::try_from(p.disk().page_count()).unwrap();
        p.set_page_limit(Some(limit));
        assert_eq!(
            f.try_append(&mut p, vec![1; 300]),
            Err(StorageError::DiskFull)
        );
        assert_eq!(f.len(), 5, "failed append must not grow the directory");
        assert_eq!(f.page_count(), 1);
    }

    #[test]
    fn empty_bulk_load_is_valid() {
        let mut p = pool();
        let f = HeapFile::bulk_load(&mut p, 300, 0, Layout::Clustered).unwrap();
        assert!(f.is_empty());
        assert_eq!(f.page_count(), 1); // one pre-allocated page for appends
    }
}
