//! The simulated disk: a growable array of pages with physical-I/O
//! counters. All access normally goes through [`crate::BufferPool`].

use std::sync::Arc;

use crate::cow::CowVec;
use crate::error::StorageError;
use crate::fault::{FaultInjector, FaultOp};
use crate::page::{Page, PageId};
use crate::stats::IoStats;

/// Disk geometry, mirroring the model parameters `s` (page size in bytes)
/// and `l` (average space utilization).
#[derive(Debug, Clone, Copy)]
pub struct DiskConfig {
    /// Page size in bytes (the model's `s`; Table 3 uses 2000).
    pub page_size: usize,
    /// Average space utilization in `(0, 1]` (the model's `l`; Table 3 uses
    /// 0.75). The effective record capacity of a page is
    /// `page_size * utilization`.
    pub utilization: f64,
}

impl DiskConfig {
    /// The paper's Table 3 configuration: s = 2000 bytes, l = 0.75.
    pub fn paper() -> Self {
        DiskConfig {
            page_size: 2000,
            utilization: 0.75,
        }
    }

    /// Effective per-page byte capacity `⌊s · l⌋`.
    pub fn effective_capacity(&self) -> usize {
        assert!(
            self.utilization > 0.0 && self.utilization <= 1.0,
            "utilization must be in (0, 1], got {}",
            self.utilization
        );
        (self.page_size as f64 * self.utilization).floor() as usize
    }

    /// Records of `record_size` bytes that fit on one page — the model's
    /// derived variable `m = ⌊l·s / v⌋`.
    pub fn records_per_page(&self, record_size: usize) -> usize {
        assert!(record_size > 0, "record size must be positive");
        let m = self.effective_capacity() / record_size;
        assert!(
            m > 0,
            "record of {record_size} bytes exceeds effective page capacity {}",
            self.effective_capacity()
        );
        m
    }
}

/// The page table, in chunks of 64 handles: small enough that a commit's
/// ≈ 85 scattered page writes re-count a fraction of the table, large
/// enough that the spine stays cache-resident under reads (DESIGN.md §5i).
type PageTable = CowVec<Arc<Page>, 64>;

/// The simulated disk.
///
/// Pages are stored behind [`Arc`] in a shared page table, so
/// [`Disk::read_view`] hands out a copy-on-write snapshot in O(1). A read
/// charges its I/O and moves no page: a fetch lends the table's bytes.
#[derive(Debug)]
pub struct Disk {
    config: DiskConfig,
    pages: Arc<PageTable>,
    stats: IoStats,
    /// Optional deterministic fault injector consulted by every physical
    /// operation.
    injector: Option<FaultInjector>,
    /// Optional cap on the number of pages (testing knob: exercises
    /// [`StorageError::DiskFull`] without allocating 2³² pages).
    page_limit: Option<u32>,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new(config: DiskConfig) -> Self {
        // Validate eagerly.
        let _ = config.effective_capacity();
        Disk {
            config,
            pages: Arc::default(),
            stats: IoStats::default(),
            injector: None,
            page_limit: None,
        }
    }

    /// Arms (or with `None`, disarms) the fault injector. Without one,
    /// only an unknown page id or an exhausted disk can fail.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// The armed injector, if any (e.g. to inspect its fault trace).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Caps the disk at `limit` pages (`None` removes the cap). Testing
    /// knob for the [`StorageError::DiskFull`] path.
    pub fn set_page_limit(&mut self, limit: Option<u32>) {
        self.page_limit = limit;
    }

    /// Disk geometry.
    #[inline]
    pub fn config(&self) -> DiskConfig {
        self.config
    }

    /// Number of allocated pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Allocates a fresh empty page, or fails with
    /// [`StorageError::DiskFull`] when the page-id space (or an explicit
    /// page limit) is exhausted, or with an injected allocation fault.
    pub fn try_allocate(&mut self) -> Result<PageId, StorageError> {
        let raw = u32::try_from(self.pages.len()).map_err(|_| StorageError::DiskFull)?;
        if self.page_limit.is_some_and(|limit| raw >= limit) {
            return Err(StorageError::DiskFull);
        }
        let id = PageId(raw);
        if let Some(inj) = &mut self.injector {
            inj.check(FaultOp::Alloc, id)?;
        }
        let page = Arc::new(Page::new(self.config.effective_capacity()));
        Arc::make_mut(&mut self.pages).push(page);
        Ok(id)
    }

    /// Page `id`'s current image, charging nothing — the bytes behind a
    /// buffer frame. Fails with [`StorageError::PageCorrupt`] for an
    /// unknown page id.
    pub(crate) fn page(&self, id: PageId) -> Result<&Page, StorageError> {
        let page = self.pages.get(id.index());
        page.map(|p| &**p)
            .ok_or(StorageError::PageCorrupt { page: id })
    }

    /// Charges one physical read of page `id`; the bytes stay in the page
    /// table, where [`Disk::page`] lends them. Fails with
    /// [`StorageError::PageCorrupt`] for an unknown page id, or with an
    /// injected read fault (which charges no I/O: the page never arrived).
    pub(crate) fn try_read(&mut self, id: PageId) -> Result<(), StorageError> {
        self.page(id)?;
        if let Some(inj) = &mut self.injector {
            inj.check(FaultOp::Read, id)?;
        }
        self.stats.physical_reads += 1;
        Ok(())
    }

    /// Writes a page image, charging one physical write on success. Fails
    /// as [`Disk::try_read`] does; a failed write leaves the old image
    /// (writes never tear).
    pub(crate) fn try_write(&mut self, id: PageId, page: Page) -> Result<(), StorageError> {
        self.page(id)?;
        if let Some(inj) = &mut self.injector {
            inj.check(FaultOp::Write, id)?;
        }
        self.stats.physical_writes += 1;
        *Arc::make_mut(&mut self.pages).get_mut(id.index()) = Arc::new(page);
        Ok(())
    }

    /// A copy-on-write snapshot of this disk for read-mostly parallel
    /// work: the snapshot shares the page table with `self` (one pointer
    /// clone, nothing per page) and starts with zeroed counters so each
    /// worker's I/O is accounted independently. Whichever disk writes or
    /// allocates first takes its own spine of the table, and then its own
    /// copy of each chunk of handles it writes into (no byte copies), so
    /// neither sees the other's changes.
    /// The armed injector is cloned stream-state and all, so a shard's
    /// fault decisions are a deterministic function of its own operation
    /// sequence (each shard owns an independent stream and budget).
    pub fn read_view(&self) -> Disk {
        Disk {
            config: self.config,
            pages: Arc::clone(&self.pages),
            stats: IoStats::default(),
            injector: self.injector.clone(),
            page_limit: self.page_limit,
        }
    }

    /// Chunks of the page table this disk no longer shares with `since`.
    #[doc(hidden)]
    pub fn copied_chunks(&self, since: &Disk) -> usize {
        self.pages.copied_chunks(&since.pages)
    }

    /// Physical I/O counters.
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    pub(crate) fn add_logical_read(&mut self) {
        self.stats.logical_reads += 1;
    }

    /// Zeroes all counters.
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A page, read without charging I/O.
    fn peek(disk: &Disk, id: PageId) -> &Page {
        disk.page(id).unwrap()
    }

    /// Read-modify-write of one page, charging one read and one write.
    fn push(d: &mut Disk, id: PageId, record: Vec<u8>) {
        d.try_read(id).unwrap();
        let mut page = peek(d, id).clone();
        page.push(record);
        d.try_write(id, page).unwrap();
    }

    #[test]
    fn paper_config_yields_m_equals_5() {
        // Table 3: v = 300, s = 2000, l = 0.75 → m = ⌊1500/300⌋ = 5.
        assert_eq!(DiskConfig::paper().records_per_page(300), 5);
    }

    #[test]
    fn effective_capacity_floor() {
        let c = DiskConfig {
            page_size: 1000,
            utilization: 0.66,
        };
        assert_eq!(c.effective_capacity(), 660);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_rejected() {
        let _ = DiskConfig {
            page_size: 100,
            utilization: 0.0,
        }
        .effective_capacity();
    }

    #[test]
    #[should_panic(expected = "exceeds effective page capacity")]
    fn oversized_record_rejected() {
        let _ = DiskConfig::paper().records_per_page(1600);
    }

    #[test]
    fn read_view_shares_pages_but_not_stats_or_writes() {
        let mut d = Disk::new(DiskConfig::paper());
        let id = d.try_allocate().unwrap();
        push(&mut d, id, vec![7; 4]);

        let mut view = d.read_view();
        assert_eq!(view.stats(), IoStats::default());
        view.try_read(id).unwrap();
        assert_eq!(peek(&view, id).used(), 4);
        assert_eq!(view.stats().physical_reads, 1);

        // Writes to the view are invisible to the original (copy-on-write).
        push(&mut view, id, vec![9; 6]);
        assert_eq!(peek(&view, id).used(), 10);
        assert_eq!(peek(&d, id).used(), 4);
        // ...and the original's counters never moved.
        assert_eq!(d.stats().physical_reads, 1);
        assert_eq!(d.stats().physical_writes, 1);
    }

    /// A view is one pointer clone of the page table: it stays shared
    /// until either side allocates or writes, and the side that does
    /// takes its own copy — the other never sees the change.
    #[test]
    fn read_view_shares_the_page_table_until_either_side_writes() {
        let mut d = Disk::new(DiskConfig::paper());
        let ids: Vec<PageId> = (0..3).map(|_| d.try_allocate().unwrap()).collect();
        push(&mut d, ids[0], vec![1; 4]);

        let mut view = d.read_view();
        let mut nested = view.read_view();
        assert!(Arc::ptr_eq(&d.pages, &view.pages) && Arc::ptr_eq(&d.pages, &nested.pages));
        // Reads on any side leave the table shared.
        view.try_read(ids[0]).unwrap();
        d.try_read(ids[1]).unwrap();
        assert!(Arc::ptr_eq(&d.pages, &view.pages));

        // The view writes: it alone leaves the shared table.
        push(&mut view, ids[0], vec![2; 6]);
        assert!(!Arc::ptr_eq(&d.pages, &view.pages));
        assert!(Arc::ptr_eq(&d.pages, &nested.pages));
        assert_eq!(
            (peek(&d, ids[0]).used(), peek(&view, ids[0]).used()),
            (4, 10)
        );
        // Untouched pages are still the same images, not copies.
        assert!(Arc::ptr_eq(&d.pages[1], &view.pages[1]));
        assert_eq!(
            view.copied_chunks(&d),
            1,
            "one chunk of handles, not the table"
        );

        // The parent allocates and writes: the nested view keeps the old table.
        let extra = d.try_allocate().unwrap();
        push(&mut d, ids[1], vec![3; 8]);
        assert!(!Arc::ptr_eq(&d.pages, &nested.pages));
        assert_eq!((d.page_count(), nested.page_count()), (4, 3));
        assert_eq!(peek(&nested, ids[1]).used(), 0);
        assert_eq!(peek(&nested, ids[0]).used(), 4);
        assert_eq!(
            nested.try_read(extra).err(),
            Some(crate::StorageError::PageCorrupt { page: extra })
        );
        // A disk nobody shares with writes in place.
        let before = Arc::as_ptr(&d.pages);
        push(&mut d, ids[2], vec![4; 2]);
        assert_eq!(Arc::as_ptr(&d.pages), before);
    }

    #[test]
    fn read_shared_is_the_same_image() {
        let mut d = Disk::new(DiskConfig::paper());
        let id = d.try_allocate().unwrap();
        push(&mut d, id, vec![1; 3]);
        let before: *const Page = peek(&d, id);
        d.try_read(id).unwrap();
        assert!(std::ptr::eq(before, peek(&d, id)), "a read moves no image");
        assert_eq!(peek(&d, id).used(), 3);
        assert_eq!(d.stats().physical_reads, 2);
    }

    #[test]
    fn page_limit_turns_allocation_into_disk_full() {
        let mut d = Disk::new(DiskConfig::paper());
        d.set_page_limit(Some(2));
        assert!(d.try_allocate().is_ok());
        assert!(d.try_allocate().is_ok());
        assert_eq!(d.try_allocate(), Err(crate::StorageError::DiskFull));
        // Lifting the cap resumes allocation.
        d.set_page_limit(None);
        assert!(d.try_allocate().is_ok());
    }

    #[test]
    fn unknown_page_reads_and_writes_are_page_corrupt() {
        let mut d = Disk::new(DiskConfig::paper());
        let missing = PageId(9);
        assert_eq!(
            d.try_read(missing).err(),
            Some(crate::StorageError::PageCorrupt { page: missing })
        );
        assert_eq!(
            d.try_write(missing, Page::new(10)),
            Err(crate::StorageError::PageCorrupt { page: missing })
        );
        assert_eq!(d.stats(), IoStats::default(), "failed I/O charges nothing");
    }

    #[test]
    fn injected_read_fault_surfaces_and_charges_no_io() {
        use crate::fault::{FaultConfig, FaultInjector, FaultOp};
        let mut d = Disk::new(DiskConfig::paper());
        let id = d.try_allocate().unwrap();
        let cfg = FaultConfig {
            read_prob: 1.0,
            ..FaultConfig::default()
        };
        d.set_fault_injector(Some(FaultInjector::new(cfg)));
        assert_eq!(
            d.try_read(id).err(),
            Some(crate::StorageError::InjectedFault {
                op: FaultOp::Read,
                page: id
            })
        );
        assert_eq!(d.stats().physical_reads, 0);
        assert_eq!(d.fault_injector().unwrap().injected(), 1);
        d.set_fault_injector(None);
        assert!(d.try_read(id).is_ok());
    }

    #[test]
    fn failed_write_never_tears_the_page_image() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut d = Disk::new(DiskConfig::paper());
        let id = d.try_allocate().unwrap();
        push(&mut d, id, vec![1; 3]);
        let cfg = FaultConfig {
            write_prob: 1.0,
            ..FaultConfig::default()
        };
        d.set_fault_injector(Some(FaultInjector::new(cfg)));
        let mut q = peek(&d, id).clone();
        q.push(vec![2; 5]);
        assert!(d.try_write(id, q).is_err());
        assert_eq!(peek(&d, id).used(), 3, "failed write left the old image");
    }

    #[test]
    fn read_write_counts() {
        let mut d = Disk::new(DiskConfig::paper());
        let id = d.try_allocate().unwrap();
        push(&mut d, id, vec![1, 2, 3]);
        assert_eq!(d.stats().physical_reads, 1);
        assert_eq!(d.stats().physical_writes, 1);
        assert_eq!(peek(&d, id).used(), 3);
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }
}
