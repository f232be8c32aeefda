//! An exact-LRU buffer pool.
//!
//! The pool's page capacity plays the role of the model's `M` (main memory
//! size in pages, Table 2). Only buffer misses reach the disk's physical
//! read counter, so an executor's `physical_reads` after a run is directly
//! comparable with the I/O terms of the cost formulas. Recency is tracked
//! with an intrusive doubly-linked list, giving O(1) hits, misses, and
//! evictions.
//!
//! A frame holds a page id, not a page: the simulator is write-through,
//! so a resident page's bytes are the disk view's, and a fetch lends them
//! from there.

use std::collections::HashMap;

use crate::disk::{Disk, DiskConfig};
use crate::error::StorageError;
use crate::fault::FaultInjector;
use crate::hash::IntHashBuilder;
use crate::heap::{HeapFile, RecordId};
use crate::page::{Page, PageId};
use crate::stats::IoStats;

const NIL: usize = usize::MAX;

struct Frame {
    id: PageId,
    prev: usize,
    next: usize,
}

/// An LRU buffer pool in front of a [`Disk`].
pub struct BufferPool {
    disk: Disk,
    capacity: usize,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize, IntHashBuilder>,
    /// Most recently used frame (list head), or `NIL` when empty.
    head: usize,
    /// Least recently used frame (list tail), or `NIL` when empty.
    tail: usize,
    /// Pages displaced by LRU replacement since the last stats reset.
    evictions: u64,
}

impl BufferPool {
    /// Creates a pool caching up to `capacity` pages (must be ≥ 1).
    pub fn new(disk: Disk, capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        // Reserved up front; bounded, for a catalog file may name the capacity.
        let presized = capacity.min(1 << 10);
        BufferPool {
            disk,
            capacity,
            frames: Vec::with_capacity(presized),
            map: HashMap::with_capacity_and_hasher(presized, IntHashBuilder::default()),
            head: NIL,
            tail: NIL,
            evictions: 0,
        }
    }

    /// Page capacity of the pool (the model's `M`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Disk geometry.
    #[inline]
    pub fn config(&self) -> DiskConfig {
        self.disk.config()
    }

    /// Combined I/O counters (physical counts from the disk, logical from
    /// the pool).
    #[inline]
    pub fn stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Pages displaced by LRU replacement since the last stats reset.
    /// (Buffer hits are `stats().hits()`, misses `stats().physical_reads`.)
    #[inline]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Exposes the pool's hit/miss/eviction counters into a monotonic
    /// [`CounterRegistry`](sj_obs::CounterRegistry) under the
    /// `bufferpool.*` namespace, plus two gauges sampled at export time:
    /// `bufferpool.capacity` (the pool's frame budget, the model's `M`)
    /// and `bufferpool.resident` (frames currently occupied), so traces
    /// can show pool pressure next to hit/miss behavior. Call at a
    /// measurement boundary; the registry accumulates across calls
    /// (gauges included — export once per registry for point-in-time
    /// readings).
    pub fn export_counters(&self, reg: &mut sj_obs::CounterRegistry) {
        let io = self.stats();
        reg.add("bufferpool.hits", io.hits());
        reg.add("bufferpool.misses", io.physical_reads);
        reg.add("bufferpool.evictions", self.evictions);
        reg.add("bufferpool.physical_writes", io.physical_writes);
        reg.add("bufferpool.capacity", self.capacity as u64);
        reg.add("bufferpool.resident", self.frames.len() as u64);
    }

    /// Zeroes all counters (including the eviction count). Cached pages
    /// stay resident; combine with [`BufferPool::clear`] for a fully
    /// cold measurement.
    pub fn reset_stats(&mut self) {
        self.disk.reset_stats();
        self.evictions = 0;
    }

    /// Evicts every cached page (without counting I/O — the simulator uses
    /// write-through, so frames are never dirty).
    pub fn clear(&mut self) {
        self.frames.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// True if the page is currently resident.
    pub fn contains(&self, id: PageId) -> bool {
        self.map.contains_key(&id)
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// Arms (or disarms) the underlying disk's fault injector. Faults
    /// fire only on *physical* I/O — buffer hits never fault, mirroring
    /// real systems where resident pages cannot raise media errors.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.disk.set_fault_injector(injector);
    }

    /// The armed injector, if any (e.g. to inspect its fault trace).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.disk.fault_injector()
    }

    /// Caps the underlying disk at `limit` pages (see
    /// [`Disk::set_page_limit`]).
    pub fn set_page_limit(&mut self, limit: Option<u32>) {
        self.disk.set_page_limit(limit);
    }

    /// Allocates a fresh page on the underlying disk and makes it
    /// resident (no read is charged: newly allocated pages have no prior
    /// disk image). Fails with [`StorageError::DiskFull`] or an injected
    /// allocation fault.
    pub fn try_allocate(&mut self) -> Result<PageId, StorageError> {
        let id = self.disk.try_allocate()?;
        self.install(id);
        Ok(id)
    }

    /// Charges a visit to page `id` exactly as [`BufferPool::try_fetch`]
    /// does — a logical read, an LRU move, and on a miss a physical read
    /// (which alone can fault) and any eviction — and reads no byte.
    pub fn try_touch(&mut self, id: PageId) -> Result<(), StorageError> {
        self.disk.add_logical_read();
        match self.map.get(&id) {
            Some(&idx) if idx == self.head => {}
            Some(&idx) => {
                self.unlink(idx);
                self.link_front(idx);
            }
            None => {
                self.disk.try_read(id)?;
                self.install(id);
            }
        }
        Ok(())
    }

    /// Fetches a page, charging as [`BufferPool::try_touch`] does, and
    /// lends its bytes from the disk view (write-through: a resident
    /// page's bytes are the disk's).
    pub fn try_fetch(&mut self, id: PageId) -> Result<&Page, StorageError> {
        self.try_touch(id)?;
        self.disk.page(id)
    }

    /// Fetches a page (charged), mutates a copy and writes it through. A
    /// failed write leaves the disk's page, and so every later fetch, as
    /// it was — fail-stop leaves no torn state.
    pub fn try_update(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page),
    ) -> Result<(), StorageError> {
        let mut page = self.try_fetch(id)?.clone();
        f(&mut page);
        self.disk.try_write(id, page)
    }

    /// A private pool shard (one per service request, one per commit):
    /// a cold pool of `capacity` frames over a copy-on-write snapshot of
    /// the underlying disk (see [`Disk::read_view`]) — nothing per page.
    /// The shard starts with zeroed I/O counters, so its reads and
    /// writes are accounted on their own.
    pub fn fork_view(&self, capacity: usize) -> BufferPool {
        BufferPool::new(self.disk.read_view(), capacity)
    }

    /// The underlying disk (read-only; the simulator is write-through,
    /// so the disk is always current).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Reads one record through the pool, lending its bytes from the
    /// disk view's page. Fails with [`StorageError::DanglingRecord`] when
    /// the record id points at a missing or emptied slot (e.g. a stale
    /// rid probed after an update), or propagates the fetch's fault.
    pub fn try_read_record(
        &mut self,
        file: &HeapFile,
        rid: RecordId,
    ) -> Result<&[u8], StorageError> {
        debug_assert!(file.owns_page(rid.page), "record id from a different file");
        let (page, slot) = (rid.page, rid.slot);
        self.try_fetch(page)?
            .get(slot)
            .ok_or(StorageError::DanglingRecord { page, slot })
    }

    /// True if `rid` names a live record, charging nothing: for assertions
    /// that a record map agrees with its file.
    #[doc(hidden)]
    pub fn holds_record(&self, rid: RecordId) -> bool {
        self.disk
            .page(rid.page)
            .is_ok_and(|p| p.get(rid.slot).is_some())
    }

    /// Unlinks frame `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.frames[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.frames[next].prev = prev;
        }
    }

    /// Links frame `idx` at the MRU end.
    fn link_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn install(&mut self, id: PageId) {
        let frame = Frame {
            id,
            prev: NIL,
            next: NIL,
        };
        let idx = if self.frames.len() < self.capacity {
            self.frames.push(frame);
            self.frames.len() - 1
        } else {
            // Evict the LRU frame and reuse it.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity ≥ 1 and pool full");
            self.evictions += 1;
            self.unlink(victim);
            self.map.remove(&self.frames[victim].id);
            self.frames[victim] = frame;
            victim
        };
        self.map.insert(id, idx);
        self.link_front(idx);
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.frames.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), capacity)
    }

    #[test]
    fn hit_does_not_touch_disk() {
        let mut p = pool(4);
        let id = p.try_allocate().unwrap();
        p.reset_stats();
        p.try_fetch(id).unwrap();
        p.try_fetch(id).unwrap();
        let s = p.stats();
        assert_eq!(s.physical_reads, 0);
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.hits(), 2);
    }

    #[test]
    fn eviction_causes_reread() {
        let mut p = pool(2);
        let ids: Vec<_> = (0..3).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        p.reset_stats();
        p.try_fetch(ids[0]).unwrap(); // miss
        p.try_fetch(ids[1]).unwrap(); // miss
        p.try_fetch(ids[2]).unwrap(); // miss, evicts ids[0]
        assert_eq!(p.stats().physical_reads, 3);
        assert_eq!(p.resident(), 2);
        assert!(!p.contains(ids[0]));
        assert_eq!(p.evictions(), 1);
        p.try_fetch(ids[0]).unwrap(); // miss again, evicts ids[1]
        assert_eq!(p.stats().physical_reads, 4);
        assert_eq!(p.evictions(), 2);
    }

    #[test]
    fn counters_export_into_registry() {
        let mut p = pool(2);
        let ids: Vec<_> = (0..3).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        p.reset_stats();
        p.try_fetch(ids[0]).unwrap(); // miss
        p.try_fetch(ids[0]).unwrap(); // hit
        p.try_fetch(ids[1]).unwrap(); // miss
        p.try_fetch(ids[2]).unwrap(); // miss + eviction
        let mut reg = sj_obs::CounterRegistry::new();
        p.export_counters(&mut reg);
        assert_eq!(reg.get("bufferpool.hits"), 1);
        assert_eq!(reg.get("bufferpool.misses"), 3);
        assert_eq!(reg.get("bufferpool.evictions"), 1);
        // Pressure gauges: the 2-frame pool is full at export time.
        assert_eq!(reg.get("bufferpool.capacity"), 2);
        assert_eq!(reg.get("bufferpool.resident"), 2);
        // Monotonic: a second export accumulates rather than overwrites.
        p.export_counters(&mut reg);
        assert_eq!(reg.get("bufferpool.misses"), 6);
        // reset_stats clears the eviction count too.
        p.reset_stats();
        assert_eq!(p.evictions(), 0);
    }

    #[test]
    fn lru_keeps_recently_used_page() {
        let mut p = pool(2);
        let ids: Vec<_> = (0..3).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        p.reset_stats();
        p.try_fetch(ids[0]).unwrap();
        p.try_fetch(ids[1]).unwrap();
        p.try_fetch(ids[0]).unwrap(); // ids[0] is now MRU
        p.try_fetch(ids[2]).unwrap(); // evicts LRU = ids[1]
        assert!(p.contains(ids[0]));
        assert!(!p.contains(ids[1]));
        let before = p.stats().physical_reads;
        p.try_fetch(ids[0]).unwrap(); // still a hit
        assert_eq!(p.stats().physical_reads, before);
    }

    #[test]
    fn sequential_scan_larger_than_pool_thrashes() {
        let mut p = pool(4);
        let ids: Vec<_> = (0..8).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        p.reset_stats();
        // Two full sequential scans over 8 pages with a 4-page pool: LRU
        // gives zero reuse (the classic sequential-flooding pattern).
        for _ in 0..2 {
            for &id in &ids {
                p.try_fetch(id).unwrap();
            }
        }
        assert_eq!(p.stats().physical_reads, 16);
    }

    #[test]
    fn update_is_write_through() {
        let mut p = pool(2);
        let id = p.try_allocate().unwrap();
        p.reset_stats();
        p.try_update(id, |page| {
            page.push(vec![42; 8]);
        })
        .unwrap();
        let s = p.stats();
        assert_eq!(s.physical_writes, 1);
        // The disk image reflects the change even after clearing the pool.
        p.clear();
        assert_eq!(p.try_fetch(id).unwrap().used(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    #[test]
    fn fork_view_isolates_stats_and_writes() {
        let mut p = pool(4);
        let id = p.try_allocate().unwrap();
        p.try_update(id, |page| {
            page.push(vec![5; 4]);
        })
        .unwrap();
        p.reset_stats();

        let mut shard = p.fork_view(2);
        assert_eq!(shard.stats(), IoStats::default());
        assert_eq!(shard.try_fetch(id).unwrap().used(), 4);
        assert_eq!(shard.stats().physical_reads, 1);
        assert_eq!(shard.stats().logical_reads, 1);

        // A worker-side update is invisible to the parent pool and disk.
        shard
            .try_update(id, |page| {
                page.push(vec![6; 2]);
            })
            .unwrap();
        assert_eq!(shard.try_fetch(id).unwrap().used(), 6);
        p.clear();
        assert_eq!(p.try_fetch(id).unwrap().used(), 4);
        // Parent counters saw only the parent's own fetch.
        assert_eq!(p.stats().physical_reads, 1);
    }

    #[test]
    fn dangling_record_is_a_typed_error() {
        use crate::heap::{HeapFile, Layout};
        let mut p = pool(8);
        let f = HeapFile::bulk_load(&mut p, 300, 3, Layout::Clustered).unwrap();
        let rid = RecordId {
            page: f.rid(0).page,
            slot: 99,
        };
        assert_eq!(
            p.try_read_record(&f, rid),
            Err(StorageError::DanglingRecord {
                page: rid.page,
                slot: 99
            })
        );
        // Valid rids still read fine afterwards.
        assert_eq!(p.try_read_record(&f, f.rid(1)).unwrap().len(), 300);
    }

    /// What lending the bytes must not change: a cleared slot is still
    /// dangling, a resident page still cannot fault, and a faulted miss
    /// still leaves the page non-resident, so a retry reads it afresh.
    #[test]
    fn lent_record_reads_keep_the_fault_contract() {
        use crate::fault::{FaultConfig, FaultInjector};
        use crate::heap::{HeapFile, Layout};
        let mut p = pool(8);
        let f = HeapFile::bulk_load_with(&mut p, 300, 7, Layout::Clustered, |i| {
            vec![i as u8 + 1; 300]
        })
        .unwrap();
        let (live, dead) = (f.rid(1), f.rid(2));
        p.try_update(dead.page, |page| page.remove(dead.slot))
            .unwrap();
        let dangling = StorageError::DanglingRecord {
            page: dead.page,
            slot: dead.slot,
        };
        assert_eq!(p.try_read_record(&f, dead), Err(dangling));
        assert_eq!(p.try_read_record(&f, live).unwrap(), &[2u8; 300][..]);

        // Every physical read faults from here on; the page is resident.
        p.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(1, 1.0))));
        p.reset_stats();
        assert_eq!(p.try_read_record(&f, live).unwrap()[0], 2);
        assert_eq!((p.stats().logical_reads, p.stats().physical_reads), (1, 0));
        // A cold page misses, faults, and is not installed.
        let cold = f.rid(6);
        p.clear();
        for _ in 0..3 {
            assert!(matches!(
                p.try_read_record(&f, cold),
                Err(StorageError::InjectedFault { .. })
            ));
            assert!(!p.contains(cold.page));
        }
        assert_eq!(
            p.fault_injector().unwrap().injected(),
            3,
            "one draw per retry"
        );
        p.set_fault_injector(None);
        assert_eq!(p.try_read_record(&f, cold).unwrap()[0], 7);
        assert_eq!(p.stats().physical_reads, 1);
    }

    #[test]
    fn buffer_hits_never_fault() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut p = pool(4);
        let id = p.try_allocate().unwrap();
        p.try_fetch(id).unwrap(); // resident
        p.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(1, 1.0))));
        // The page is resident: no physical read happens, so no fault.
        assert!(p.try_fetch(id).is_ok());
        // A cold page misses and must fault at probability 1.
        p.clear();
        assert!(matches!(
            p.try_fetch(id),
            Err(StorageError::InjectedFault { .. })
        ));
    }

    /// Charging a visit is charging a fetch: two forks with the same
    /// fault stream replay one id sequence (repeats, and more distinct
    /// pages than frames), one touching and one fetching, and agree on
    /// every counter, every frame and every outcome.
    #[test]
    fn touch_charges_exactly_as_fetch() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut p = pool(8);
        let ids: Vec<_> = (0..12).map(|_| p.try_allocate().unwrap()).collect();
        let fork = || {
            let mut f = p.fork_view(4);
            let faults = FaultConfig::uniform(3, 0.2);
            f.set_fault_injector(Some(FaultInjector::new(faults)));
            f
        };
        let (mut touched, mut fetched) = (fork(), fork());
        let order = [
            0, 1, 2, 0, 3, 4, 5, 0, 6, 1, 7, 8, 9, 10, 11, 2, 2, 5, 11, 0,
        ];
        let mut faults = 0;
        for &i in order.iter().cycle().take(3 * order.len()) {
            let a = touched.try_touch(ids[i]);
            let b = fetched.try_fetch(ids[i]).map(|_| ());
            assert_eq!(a, b, "page {i}");
            faults += usize::from(a.is_err());
            assert_eq!(touched.stats(), fetched.stats());
            assert_eq!(touched.evictions(), fetched.evictions());
            assert_eq!(touched.resident(), fetched.resident());
            for &id in &ids {
                assert_eq!(touched.contains(id), fetched.contains(id));
            }
        }
        assert!(
            faults > 0 && touched.evictions() > 0,
            "both paths exercised"
        );
    }

    #[test]
    fn failed_update_leaves_fetch_and_disk_unchanged() {
        use crate::fault::{FaultConfig, FaultInjector};
        let mut p = pool(4);
        let id = p.try_allocate().unwrap();
        p.try_update(id, |page| {
            page.push(vec![1; 4]);
        })
        .unwrap();
        let cfg = FaultConfig {
            write_prob: 1.0,
            ..FaultConfig::default()
        };
        p.set_fault_injector(Some(FaultInjector::new(cfg)));
        assert!(p
            .try_update(id, |page| {
                page.push(vec![2; 6]);
            })
            .is_err());
        // The page stays resident; neither a fetch nor the disk sees the
        // mutation.
        p.set_fault_injector(None);
        assert!(p.contains(id));
        assert_eq!(p.try_fetch(id).unwrap().get(0), Some(&[1u8; 4][..]));
        assert_eq!(p.try_fetch(id).unwrap().used(), 4);
        assert_eq!(p.disk().page(id).unwrap().used(), 4);
        p.clear();
        assert_eq!(p.try_fetch(id).unwrap().used(), 4);
    }

    #[test]
    fn fork_write_leaves_the_parent_page_unchanged() {
        // A fork taken while the parent has the page resident must not
        // observe later parent writes, nor the parent the fork's.
        let mut p = pool(4);
        let id = p.try_allocate().unwrap();
        p.try_update(id, |page| {
            page.push(vec![1; 3]);
        })
        .unwrap();
        let mut shard = p.fork_view(2);
        p.try_update(id, |page| {
            page.push(vec![2; 5]);
        })
        .unwrap();
        assert_eq!(p.try_fetch(id).unwrap().used(), 8);
        assert_eq!(shard.try_fetch(id).unwrap().used(), 3);
        shard
            .try_update(id, |page| {
                page.push(vec![3; 2]);
            })
            .unwrap();
        assert_eq!(shard.try_fetch(id).unwrap().used(), 5);
        assert_eq!(p.try_fetch(id).unwrap().used(), 8);
        assert_eq!(p.disk().page(id).unwrap().used(), 8);
    }
}
