//! Property tests for the storage simulator: heap-file contents round-trip
//! under any layout, I/O accounting is consistent, and the LRU pool obeys
//! its capacity.

use proptest::prelude::*;
use sj_storage::{BufferPool, Disk, DiskConfig, HeapFile, Layout};

fn pool(capacity: usize) -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), capacity)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn heap_file_roundtrips_under_any_layout(
        count in 0usize..200,
        seed in any::<u64>(),
        unclustered in any::<bool>(),
        record_size in 50usize..600,
    ) {
        let layout = if unclustered {
            Layout::Unclustered { seed }
        } else {
            Layout::Clustered
        };
        let mut p = pool(64);
        let f = HeapFile::bulk_load_with(&mut p, record_size, count, layout, |i| {
            let mut rec = vec![0u8; record_size];
            rec[..8].copy_from_slice(&(i as u64).to_le_bytes());
            rec
        })
        .unwrap();
        prop_assert_eq!(f.len(), count);
        // Every record is retrievable and carries its logical index.
        for i in 0..count {
            let bytes = p.try_read_record(&f, f.rid(i)).unwrap();
            let id = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            prop_assert_eq!(id as usize, i);
        }
        // Page count matches ⌈count/m⌉ (min 1).
        let m = f.records_per_page();
        prop_assert_eq!(f.page_count(), count.div_ceil(m).max(1));
    }

    #[test]
    fn pool_capacity_is_never_exceeded(
        capacity in 1usize..32,
        accesses in prop::collection::vec(0u32..64, 1..300),
    ) {
        let mut p = pool(capacity);
        let pages: Vec<_> = (0..64).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        for &a in &accesses {
            p.try_fetch(pages[a as usize]).unwrap();
            prop_assert!(p.resident() <= capacity);
        }
    }

    #[test]
    fn io_accounting_identities(
        capacity in 1usize..16,
        accesses in prop::collection::vec(0u32..32, 1..200),
    ) {
        let mut p = pool(capacity);
        let pages: Vec<_> = (0..32).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        p.reset_stats();
        for &a in &accesses {
            p.try_fetch(pages[a as usize]).unwrap();
        }
        let s = p.stats();
        // Every request is a logical read; hits + misses = requests.
        prop_assert_eq!(s.logical_reads, accesses.len() as u64);
        prop_assert_eq!(s.hits() + s.physical_reads, s.logical_reads);
        // Distinct pages touched is a lower bound on physical reads; the
        // access count an upper bound.
        let distinct = accesses.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        prop_assert!(s.physical_reads >= distinct.min(accesses.len() as u64) && s.physical_reads >= distinct);
        prop_assert!(s.physical_reads <= accesses.len() as u64);
    }

    #[test]
    fn big_pool_reads_each_page_once(
        accesses in prop::collection::vec(0u32..32, 1..400),
    ) {
        // With capacity ≥ working set, physical reads = distinct pages.
        let mut p = pool(32);
        let pages: Vec<_> = (0..32).map(|_| p.try_allocate().unwrap()).collect();
        p.clear();
        p.reset_stats();
        for &a in &accesses {
            p.try_fetch(pages[a as usize]).unwrap();
        }
        let distinct = accesses.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        prop_assert_eq!(p.stats().physical_reads, distinct);
    }
}
