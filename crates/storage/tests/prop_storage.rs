//! Property tests for the storage simulator: heap-file contents round-trip
//! under any layout, I/O accounting is consistent, the LRU pool obeys
//! its capacity, forked views are isolated however forks, writes and
//! allocations interleave, and `CowVec` reads what a `Vec` model reads.

use proptest::prelude::*;
use sj_storage::{BufferPool, CowVec, Disk, DiskConfig, HeapFile, Layout, PageId};

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

    /// Views share the page table copy-on-write: whatever the order of
    /// forks (forks of forks included), writes, allocations, reads and
    /// drops, every pool reads exactly what was written through *it* or
    /// through an ancestor *before* the fork — one model `Vec` per pool.
    #[test]
    fn forked_views_stay_isolated_under_any_interleaving(
        ops in prop::collection::vec((0u8..6, any::<u16>(), any::<u8>()), 1..160),
    ) {
        // A page in the model is the list of records pushed onto it.
        type Model = Vec<Vec<Vec<u8>>>;
        let capacity = DiskConfig::paper().effective_capacity();
        let agrees = |pool: &mut BufferPool, model: &Model, page: usize| {
            let got = pool.try_fetch(PageId(page as u32)).unwrap();
            let slots = 0..got.slot_count() as u16;
            let got: Vec<Vec<u8>> = slots.filter_map(|s| got.get(s)).map(<[u8]>::to_vec).collect();
            got == model[page]
        };
        let mut pools: Vec<(BufferPool, Model)> = vec![(pool(3), Vec::new())];
        for (op, pick, tag) in ops {
            let (at, count) = (pick as usize % pools.len(), pools.len());
            let (pool, model) = &mut pools[at];
            let page = (!model.is_empty()).then(|| (pick as usize / 7) % model.len());
            match (op, page) {
                (0, _) if count < 6 => {
                    let fork = (pool.fork_view(2), model.clone());
                    pools.push(fork);
                }
                (1, _) | (_, None) => {
                    prop_assert_eq!(pool.try_allocate().unwrap().index(), model.len());
                    model.push(Vec::new());
                }
                (2 | 3, Some(page)) => {
                    let record = vec![tag; 1 + tag as usize % 90];
                    let used: usize = model[page].iter().map(Vec::len).sum();
                    if used + record.len() <= capacity {
                        model[page].push(record.clone());
                        pool.try_update(PageId(page as u32), |p| {
                            p.push(record);
                        })
                        .unwrap();
                    }
                }
                (4, Some(_)) if count > 1 => {
                    pools.swap_remove(at);
                }
                (_, Some(page)) => prop_assert!(agrees(pool, model, page)),
            }
        }
        for (pool, model) in &mut pools {
            prop_assert_eq!(pool.disk().page_count(), model.len());
            for page in 0..model.len() {
                prop_assert!(agrees(pool, model, page));
            }
        }
    }

    /// `CowVec` against a `Vec` model, one model per generation: however
    /// pushes, overwrites, clones (clones of clones included) and drops
    /// interleave, every generation reads what a plain `Vec` cloned at
    /// the same moments reads — a clone never sees a later write, a
    /// writer never loses one — and one overwrite in a fresh clone
    /// un-shares exactly the one full chunk it lands in.
    #[test]
    fn cow_vec_generations_read_what_their_vec_models_read(
        ops in prop::collection::vec((0u8..7, any::<u16>(), any::<u32>()), 1..240),
    ) {
        let mut gens: Vec<(CowVec<u32, 4>, Vec<u32>)> = vec![(CowVec::new(), Vec::new())];
        for (op, pick, value) in ops {
            let (at, count) = (pick as usize % gens.len(), gens.len());
            let (cow, model) = &mut gens[at];
            let index = (!model.is_empty()).then(|| (pick as usize / 7) % model.len());
            match (op, index) {
                (0, _) if count < 6 => {
                    let clone = (cow.clone(), model.clone());
                    // The partial chunk is the only private part of a clone.
                    prop_assert_eq!(clone.0.copied_chunks(cow), usize::from(model.len() % 4 != 0));
                    gens.push(clone);
                }
                (1 | 2, _) | (_, None) => {
                    cow.push(value);
                    model.push(value);
                }
                (3 | 4, Some(i)) => {
                    let (before, old) = (cow.clone(), model[i]);
                    *cow.get_mut(i) = value;
                    model[i] = value;
                    let sealed = i < model.len() / 4 * 4;
                    prop_assert_eq!(
                        cow.copied_chunks(&before),
                        usize::from(sealed) + usize::from(model.len() % 4 != 0)
                    );
                    prop_assert_eq!((before[i], cow[i]), (old, value));
                }
                (5, Some(_)) if count > 1 => {
                    gens.swap_remove(at);
                }
                (_, Some(i)) => prop_assert_eq!(cow[i], model[i]),
            }
        }
        for (cow, model) in &gens {
            prop_assert_eq!(cow.len(), model.len());
            prop_assert_eq!(cow.iter().copied().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(cow.get(model.len()), None);
            prop_assert_eq!(cow.last(), model.last());
        }
    }
}
