//! Versioned snapshot serving.
//!
//! The serving hot path must never block on the dataset: under the old
//! `RwLock<DataState>` design every request — even a result-cache hit —
//! serialized on one lock word, and throughput *fell* as threads were
//! added. The replacement is an epoch-stamped publish/subscribe cell:
//! [`SnapshotCell`] owns the *current* `Arc<T>` behind a publisher
//! mutex, plus an atomic epoch bumped on every publish.
//!
//! - [`SnapshotCell::epoch`] is one atomic load. A cache probe needs
//!   only the version, so a hit never takes the mutex (the
//!   `cache_hits_never_touch_the_publisher_lock` test in `service.rs`
//!   pins this down).
//! - [`SnapshotCell::load`] pins the snapshot: one mutex section around
//!   one `Arc` clone. A cache miss pays it once; the only other holder
//!   of the mutex is a commit's O(1) [`SnapshotCell::publish`].
//!
//! Readers therefore never block on the *construction* of a new
//! snapshot: a writer builds the next `T` entirely off the hot path and
//! publishes it in O(1) (store an `Arc`, bump the epoch). In-flight
//! requests keep computing against the snapshot they pinned; old
//! snapshots are freed when the last holder drops its `Arc`.
//!
//! Why not a cached per-thread reader? A `thread_local!` copy of the
//! `Arc` would save the mutex section per miss, but it would keep every
//! dropped service's snapshot alive on every thread that ever called it,
//! and the router's fan-out threads are new per request, so they would
//! pin through the mutex anyway. Why not a hand-rolled `AtomicPtr<T>`
//! swap? Safe reclamation through a raw pointer needs hazard pointers or
//! epoch GC — machinery far heavier than one short mutex section.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The publisher side: the current snapshot plus its epoch.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// Publisher slot. Touched by `publish` and `load` only — never by
    /// a cache hit.
    slot: Mutex<Arc<T>>,
    /// Monotone publish counter, bumped inside the publisher critical
    /// section; the `Release` store in `publish` pairs with the
    /// `Acquire` load in `epoch`.
    epoch: AtomicU64,
    /// How many times the publisher mutex was acquired (publishes and
    /// loads alike) — the observable that proves the hit path lock-free:
    /// it must not grow while serving hits at a constant epoch.
    lock_count: AtomicU64,
}

impl<T> SnapshotCell<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        SnapshotCell {
            slot: Mutex::new(initial),
            epoch: AtomicU64::new(0),
            lock_count: AtomicU64::new(0),
        }
    }

    /// The current epoch (0 until the first publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current snapshot: one publisher-mutex section around one
    /// `Arc` clone.
    pub fn load(&self) -> Arc<T> {
        self.lock_count.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&self.slot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next` as the current snapshot and returns its epoch.
    /// O(1): an `Arc` store and an epoch bump — snapshot construction
    /// happened entirely on the caller's side.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        self.lock_count.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = next;
        // Bump inside the critical section so epochs and slot contents
        // move together; Release pairs with the reader's Acquire.
        self.epoch.fetch_add(1, Ordering::Release) + 1
    }

    /// Total publisher-mutex acquisitions so far (publishes + loads).
    /// Flat across a stretch of traffic ⇒ that stretch never touched a
    /// lock to reach the dataset.
    pub fn publisher_lock_count(&self) -> u64 {
        self.lock_count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn epoch_reads_lock_nothing_and_each_load_locks_once() {
        let cell = SnapshotCell::new(Arc::new(1u64));
        for _ in 0..1000 {
            assert_eq!(cell.epoch(), 0);
        }
        assert_eq!(
            cell.publisher_lock_count(),
            0,
            "epoch reads must not touch the publisher mutex"
        );
        assert_eq!(*cell.load(), 1);
        cell.publish(Arc::new(2));
        assert_eq!((*cell.load(), cell.epoch()), (2, 1));
        assert_eq!(cell.publisher_lock_count(), 3, "two loads + one publish");
    }

    #[test]
    fn publish_bumps_epoch_and_load_sees_latest() {
        let cell = SnapshotCell::new(Arc::new("a"));
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.publish(Arc::new("b")), 1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(*cell.load(), "b");
    }

    #[test]
    fn old_snapshots_stay_alive_for_holders_and_die_after() {
        let cell = SnapshotCell::new(Arc::new(vec![1, 2, 3]));
        let held = cell.load();
        cell.publish(Arc::new(vec![4]));
        // The in-flight holder still computes against the old version.
        assert_eq!(*held, vec![1, 2, 3]);
        let weak = Arc::downgrade(&held);
        drop(held);
        assert!(
            weak.upgrade().is_none(),
            "unreferenced old snapshots must be freed"
        );
    }

    #[test]
    fn concurrent_readers_see_monotone_epochs() {
        let cell = Arc::new(SnapshotCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = *cell.load();
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "snapshot values must be monotone");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..=100u64 {
            cell.publish(Arc::new(v));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader thread must not panic");
        }
        assert_eq!(cell.epoch(), 100);
    }
}
