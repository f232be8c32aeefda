//! Lock-free versioned snapshot serving.
//!
//! The serving hot path must never block on the dataset: under the old
//! `RwLock<DataState>` design every request — even a result-cache hit —
//! serialized on one lock word, and worker scaling went *negative*
//! (the pre-PR-6 service-scaling run). The replacement is an epoch-stamped
//! publish/subscribe cell:
//!
//! - [`SnapshotCell`] owns the *current* `Arc<T>` behind a publisher
//!   mutex, plus an atomic epoch bumped on every publish.
//! - [`SnapshotReader`] is a per-worker subscription: it caches the
//!   `Arc<T>` it last saw together with the epoch it was published at.
//!   [`SnapshotReader::get`] is one atomic load — only when the epoch
//!   moved (an update published a new snapshot) does the reader touch
//!   the publisher mutex to refresh its cached `Arc`.
//!
//! Readers therefore never block on the *construction* of a new
//! snapshot: a writer builds the next `T` entirely off the hot path and
//! [`SnapshotCell::publish`]es it in O(1) (store an `Arc`, bump the
//! epoch). In-flight requests keep computing against the snapshot they
//! already hold; old snapshots are freed when the last holder drops its
//! `Arc`. Between updates — the steady state — the hot path is
//! mutex-free, which [`SnapshotCell::publisher_lock_count`] makes
//! checkable: the counter must stay flat across any stretch of
//! cache-hit traffic at a constant epoch (see the `lock_free_hit_path`
//! test in `service.rs`).
//!
//! Why not a hand-rolled `AtomicPtr<T>` swap? Safe reclamation through
//! a raw pointer needs hazard pointers or epoch GC — machinery far
//! heavier than this service needs. The cached-`Arc`-plus-epoch-check
//! pattern gives the same hot-path cost (one atomic load, no CAS) with
//! entirely safe code, and pays one short mutex section per reader *per
//! update*, off the request fast path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The publisher side: the current snapshot plus its epoch.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// Publisher slot. Only touched on publish and on reader refresh
    /// after an epoch change — never on the steady-state hot path.
    slot: Mutex<Arc<T>>,
    /// Monotone publish counter. Readers compare against their cached
    /// epoch with one `Acquire` load; the `Release` store in `publish`
    /// makes the new snapshot's contents visible to any reader that
    /// observes the new epoch.
    epoch: AtomicU64,
    /// How many times the publisher mutex was acquired (publishes and
    /// reader refreshes alike) — the observable that proves the hot
    /// path lock-free: it must not grow while serving at a constant
    /// epoch.
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

    /// Clones the current snapshot through the publisher mutex. This is
    /// the *cold* access — exporters, update construction, reference
    /// replays. Workers go through a [`SnapshotReader`] instead.
    pub fn load(&self) -> Arc<T> {
        self.load_with_epoch().0
    }

    /// The current `(snapshot, epoch)` pair, read inside the publisher
    /// critical section so the two can never be torn against each other
    /// (publishes write both fields while holding the same mutex).
    fn load_with_epoch(&self) -> (Arc<T>, u64) {
        self.lock_count.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        (Arc::clone(&slot), self.epoch.load(Ordering::Acquire))
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

    /// Total publisher-mutex acquisitions so far (publishes + reader
    /// refreshes). Flat across a stretch of traffic ⇒ that stretch
    /// never touched a lock to reach the dataset.
    pub fn publisher_lock_count(&self) -> u64 {
        self.lock_count.load(Ordering::Relaxed)
    }

    /// A fresh subscription, pre-loaded with the current snapshot.
    pub fn reader(&self) -> SnapshotReader<T> {
        let (cached, epoch) = self.load_with_epoch();
        SnapshotReader { epoch, cached }
    }
}

/// A per-worker subscription to a [`SnapshotCell`]: the hot-path handle
/// whose [`SnapshotReader::get`] is one atomic epoch compare in the
/// steady state.
#[derive(Debug)]
pub struct SnapshotReader<T> {
    epoch: u64,
    cached: Arc<T>,
}

impl<T> SnapshotReader<T> {
    /// The current snapshot. Lock-free while the epoch is unchanged;
    /// refreshes through the publisher mutex (once per update, per
    /// reader) when it moved.
    pub fn get(&mut self, cell: &SnapshotCell<T>) -> &Arc<T> {
        if cell.epoch() != self.epoch {
            // The pair is read inside the publisher critical section, so
            // the cached epoch always matches the cached snapshot even
            // when publishes race this refresh.
            let (snapshot, epoch) = cell.load_with_epoch();
            self.cached = snapshot;
            self.epoch = epoch;
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn readers_refresh_only_on_epoch_change() {
        let cell = SnapshotCell::new(Arc::new(1u64));
        let mut reader = cell.reader();
        let baseline = cell.publisher_lock_count();
        for _ in 0..1000 {
            assert_eq!(**reader.get(&cell), 1);
        }
        assert_eq!(
            cell.publisher_lock_count(),
            baseline,
            "steady-state reads must not touch the publisher mutex"
        );
        cell.publish(Arc::new(2));
        assert_eq!(**reader.get(&cell), 2);
        assert_eq!(
            cell.publisher_lock_count(),
            baseline + 2,
            "one publish + one reader refresh"
        );
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
                    let mut reader = cell.reader();
                    let mut last = **reader.get(&cell);
                    while !stop.load(Ordering::Relaxed) {
                        let v = **reader.get(&cell);
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
