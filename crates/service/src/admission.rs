//! Bounded admission with load shedding — sharded per worker.
//!
//! Admission control is the service's back-pressure mechanism: the
//! queue holds at most `depth` pending requests in total, and a
//! submission against a full queue is *shed* immediately — the client
//! gets [`Rejection::QueueFull`](crate::request::Rejection::QueueFull)
//! instead of unbounded latency.
//!
//! Two layers:
//!
//! - [`AdmissionQueue`]: one bounded MPMC FIFO (mutex + condvar). This
//!   was the whole admission story through PR 5 — and the profile
//!   showed it: with every worker popping one job at a time from one
//!   mutex, worker scaling went negative.
//! - [`ShardedQueue`]: one [`AdmissionQueue`] shard *per worker*.
//!   Producers enqueue round-robin in *blocks* — the cursor advances
//!   one shard per `block` tickets, so a burst of consecutive
//!   submissions lands in one shard and its worker drains it as a
//!   single batch (one wakeup per block, not one per item — per-item
//!   round-robin fragments every batch across all workers and turns
//!   batching into a context-switch storm on few cores). Load still
//!   spreads evenly over time, and a full target shard falls over to
//!   the others — a submission is shed only when **every** shard is
//!   full. Workers drain *batches* from their own shard
//!   ([`ShardedQueue::pop_batch`]: up to `max` jobs under one lock
//!   acquisition, amortizing synchronization per wakeup) and steal a
//!   batch from a sibling when their own shard is empty, so no worker
//!   idles while any shard holds work. Shed/admit/steal accounting is
//!   all atomics — no shared lock anywhere on the submission path
//!   beyond the single shard the item lands in.
//!
//! Both layers are poison-proof: a worker that panics while holding a
//! shard lock leaves plain data (a `VecDeque` and counters) in a
//! consistent state — every entry point recovers the guard from the
//! [`PoisonError`] instead of cascading the panic, so one dead worker
//! never wedges admission for the rest of the pool.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How long an idle worker waits on its own shard before re-scanning
/// the others for stealable work. Pushes to the worker's own shard wake
/// it immediately; this bound only delays *stolen* work, trading a few
/// hundred microseconds of worst-case idle for zero cross-shard
/// signalling on the push path.
const STEAL_POLL: Duration = Duration::from_micros(500);

/// Ceiling for the idle poll once consecutive sweeps keep coming up
/// empty (exponential backoff from [`STEAL_POLL`]): a worker whose
/// shard sees no traffic — because siblings absorb the load, or a
/// stealer keeps beating it to its own items — must not burn a wakeup
/// every half millisecond forever. Own-shard pushes still wake it
/// instantly; only *stolen* work can wait this long, and only when the
/// whole pool has gone quiet.
const STEAL_POLL_MAX: Duration = Duration::from_millis(8);

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    shed_full: u64,
    admitted: u64,
}

/// A bounded MPMC queue: producers shed when full, consumers block when
/// empty, and closing wakes every blocked consumer.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    depth: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `depth` pending items.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "a zero-depth queue would shed everything");
        AdmissionQueue {
            depth,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
                shed_full: 0,
                admitted: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Takes the queue lock, recovering from poison: the protected state
    /// is structurally consistent after any panic (no half-applied
    /// multi-step invariants), so the poison flag carries no information
    /// worth dying for.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits `item`, or returns it to the caller when the queue is full
    /// (counted as a shed) or closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        match self.offer(item) {
            Ok(()) => Ok(()),
            Err(item) => {
                let mut inner = self.lock();
                if !inner.closed {
                    inner.shed_full += 1;
                }
                Err(item)
            }
        }
    }

    /// [`AdmissionQueue::try_push`] without the shed accounting: the
    /// building block for [`ShardedQueue`], which counts a shed only
    /// after **every** shard refused the item.
    pub fn offer(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.queue.len() >= self.depth {
            return Err(item);
        }
        inner.queue.push_back(item);
        inner.admitted += 1;
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// and drained, which yields `None`.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drains up to `max` items from the front (FIFO) without blocking —
    /// one lock acquisition per *batch*, not per item. Returns an empty
    /// vector when the queue is empty.
    pub fn drain(&self, max: usize) -> Vec<T> {
        let mut inner = self.lock();
        let take = inner.queue.len().min(max);
        inner.queue.drain(..take).collect()
    }

    /// Blocks until work may be available: returns as soon as the queue
    /// is non-empty, closed, or `timeout` elapsed. A bounded wait, so an
    /// idle consumer can periodically scan sibling shards for stealable
    /// work without any cross-shard wakeup protocol.
    pub fn wait_for_work(&self, timeout: Duration) {
        let inner = self.lock();
        if inner.queue.is_empty() && !inner.closed {
            let _ = self
                .ready
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail, blocked consumers drain the
    /// backlog and then observe shutdown.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// True once [`AdmissionQueue::close`] ran.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Pending items right now.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Submissions shed because the queue was full.
    pub fn shed_full_count(&self) -> u64 {
        self.lock().shed_full
    }

    /// Submissions admitted since creation.
    pub fn admitted_count(&self) -> u64 {
        self.lock().admitted
    }
}

/// A shard-per-worker admission queue: round-robin enqueue with
/// full-shard fallover, per-worker batched dequeue, and work stealing —
/// the shared-nothing replacement for a single global queue.
#[derive(Debug)]
pub struct ShardedQueue<T> {
    shards: Vec<AdmissionQueue<T>>,
    /// Tickets per shard before the round-robin cursor advances.
    block: usize,
    /// Round-robin enqueue cursor (relaxed: distribution, not ordering).
    cursor: AtomicUsize,
    admitted: AtomicU64,
    shed_full: AtomicU64,
    /// Items a worker drained from a sibling's shard.
    stolen: AtomicU64,
}

impl<T> ShardedQueue<T> {
    /// A queue of `shards` per-worker shards holding at most `depth`
    /// pending items in total (split evenly, rounded up). The enqueue
    /// cursor advances one shard per `block` tickets: size it to the
    /// consumers' batch so one producer burst becomes one drain.
    pub fn new(shards: usize, depth: usize, block: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = depth.div_ceil(shards).max(1);
        ShardedQueue {
            shards: (0..shards)
                .map(|_| AdmissionQueue::new(per_shard))
                .collect(),
            block: block.max(1),
            cursor: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            shed_full: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        }
    }

    /// Admits `item` to the block-round-robin target shard, falling
    /// over to the other shards when it is full. Sheds (returning the
    /// item) only when every shard refused it.
    pub fn try_push(&self, mut item: T) -> Result<(), T> {
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) / self.block;
        for k in 0..self.shards.len() {
            match self.shards[(start + k) % self.shards.len()].offer(item) {
                Ok(()) => {
                    self.admitted.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(back) => item = back,
            }
        }
        self.shed_full.fetch_add(1, Ordering::Relaxed);
        Err(item)
    }

    /// One sweep for work: drain up to `max` from `worker`'s own shard,
    /// else steal a batch from the first non-empty sibling. `None` when
    /// every shard is empty.
    fn sweep(&self, worker: usize, max: usize) -> Option<Vec<T>> {
        let n = self.shards.len();
        for k in 0..n {
            let shard = (worker + k) % n;
            let batch = self.shards[shard].drain(max);
            if !batch.is_empty() {
                if k != 0 {
                    self.stolen.fetch_add(batch.len() as u64, Ordering::Relaxed);
                }
                return Some(batch);
            }
        }
        None
    }

    /// Blocks until a batch of up to `max` items is available for
    /// `worker` (own shard first, stealing from siblings otherwise) or
    /// the queue is closed and fully drained, which yields `None`.
    pub fn pop_batch(&self, worker: usize, max: usize) -> Option<Vec<T>> {
        let own = &self.shards[worker % self.shards.len()];
        let mut idle_wait = STEAL_POLL;
        loop {
            if let Some(batch) = self.sweep(worker, max) {
                return Some(batch);
            }
            if own.is_closed() {
                // `close` locks every shard before `is_closed` can see
                // true, so any push that beat the close is visible to
                // this final sweep — the backlog always drains.
                return self.sweep(worker, max);
            }
            own.wait_for_work(idle_wait);
            idle_wait = (idle_wait * 2).min(STEAL_POLL_MAX);
        }
    }

    /// Closes every shard: future pushes fail, workers drain the backlog
    /// and then observe shutdown.
    pub fn close(&self) {
        for shard in &self.shards {
            shard.close();
        }
    }

    /// Pending items across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(AdmissionQueue::len).sum()
    }

    /// True when nothing is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Submissions shed because every shard was full.
    pub fn shed_full_count(&self) -> u64 {
        self.shed_full.load(Ordering::Relaxed)
    }

    /// Submissions admitted since creation.
    pub fn admitted_count(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Items drained from a sibling shard by an idle worker.
    pub fn stolen_count(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_counts() {
        let q = AdmissionQueue::new(4);
        for i in 0..3 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.admitted_count(), 3);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(0), Some(1), Some(2)));
        assert!(q.is_empty());
    }

    #[test]
    fn full_queue_sheds_and_counts() {
        let q = AdmissionQueue::new(2);
        q.try_push(1).expect("fits");
        q.try_push(2).expect("fits");
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.try_push(4), Err(4));
        assert_eq!(q.shed_full_count(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(5).expect("space was freed");
    }

    #[test]
    fn drain_takes_a_batch_under_one_lock() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.drain(3), vec![0, 1, 2]);
        assert_eq!(q.drain(10), vec![3, 4]);
        assert!(q.drain(10).is_empty());
    }

    #[test]
    fn close_drains_backlog_then_stops_consumers() {
        let q = Arc::new(AdmissionQueue::new(8));
        q.try_push(7).expect("fits");
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue admits nothing");
        assert_eq!(q.pop(), Some(7), "backlog still drains");
        assert_eq!(q.pop(), None);

        // A consumer blocked on an empty queue wakes on close.
        let q2 = Arc::new(AdmissionQueue::<u32>::new(1));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop())
        };
        q2.close();
        assert_eq!(waiter.join().expect("no panic"), None);
    }

    #[test]
    fn queue_survives_a_worker_dying_with_the_lock_held() {
        // Regression test for lock poisoning: a consumer thread panics
        // while *holding* the queue mutex (simulating a worker crash
        // mid-dequeue). Every subsequent operation must recover instead
        // of propagating the poison.
        let q = Arc::new(AdmissionQueue::new(4));
        q.try_push(1u32).expect("fits");
        q.try_push(2u32).expect("fits");

        let killer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.lock();
                panic!("worker dies holding the queue lock");
            })
        };
        assert!(killer.join().is_err(), "worker must have panicked");

        // The queue keeps serving: push, pop, counters, close.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3u32).expect("poisoned lock must recover");
        assert_eq!(q.len(), 2);
        assert_eq!(q.admitted_count(), 3);
        assert_eq!((q.pop(), q.pop()), (Some(2), Some(3)));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sharded_round_robin_spreads_across_shards() {
        let q = ShardedQueue::new(4, 16, 1);
        for i in 0..8 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.admitted_count(), 8);
        // Round-robin: every shard holds exactly two items.
        for w in 0..4 {
            assert_eq!(q.shards[w].len(), 2, "shard {w} imbalance");
        }
        // Workers drain their own shard in FIFO order.
        assert_eq!(q.pop_batch(0, 8), Some(vec![0, 4]));
        assert_eq!(q.pop_batch(1, 1), Some(vec![1]));
    }

    #[test]
    fn block_round_robin_keeps_bursts_on_one_shard() {
        // block=4: tickets 0..4 land on shard 0, 4..8 on shard 1, then
        // wrap — a burst the size of the consumer batch is one drain,
        // not a fragment on every worker.
        let q = ShardedQueue::new(2, 32, 4);
        for i in 0..12 {
            q.try_push(i).expect("fits");
        }
        assert_eq!(q.shards[0].len(), 8, "blocks 0..4 and 8..12");
        assert_eq!(q.shards[1].len(), 4, "block 4..8");
        assert_eq!(q.pop_batch(1, 8), Some(vec![4, 5, 6, 7]));
        assert_eq!(q.pop_batch(0, 8), Some(vec![0, 1, 2, 3, 8, 9, 10, 11]));
    }

    #[test]
    fn sharded_push_falls_over_before_shedding() {
        // Total depth 4 over 2 shards of 2: five pushes land 4 (two per
        // shard, the cursor target overflowing to the sibling) and shed
        // the fifth — only when *every* shard is full.
        let q = ShardedQueue::new(2, 4, 1);
        for i in 0..4 {
            q.try_push(i)
                .unwrap_or_else(|_| panic!("push {i} must fall over, not shed"));
        }
        assert_eq!(q.try_push(9), Err(9));
        assert_eq!(q.shed_full_count(), 1);
        assert_eq!(q.admitted_count(), 4);
    }

    #[test]
    fn idle_workers_steal_from_sibling_shards() {
        let q = ShardedQueue::new(2, 8, 1);
        // Force everything onto shard 1 by occupying the cursor.
        q.cursor.store(1, Ordering::Relaxed);
        q.try_push(10).expect("fits");
        q.cursor.store(1, Ordering::Relaxed);
        q.try_push(11).expect("fits");
        assert_eq!(q.shards[1].len(), 2);
        // Worker 0's own shard is empty: it must steal the batch.
        assert_eq!(q.pop_batch(0, 4), Some(vec![10, 11]));
        assert_eq!(q.stolen_count(), 2);
    }

    #[test]
    fn sharded_close_drains_backlog_then_stops_workers() {
        let q = Arc::new(ShardedQueue::new(2, 8, 1));
        q.try_push(1u32).expect("fits");
        q.try_push(2u32).expect("fits");
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue admits nothing");
        let mut drained = Vec::new();
        while let Some(batch) = q.pop_batch(0, 8) {
            drained.extend(batch);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2], "backlog must drain before shutdown");

        // A worker blocked on an empty sharded queue wakes on close.
        let q2 = Arc::new(ShardedQueue::<u32>::new(2, 4, 1));
        let waiter = {
            let q2 = Arc::clone(&q2);
            std::thread::spawn(move || q2.pop_batch(1, 4))
        };
        q2.close();
        assert_eq!(waiter.join().expect("no panic"), None);
    }

    #[test]
    fn sharded_queue_survives_a_worker_dying_with_a_shard_lock_held() {
        // Poison-recovery regression for the per-worker queues: a thread
        // panics holding shard 0's mutex; pushes, batched pops, stealing,
        // and close must all recover.
        let q = Arc::new(ShardedQueue::new(2, 8, 1));
        q.try_push(1u32).expect("fits");
        let killer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.shards[0].lock();
                panic!("worker dies holding a shard lock");
            })
        };
        assert!(killer.join().is_err(), "worker must have panicked");
        q.try_push(2u32).expect("poisoned shard must recover");
        let mut got = Vec::new();
        got.extend(q.pop_batch(0, 4).expect("work available"));
        got.extend(q.pop_batch(1, 4).expect("work available"));
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        q.close();
        assert_eq!(q.pop_batch(0, 4), None);
    }
}
