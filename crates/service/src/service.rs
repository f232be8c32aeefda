//! The spatial query service: a request runs on the thread that calls
//! [`SpatialService::call`] — cache probe, in-flight slot, snapshot pin,
//! execution, metrics — and nothing moves it to another thread.
//!
//! ## Concurrency model — no shared lock on the hot path
//!
//! The dataset (master [`BufferPool`], stored relations, generalization
//! trees, version) is an **immutable snapshot** published through a
//! [`SnapshotCell`]. A cache miss pins the current snapshot once (one
//! mutex section around one `Arc` clone) and executes on a private cold
//! shard forked from it in O(1) ([`BufferPool::fork_view`]), so index
//! builds and page I/O during query execution never touch shared frames
//! and concurrent callers never block on each other.
//!
//! Writes are typed [`WriteBatch`]es committed by
//! [`SpatialService::commit`] entirely off the hot path. The apply
//! forks the current pool (the disk is page-granular copy-on-write, so
//! the fork shares every untouched page), applies each mutation to a
//! copy of the side (R or S) it names — touching only the pages the
//! batch dirties; a side no op names is shared with the previous
//! snapshot — and evolves each touched side's paged generalization tree
//! from the arena slots its in-memory R-tree wrote
//! ([`TreeRelation::try_evolve`]). The batch's redo record is appended
//! to the [`WriteAheadLog`] *before* apply and synced *before* publish:
//! the sync is the commit point, a sync fault aborts the commit with a
//! typed error and nothing partial is ever visible. In-flight requests
//! keep computing against the snapshot they pinned; its `version` tags
//! their responses and cache entries, and invalidation is fine-grained:
//! only cache entries whose [`QueryRegion`](crate::QueryRegion)
//! intersects the batch's touched MBRs are dropped
//! ([`ResultCache::purge_region`]); the rest are re-stamped to the new
//! version and keep serving hits.
//!
//! The result cache is probed first, at the published version (one
//! atomic load): a hit is answered there — one cache lock, no slot, no
//! snapshot pin (the `cache_hits_never_touch_the_publisher_lock` test
//! pins this down) — and is never shed. A miss takes an in-flight slot
//! bounded by [`ServiceConfig::queue_depth`] or is shed, and metrics are
//! lock-free atomics.
//!
//! ## Fail-stop fault handling
//!
//! Storage faults (injected for chaos testing, or real) surface as
//! typed [`StorageError`]s from every compute path. `call` retries
//! a faulted request up to [`ServiceConfig::retry_attempts`] times with
//! exponential model-time backoff; each attempt arms its shard with a
//! fresh deterministic injector stream (seeded from the fault seed,
//! dataset version, request fingerprint, and attempt number), so
//! transient faults really are transient and identical runs replay
//! identical fault traces. A join that exhausts its budget degrades to
//! a *resilient* nested-loop pass: both relations are scanned with
//! per-record-read retries (a faulted read leaves the page non-resident,
//! so each retry re-draws from the injector stream), which survives
//! fault rates that would abort any fail-stop whole-attempt strategy.
//! A panicking computation is contained with `catch_unwind` and answers
//! [`Rejection::WorkerPanicked`]; every lock in the crate recovers from
//! poisoning, so one crashed request never takes the service down.
//! Snapshot pools never carry an injector: updates and reference
//! computations are always fault-free.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use sj_costmodel::{Distribution, ModelParams};
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{codec, Bounded, Geometry, Rect, ThetaOp};
use sj_joins::advisor::{auto_chooser, Operation, WorkloadProfile};
use sj_joins::tree_join::{tree_select, TraversalOrder};
use sj_joins::{JoinOperands, JoinRequest, StoredRelation, Strategy, TreeRelation};
use sj_obs::TraceSink;
use sj_storage::{
    BufferPool, Disk, DiskConfig, FaultConfig, FaultInjector, Layout, StorageError, WriteAheadLog,
};

use crate::cache::{CacheKey, ResultCache};
use crate::metrics::{RequestMetrics, ServiceMetrics, WriteMetrics};
use crate::request::{
    CommitReceipt, QueryKind, Rejection, Reply, Request, Response, ServiceResult, Side,
};
use crate::snapshot::SnapshotCell;
use sj_joins::{Mutation, MutationOutcome, TouchedRegions, WriteBatch};

/// Per-record-read retries inside the degraded nested-loop pass. Each
/// retry of a faulted read re-draws from the deterministic injector
/// stream (the failed fetch left the page non-resident), so at read
/// fault probability p a record survives with probability `1 - p⁴` —
/// the resilience that keeps the service *degraded* instead of *down*
/// at fault rates where every fail-stop strategy attempt aborts.
const DEGRADED_READ_RETRIES: u32 = 4;

/// Tuning knobs for [`SpatialService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Ignored: a request runs on the thread that calls
    /// [`SpatialService::call`]. Kept only because the benchmark harness
    /// sets it; ROADMAP item 25(d) drops it.
    pub workers: usize,
    /// Misses computing at once (min 1); a miss beyond it is shed with
    /// [`Rejection::QueueFull`]. Cache hits take no slot.
    pub queue_depth: usize,
    /// Result-cache entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Frames of the master buffer pool (builds and updates).
    pub pool_capacity: usize,
    /// Frames of the shard each compute attempt forks.
    pub shard_capacity: usize,
    /// On-disk record size for relations and trees. A v1 record is 19
    /// header bytes (id, tag, count, checksum) plus 16 per vertex, so the
    /// default 300-byte slot holds polygons of at most 17 vertices.
    pub record_size: usize,
    /// Generalization-tree (R-tree) fan-out.
    pub fanout: usize,
    /// Sample pairs per advisor selectivity estimate for `Auto`.
    pub selectivity_samples: usize,
    /// Seed for the advisor's estimator — fixed, so identical requests
    /// against the same version resolve to the same strategy.
    pub seed: u64,
    /// Base workload profile the advisor scores (`operation` and
    /// `selectivity` are overridden per request).
    pub profile: WorkloadProfile,
    /// Probability that a physical page read on a compute shard faults;
    /// 0.0 (the default) disarms injection entirely.
    pub fault_read_prob: f64,
    /// Probability that a physical page write on a compute shard faults.
    pub fault_write_prob: f64,
    /// Base seed of the fault-injection streams. Each attempt derives
    /// its own stream from this seed, the dataset version, the request
    /// fingerprint, and the attempt number — deterministic end to end.
    pub fault_seed: u64,
    /// Compute attempts per request before degradation/failure (min 1).
    pub retry_attempts: u32,
    /// Store the paged trees' node records as compressed v2 frames
    /// ([`CodecMode::Quantized`](sj_joins::CodecMode::Quantized)):
    /// smaller records, fewer pages per cold SELECT. Relations are
    /// stored exact either way, and every join refines exact records.
    /// Query results stay byte-identical.
    pub compress_geometry: bool,
    /// Mutation-guard bound for v2 node frames: an insert/upsert whose
    /// v2 frame exceeds this outcomes as [`MutationOutcome::TooLarge`],
    /// so every committed geometry fits the tree files (which are never
    /// sized below it). Ignored unless `compress_geometry` is set.
    pub quant_record_size: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 256,
            pool_capacity: 256,
            shard_capacity: 32,
            record_size: 300,
            fanout: 8,
            selectivity_samples: 64,
            seed: 0xC0FFEE,
            profile: WorkloadProfile {
                params: ModelParams::paper(),
                distribution: Distribution::Uniform,
                selectivity: 1e-6,
                updates_per_query: 0.0,
                operation: Operation::Join,
            },
            fault_read_prob: 0.0,
            fault_write_prob: 0.0,
            fault_seed: 0,
            retry_attempts: 3,
            compress_geometry: false,
            quant_record_size: 160,
        }
    }
}

impl ServiceConfig {
    /// Mutation-size screen: the exact frame must fit the relation's
    /// record size, and — when compressed pages are on — the v2 frame
    /// must fit the tree's node records. An insert/upsert that fails it
    /// outcomes as [`MutationOutcome::TooLarge`]; a coordinator routing
    /// writes to several services calls this same screen. At the default
    /// 300-byte `record_size` a polygon of 17 vertices fits (291 bytes)
    /// and one of 18 does not (307 bytes: the record checksum takes 8).
    pub fn too_large(&self, value: &Geometry) -> bool {
        codec::encoded_len(value) > self.record_size
            || (self.compress_geometry && codec::encoded_qlen(value) > self.quant_record_size)
    }
}

/// One side (R or S) of a snapshot. A commit copies a side only when
/// the batch names it; an unnamed side's `Arc` is shared with the
/// previous snapshot.
#[derive(Clone)]
struct SideState {
    rel: StoredRelation,
    /// Behind its own `Arc` because a commit never mutates it in place:
    /// [`TreeRelation::try_evolve`] builds the successor from the
    /// previous snapshot's tree, so copying a side need not copy it.
    tree: Arc<TreeRelation>,
    /// In-memory R-tree mirroring the paged tree — the live-id
    /// authority for mutation outcomes and the structure incremental
    /// commits evolve the paged tree from; its `GenTree` is the one
    /// `tree` holds.
    index: RTree,
}

/// One immutable, version-tagged dataset snapshot. A cache miss pins
/// the current one; commits build the next one incrementally and
/// publish it atomically.
struct DataState {
    pool: BufferPool,
    r: Arc<SideState>,
    s: Arc<SideState>,
    version: u64,
}

/// One in-flight slot, released on drop — on unwinding too. `Relaxed`
/// throughout: the count publishes no other data.
struct Slot<'a>(&'a AtomicUsize);

impl<'a> Slot<'a> {
    /// Takes a slot unless `bound` misses already hold one.
    fn take(in_flight: &'a AtomicUsize, bound: usize) -> Option<Self> {
        let admit = |held: usize| (held < bound).then_some(held + 1);
        let taken = in_flight.fetch_update(Ordering::Relaxed, Ordering::Relaxed, admit);
        taken.ok().map(|_| Slot(in_flight))
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running spatial query service. It owns no thread: every request
/// runs on the thread that calls [`SpatialService::call`].
pub struct SpatialService {
    config: ServiceConfig,
    /// The current dataset snapshot (epoch-stamped publish/subscribe).
    snapshot: SnapshotCell<DataState>,
    /// The write-ahead log. Its mutex serializes writers only — never
    /// touched by the request path — and commit order IS log order.
    wal: Mutex<WriteAheadLog>,
    /// The last checkpoint image ([`SpatialService::checkpoint`]); the
    /// WAL holds only what came after it. Locked after `wal`.
    image: Mutex<Option<Vec<u8>>>,
    /// The result cache, never locked when `cache_capacity` is 0.
    cache: Mutex<ResultCache>,
    /// Misses computing right now, at most `queue_depth`.
    in_flight: AtomicUsize,
    metrics: RequestMetrics,
    /// Write-path counters (commits, WAL activity, apply I/O, cache
    /// invalidation precision).
    write_metrics: WriteMetrics,
    /// Test hook: the next computed request panics while holding the
    /// cache lock, exercising panic containment and poison recovery.
    #[cfg(test)]
    poison: std::sync::atomic::AtomicBool,
    /// Test hook: while a writer holds it, a miss that took its slot
    /// waits here before computing.
    #[cfg(test)]
    park: std::sync::RwLock<()>,
}

impl SpatialService {
    /// Builds the dataset (stored relations plus clustered
    /// generalization trees) on a fresh paper-geometry disk.
    ///
    /// Empty relations are allowed: a shard-local instance may own no
    /// slice of one (or either) side of the data, in which case joins
    /// and selects simply return empty results and `Auto` dispatch skips
    /// selectivity sampling (the estimator needs tuples to draw).
    ///
    /// `_world` is ignored: no strategy reads one. It stays only because
    /// the benchmark harness calls this four-argument form; ROADMAP item
    /// 25(a) drops it.
    pub fn start(
        config: ServiceConfig,
        r_tuples: &[(u64, Geometry)],
        s_tuples: &[(u64, Geometry)],
        _world: Rect,
    ) -> Self {
        let state = build_state(&config, r_tuples, s_tuples, 0);
        SpatialService::with_state(config, state, WriteAheadLog::new(), None)
    }

    /// Serves `state`, logs to `wal`; `image` is the last checkpoint.
    fn with_state(
        config: ServiceConfig,
        state: DataState,
        wal: WriteAheadLog,
        image: Option<Vec<u8>>,
    ) -> Self {
        let version = state.version;
        SpatialService {
            config,
            snapshot: SnapshotCell::new(Arc::new(state), version),
            wal: Mutex::new(wal),
            image: Mutex::new(image),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            in_flight: AtomicUsize::new(0),
            metrics: RequestMetrics::new(),
            write_metrics: WriteMetrics::new(),
            #[cfg(test)]
            poison: false.into(),
            #[cfg(test)]
            park: std::sync::RwLock::new(()),
        }
    }

    /// Answers `req` on the calling thread. The result cache is probed
    /// first, at the published version: a hit is answered at once and
    /// is never shed. A miss takes an in-flight slot (or is shed with
    /// [`Rejection::QueueFull`] when `queue_depth` misses hold one),
    /// pins the current snapshot, and computes with the retry ladder; a
    /// panic in the computation answers [`Rejection::WorkerPanicked`].
    /// The reply is cached under the pinned version.
    pub fn call(&self, req: Request) -> ServiceResult {
        let version = self.version();
        let key = CacheKey::for_request(version, &req);
        if let Some(reply) = self.cache().and_then(|mut cache| cache.get(&key)) {
            self.metrics.record_completion(0, 0, true);
            return Ok(Response {
                reply,
                cached: true,
                version,
                queue_us: 0,
                exec_us: 0,
                attempts: 0,
                degraded: false,
            });
        }
        let Some(_slot) = Slot::take(&self.in_flight, self.config.queue_depth.max(1)) else {
            self.metrics.record_shed();
            return Err(Rejection::QueueFull);
        };
        let arrived = Instant::now();
        let state = self.snapshot.load();
        let key = key.at_version(state.version);
        let fingerprint = key.fingerprint();
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            self.test_hooks();
            compute_with_retry(&state, &self.config, &req, fingerprint)
        }));
        let exec_us = started.elapsed().as_micros() as u64;
        let Ok(outcome) = outcome else {
            self.metrics.record_worker_panic();
            return Err(Rejection::WorkerPanicked);
        };
        let done = match outcome {
            Ok(done) => done,
            Err(failed) => {
                self.metrics
                    .record_failed(failed.faulted_attempts, failed.backoff_units);
                return Err(Rejection::Failed(failed.error));
            }
        };
        if let Some(mut cache) = self.cache() {
            let region = CacheKey::region_for_request(&req);
            cache.insert(key, done.reply.clone(), region);
        }
        let latency_us = arrived.elapsed().as_micros() as u64;
        self.metrics.record_completion(latency_us, exec_us, false);
        self.metrics
            .record_recovery(done.faulted_attempts, done.backoff_units, done.degraded);
        Ok(Response {
            reply: done.reply,
            cached: false,
            version: state.version,
            queue_us: 0,
            exec_us,
            attempts: done.attempts,
            degraded: done.degraded,
        })
    }

    /// The result cache, or `None` when caching is off — so a cache-off
    /// service never locks. Poison-recovered: cache state is single-step
    /// consistent, so a panic mid-operation leaves nothing worth dying for.
    fn cache(&self) -> Option<MutexGuard<'_, ResultCache>> {
        (self.config.cache_capacity > 0)
            .then(|| self.cache.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The `cfg(test)` hooks a computing miss passes: wait while `park`
    /// is write-held, then panic holding the cache lock if `poison` is set.
    #[cfg(test)]
    fn test_hooks(&self) {
        drop(self.park.read());
        if self.poison.swap(false, Ordering::Relaxed) {
            let _cache = self.cache.lock();
            panic!("poison pill: dies holding the cache lock"); // PANIC-OK: cfg(test) hook
        }
    }

    /// Executes `req` on the calling thread — same computation as
    /// [`call`](Self::call) but with *no* fault injector armed, bypassing
    /// slot, cache, and metrics. This is the fault-free
    /// sequential reference for replay validation: every `Ok` response
    /// a chaos run produces must carry a result identical to this.
    pub fn execute_reference(&self, req: &Request) -> Reply {
        let state = self.snapshot.load();
        try_compute(&state, &self.config, req, None)
            .unwrap_or_else(|e| panic!("reference compute failed: {e}")) // PANIC-OK: no injector armed
    }

    /// Commits a [`WriteBatch`] durably and atomically, off the hot
    /// path. The protocol, under the WAL lock (writers serialize with
    /// each other only; `call` keeps serving throughout):
    ///
    /// 1. Append the batch's redo record to the WAL tail.
    /// 2. Build the next snapshot incrementally on a copy-on-write fork
    ///    of the current pool. An apply fault rolls the tail back and
    ///    aborts.
    /// 3. Sync the WAL — **the commit point**. A sync fault loses the
    ///    tail, aborts with [`Rejection::Failed`], and publishes
    ///    nothing: the service state is exactly as before the call.
    /// 4. Publish the snapshot in O(1) and invalidate the cache entries
    ///    whose region intersects what the batch touched.
    ///
    /// Per-op results come back in the [`CommitReceipt`]: rejected
    /// operations (duplicate insert, missing-id delete, oversized
    /// geometry) carry typed [`MutationOutcome`]s and never abort the
    /// batch. Readers never block: in-flight requests finish against
    /// the snapshot they pinned.
    pub fn commit(&self, batch: &WriteBatch) -> Result<CommitReceipt, Rejection> {
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let wal_lsn = wal.append(&batch.encode());
        let current = self.snapshot.load();
        let apply_started = Instant::now();
        let applied = match apply_incremental(&self.config, &current, batch) {
            Ok(applied) => applied,
            Err(e) => {
                wal.rollback_tail();
                self.write_metrics.record_aborted_commit();
                self.record_wal_gauges(&wal);
                return Err(Rejection::Failed(e));
            }
        };
        // The commit point: the redo record must be durable before the
        // snapshot becomes visible. sync() rolls the tail back itself
        // on a fault, so an aborted commit leaves no trace in the log.
        let sync_started = Instant::now();
        if let Err(e) = wal.sync() {
            self.write_metrics.record_aborted_commit();
            self.record_wal_gauges(&wal);
            return Err(Rejection::Failed(e));
        }
        self.write_metrics.record_commit_work(
            applied.nodes_touched,
            (sync_started - apply_started).as_micros() as u64,
            applied.evolve_us,
            sync_started.elapsed().as_micros() as u64,
        );
        let (version, io) = (applied.state.version, applied.state.pool.stats());
        drop(current);
        self.snapshot.publish(Arc::new(applied.state));
        let (cache_purged, cache_retained) = self.purge_cache(version, &applied.touched);
        let applied_ops = applied.outcomes.iter().filter(|o| o.applied()).count() as u64;
        let rejected_ops = applied.outcomes.len() as u64 - applied_ops;
        self.write_metrics.record_commit(
            applied_ops,
            rejected_ops,
            io.physical_writes + io.physical_reads,
            cache_purged as u64,
            cache_retained as u64,
        );
        self.record_wal_gauges(&wal);
        Ok(CommitReceipt {
            version,
            wal_lsn,
            outcomes: applied.outcomes,
            io,
            cache_purged,
            cache_retained,
        })
    }

    /// Stores an image of the current snapshot — a synced
    /// [`WriteAheadLog`] of a header (`IMAGE_TAG`, the version, the last
    /// WAL LSN it covers) and R's and S's tuples in position order as
    /// [`WriteBatch`] inserts — then truncates the WAL to what follows
    /// it, all under the WAL lock. Returns the version the image holds.
    pub fn checkpoint(&self) -> Result<u64, StorageError> {
        let mut wal = self.wal.lock().unwrap_or_else(PoisonError::into_inner);
        let state = self.snapshot.load();
        let mut shard = state.pool.fork_view(self.config.shard_capacity);
        let mut image = WriteAheadLog::new();
        let (version, covered) = (state.version.to_le_bytes(), wal.synced_lsn().to_le_bytes());
        image.append(&[IMAGE_TAG, &version, &covered].concat());
        for (side, tuples) in [(Side::R, &state.r), (Side::S, &state.s)] {
            let tuples = tuples.rel.try_scan(&mut shard)?.into_iter();
            let ops = tuples.map(|(id, value)| (side, Mutation::Insert { id, value }));
            image.append(&WriteBatch { ops: ops.collect() }.encode());
        }
        image.sync()?;
        *self.image.lock().unwrap_or_else(PoisonError::into_inner) = Some(image.durable_image());
        wal.truncate();
        self.record_wal_gauges(&wal);
        Ok(state.version)
    }

    /// The last [`checkpoint`](Self::checkpoint)'s image, which
    /// [`recover`](Self::recover) reads beside [`wal_image`](Self::wal_image).
    pub fn checkpoint_image(&self) -> Option<Vec<u8>> {
        let image = self.image.lock().unwrap_or_else(PoisonError::into_inner);
        image.clone()
    }

    /// Builds the image's tuples as [`start`](Self::start) builds, then
    /// applies the WAL's durable batches after the image's LSN. A damaged
    /// image or log is [`StorageError::WalCorrupt`]; a log that starts
    /// after the image's LSN or ends before it is [`StorageError::LogGap`].
    pub fn recover(
        config: ServiceConfig,
        image: &[u8],
        wal: &[u8],
    ) -> Result<SpatialService, StorageError> {
        let (version, image_lsn, [r, s]) = decode_image(&config, image)?;
        let (log, records) = WriteAheadLog::recover(wal)?;
        let (log_base, log_end) = (log.base_lsn(), log.synced_lsn());
        if log_base > image_lsn || log_end < image_lsn {
            return Err(StorageError::LogGap {
                image_lsn,
                log_base,
                log_end,
            });
        }
        let mut state = build_state(&config, &r, &s, version);
        for (_, payload) in records.iter().filter(|(lsn, _)| *lsn > image_lsn) {
            state = apply_incremental(&config, &state, &WriteBatch::decode(payload)?)?.state;
        }
        let image = Some(image.to_vec());
        Ok(SpatialService::with_state(config, state, log, image))
    }

    /// Drops the cache entries a commit publishing `version` could have
    /// changed and re-stamps the rest: `(purged, retained)`.
    fn purge_cache(&self, version: u64, touched: &TouchedRegions) -> (usize, usize) {
        self.cache()
            .map_or((0, 0), |mut cache| cache.purge_region(version, touched))
    }

    /// The durable WAL image — magic header plus every synced frame
    /// since the last checkpoint, excluding any unsynced tail. With
    /// [`checkpoint_image`](Self::checkpoint_image), the byte strings
    /// crash recovery consumes ([`SpatialService::recover`]).
    pub fn wal_image(&self) -> Vec<u8> {
        self.wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .durable_image()
    }

    /// Arms (or disarms) fault injection on WAL sync attempts — the
    /// chaos hook for crash-at-the-commit-point testing. The injector
    /// is consulted once per sync attempt with `FaultOp::Write` on
    /// `PageId(attempt)`.
    pub fn set_wal_fault_injector(&self, injector: Option<FaultInjector>) {
        self.wal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .set_fault_injector(injector);
    }

    /// The write path's counters (commits, aborts, WAL gauges, apply
    /// I/O, cache invalidation precision).
    pub fn write_metrics(&self) -> &WriteMetrics {
        &self.write_metrics
    }

    /// Mirrors the WAL's own counters into the write metrics gauges.
    fn record_wal_gauges(&self, wal: &WriteAheadLog) {
        self.write_metrics.set_wal_gauges(
            wal.records(),
            wal.syncs(),
            wal.sync_failures(),
            wal.durable_bytes() as u64,
        );
    }

    /// Current dataset version (starts at the seed's 0 or the image's,
    /// bumped per update batch), read without a lock: `commit`, the only
    /// publisher, publishes its predecessor's version plus one, so the
    /// cell's epoch *is* the published snapshot's version.
    pub fn version(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Aggregate latency/outcome metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        self.metrics.snapshot()
    }

    /// `(hits, misses, resident entries)` of the result cache.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        (cache.hits(), cache.misses(), cache.len())
    }

    /// Total publisher-lock acquisitions on the snapshot cell so far.
    /// Flat across a stretch of traffic at a constant version ⇒ that
    /// stretch never took a lock to reach the dataset.
    pub fn snapshot_lock_count(&self) -> u64 {
        self.snapshot.publisher_lock_count()
    }

    /// Emits latency histograms, outcome counters and cache statistics
    /// as trace events, plus the snapshot pool's
    /// counter gauges — the full `sj-obs` vocabulary for one service
    /// run.
    pub fn emit_metrics(&self, sink: &mut TraceSink) {
        self.metrics().emit(sink);
        let (hits, misses, len) = self.cache_stats();
        sink.emit(
            "service/cache",
            0,
            &[("hits", hits), ("misses", misses), ("resident", len as u64)],
        );
        let mut reg = sj_obs::CounterRegistry::new();
        self.snapshot.load().pool.export_counters(&mut reg);
        sink.emit("service/pool", 0, reg.as_counters());
        self.write_metrics.emit(sink);
    }
}

/// Builds a complete snapshot — pool, relations, trees — on a fresh
/// paper-geometry disk. Deterministic given the tuple sets, so replay
/// validation can reconstruct any version from its update history.
fn build_state(
    config: &ServiceConfig,
    r_tuples: &[(u64, Geometry)],
    s_tuples: &[(u64, Geometry)],
    version: u64,
) -> DataState {
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), config.pool_capacity);
    let r = StoredRelation::build(&mut pool, r_tuples, config.record_size, Layout::Clustered);
    let s = StoredRelation::build(&mut pool, s_tuples, config.record_size, Layout::Clustered);
    let r = build_tree(&mut pool, r, r_tuples, config);
    let s = build_tree(&mut pool, s, s_tuples, config);
    DataState {
        pool,
        r,
        s,
        version,
    }
}

/// First bytes of a checkpoint image's header record.
const IMAGE_TAG: &[u8] = b"SJIMAGE1";

type Tuples = Vec<(u64, Geometry)>;

/// An image's version, last covered WAL LSN, and R's and S's tuples.
/// Another log, a tuple on the wrong side, a repeated id or a geometry
/// the configured record size cannot hold is a typed
/// [`StorageError::WalCorrupt`] that [`build_state`] never sees.
fn decode_image(
    config: &ServiceConfig,
    image: &[u8],
) -> Result<(u64, u64, [Tuples; 2]), StorageError> {
    let corrupt = |reason| StorageError::WalCorrupt { offset: 0, reason };
    let (_, records) = WriteAheadLog::recover(image)?;
    let [(_, header), (_, r), (_, s)] = &records[..] else {
        return Err(corrupt("an image is a header and two relations"));
    };
    let header = header.strip_prefix(IMAGE_TAG).filter(|h| h.len() == 16);
    let header = header.ok_or_else(|| corrupt("not a checkpoint image"))?;
    let (version, covered) = header.split_at(8);
    let word = |b: &[u8]| b.try_into().map_or(0, u64::from_le_bytes);
    let mut seen = std::collections::HashSet::new();
    let mut side = |want: Side, payload: &[u8]| {
        let ops = WriteBatch::decode(payload)?.ops.into_iter();
        ops.map(|op| match op {
            (side, Mutation::Insert { id, value })
                if side == want && !config.too_large(&value) && seen.insert((side, id)) =>
            {
                Ok((id, value))
            }
            _ => Err(corrupt("an image tuple its relation cannot hold")),
        })
        .collect::<Result<Vec<_>, _>>()
    };
    let sides = [side(Side::R, r)?, side(Side::S, s)?];
    Ok((word(version), word(covered), sides))
}

/// Bulk-loads a clustered generalization tree over the `tuples` `rel`
/// was just built from: one side of a snapshot, whose in-memory R-tree
/// (kept live for incremental maintenance) and paged tree share one
/// `GenTree`.
fn build_tree(
    pool: &mut BufferPool,
    rel: StoredRelation,
    tuples: &[(u64, Geometry)],
    config: &ServiceConfig,
) -> Arc<SideState> {
    let index = RTree::bulk_load(RTreeConfig::with_fanout(config.fanout), tuples.to_vec());
    let tree = Arc::clone(index.shared_tree());
    let tree = Arc::new(if config.compress_geometry {
        TreeRelation::new_compressed(pool, tree, config.quant_record_size, Layout::Clustered)
    } else {
        TreeRelation::new(pool, tree, config.record_size, Layout::Clustered)
    });
    Arc::new(SideState { rel, tree, index })
}

/// A batch applied to (a fork of) the current snapshot, awaiting the
/// commit point.
struct Applied {
    state: DataState,
    outcomes: Vec<MutationOutcome>,
    touched: TouchedRegions,
    /// Arena slots the evolve examined, over the touched sides.
    nodes_touched: u64,
    evolve_us: u64,
}

/// Builds the next snapshot from `current` plus `batch`: fork the
/// current pool (page-granular copy-on-write, so untouched pages are
/// shared, not copied), apply each mutation in batch order to a copy of
/// the side it names — relation handle and in-memory R-tree, copied by
/// the first op that names the side, the R-tree's `GenTree` by its first
/// applied mutation — then evolve each touched side's paged tree from the
/// slots its R-tree wrote ([`TreeRelation::try_evolve`]), which shares
/// that `GenTree` with the new paged tree. A side no op names is the
/// previous snapshot's `Arc`. Physical I/O and slots examined are
/// O(batch · tree height), independent of relation size — the receipt's
/// `io` and [`WriteMetrics::apply_nodes_touched`] prove it per commit —
/// and so is what is copied: arena, flat view, directories, id maps and
/// page table are chunk-shared with `current` (`sj_storage::CowVec`);
/// only `StoredRelation::{ids, slots}` are copied whole.
fn apply_incremental(
    config: &ServiceConfig,
    current: &DataState,
    batch: &WriteBatch,
) -> Result<Applied, StorageError> {
    let mut pool = current.pool.fork_view(config.pool_capacity);
    let mut r = Arc::clone(&current.r);
    let mut s = Arc::clone(&current.s);
    let mut touched = TouchedRegions::default();
    let mut outcomes = Vec::with_capacity(batch.len());
    for (side, op) in &batch.ops {
        let state = Arc::make_mut(match side {
            Side::R => &mut r,
            Side::S => &mut s,
        });
        outcomes.push(apply_one(
            &mut pool,
            config,
            state,
            *side,
            op,
            &mut touched,
        )?);
    }
    let evolve_started = Instant::now();
    let mut nodes_touched = 0;
    for (state, region) in [(&mut r, touched.r), (&mut s, touched.s)] {
        if region.is_some() {
            let state = Arc::make_mut(state);
            let dirty = state.index.take_dirty();
            nodes_touched += dirty.len() as u64;
            let next = Arc::clone(state.index.shared_tree());
            state.tree = Arc::new(state.tree.try_evolve(&mut pool, next, &dirty)?);
        }
    }
    let evolve_us = evolve_started.elapsed().as_micros() as u64;
    Ok(Applied {
        state: DataState {
            pool,
            r,
            s,
            version: current.version + 1,
        },
        outcomes,
        touched,
        nodes_touched,
        evolve_us,
    })
}

/// One mutation against one side's stored relation and in-memory
/// R-tree. Outcomes are a pure function of the pre-state and the op —
/// presence checks go through the R-tree (the live-id authority) — so
/// WAL replay reproduces them exactly. Deletes are order-preserving
/// (`StoredRelation::try_delete` shifts positions, never swaps), which
/// keeps the tuple sequence identical to a sequential rebuild — the
/// invariant the linearizability property suite leans on.
fn apply_one(
    pool: &mut BufferPool,
    config: &ServiceConfig,
    state: &mut SideState,
    side: Side,
    op: &Mutation,
    touched: &mut TouchedRegions,
) -> Result<MutationOutcome, StorageError> {
    let SideState { rel, index, .. } = state;
    match op {
        Mutation::Insert { id, value } => {
            if index.get(*id).is_some() {
                return Ok(MutationOutcome::DuplicateId);
            }
            if config.too_large(value) {
                return Ok(MutationOutcome::TooLarge);
            }
            rel.try_insert(pool, *id, value)?;
            index.insert(*id, value.clone());
            touched.touch_geometry(side, value);
            Ok(MutationOutcome::Inserted)
        }
        Mutation::Delete { id } => {
            let Some(old) = index.get(*id).map(Bounded::mbr) else {
                return Ok(MutationOutcome::MissingId);
            };
            rel.try_delete(pool, *id)?;
            index.remove(*id);
            touched.touch(side, &old);
            Ok(MutationOutcome::Deleted)
        }
        Mutation::Upsert { id, value } => {
            if config.too_large(value) {
                return Ok(MutationOutcome::TooLarge);
            }
            let replaced = match index.get(*id).map(Bounded::mbr) {
                Some(old) => {
                    rel.try_replace(pool, *id, value)?;
                    index.remove(*id);
                    touched.touch(side, &old);
                    true
                }
                None => {
                    rel.try_insert(pool, *id, value)?;
                    false
                }
            };
            index.insert(*id, value.clone());
            touched.touch_geometry(side, value);
            Ok(MutationOutcome::Upserted { replaced })
        }
    }
}

/// A computation that eventually succeeded, with its recovery footprint.
struct Computed {
    reply: Reply,
    /// Total compute attempts, including the successful one.
    attempts: u32,
    /// Attempts aborted by a storage fault.
    faulted_attempts: u32,
    /// Model-time backoff units spent between attempts.
    backoff_units: u64,
    /// True when the resilient nested-loop fallback produced the reply.
    degraded: bool,
}

/// A request that faulted on every attempt, degraded fallback included.
struct Exhausted {
    error: StorageError,
    faulted_attempts: u32,
    backoff_units: u64,
}

/// Runs `req` with the full fail-stop recovery ladder: up to
/// `retry_attempts` tries of the requested computation (each on a fresh
/// shard with its own deterministic injector stream, exponential
/// model-time backoff between them), then — for joins — one resilient
/// degraded nested-loop pass, then typed failure. Backoff is accounted
/// in model units, not slept: the simulated disk has no wall-clock to
/// wait out.
fn compute_with_retry(
    state: &DataState,
    config: &ServiceConfig,
    req: &Request,
    fingerprint: u64,
) -> Result<Computed, Exhausted> {
    let max_attempts = config.retry_attempts.max(1);
    let mut attempts = 0u32;
    let mut faulted_attempts = 0u32;
    let mut backoff_units = 0u64;
    let error = loop {
        attempts += 1;
        let faults = attempt_faults(config, state.version, fingerprint, attempts);
        match try_compute(state, config, req, faults) {
            Ok(reply) => {
                return Ok(Computed {
                    reply,
                    attempts,
                    faulted_attempts,
                    backoff_units,
                    degraded: false,
                })
            }
            Err(e) => {
                faulted_attempts += 1;
                if attempts >= max_attempts {
                    break e;
                }
                // Exponential model-time backoff: 1, 2, 4, … units.
                backoff_units += 1u64 << (attempts - 1).min(16);
            }
        }
    };
    // Graceful degradation for joins: every fail-stop attempt above
    // aborts on its *first* fault, so at high fault rates no strategy —
    // nested loop included — can finish a whole attempt. The degraded
    // pass instead retries each record read individually (the faulted
    // page is non-resident, so a retry re-draws from the injector
    // stream) and joins in memory: exact result, degraded cost profile.
    if matches!(req.kind, QueryKind::Join { .. }) {
        attempts += 1;
        let faults = attempt_faults(config, state.version, fingerprint, attempts);
        match try_degraded_join(state, config, req.theta, faults) {
            Ok(reply) => {
                return Ok(Computed {
                    reply,
                    attempts,
                    faulted_attempts,
                    backoff_units,
                    degraded: true,
                })
            }
            Err(e) => {
                faulted_attempts += 1;
                return Err(Exhausted {
                    error: e,
                    faulted_attempts,
                    backoff_units,
                });
            }
        }
    }
    Err(Exhausted {
        error,
        faulted_attempts,
        backoff_units,
    })
}

/// The injector policy for one compute attempt, or `None` when fault
/// injection is disarmed. Seeds mix the configured base seed with the
/// dataset version, the request fingerprint, and the attempt number, so
/// every attempt draws an independent — but fully reproducible — stream.
fn attempt_faults(
    config: &ServiceConfig,
    version: u64,
    fingerprint: u64,
    attempt: u32,
) -> Option<FaultConfig> {
    if config.fault_read_prob <= 0.0 && config.fault_write_prob <= 0.0 {
        return None;
    }
    Some(FaultConfig {
        seed: mix_seed(config.fault_seed, version, fingerprint, attempt),
        read_prob: config.fault_read_prob,
        write_prob: config.fault_write_prob,
        ..FaultConfig::default()
    })
}

/// splitmix64-style finalizer over the four seed components.
fn mix_seed(base: u64, version: u64, fingerprint: u64, attempt: u32) -> u64 {
    let mut z = base
        .wrapping_add(version.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(fingerprint.rotate_left(17))
        .wrapping_add(u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Evaluates one request against `state` on a private cold shard,
/// optionally armed with a fault injector. Deterministic given
/// `(state.version, req, faults)`: the advisor seed is fixed, every
/// executor is deterministic, and results are sorted — so concurrent
/// execution, cached replays, and the sequential reference all agree
/// byte-for-byte. Fail-stop: the first storage fault aborts the attempt
/// with a typed error and nothing partial escapes.
fn try_compute(
    state: &DataState,
    config: &ServiceConfig,
    req: &Request,
    faults: Option<FaultConfig>,
) -> Result<Reply, StorageError> {
    let mut shard = state.pool.fork_view(config.shard_capacity);
    if let Some(fault_config) = faults {
        shard.set_fault_injector(Some(FaultInjector::new(fault_config)));
    }
    match &req.kind {
        QueryKind::Select { side, probe } => {
            let tree = match side {
                Side::R => &state.r.tree,
                Side::S => &state.s.tree,
            };
            let order = TraversalOrder::BreadthFirst;
            let mut matches = tree_select(&mut shard, tree, probe, req.theta, order)?.matches;
            matches.sort_unstable();
            Ok(Reply::Select {
                matches: Arc::new(matches),
            })
        }
        QueryKind::Join { strategy } => {
            let chooser = auto_chooser(
                config.profile,
                &state.r.rel,
                &state.s.rel,
                config.selectivity_samples,
                config.seed,
            );
            let ops = JoinOperands {
                flat: Some((&state.r.rel, &state.s.rel)),
                trees: Some((&state.r.tree, &state.s.tree)),
                chooser: Some(&chooser),
            };
            let mut exec = match strategy.executor(&ops) {
                Some(exec) => exec,
                // Absent operands are a construction bug, not a storage
                // fault; the service always supplies both operand kinds.
                None => unreachable!("operands cover every strategy"), // PANIC-OK: logic error
            };
            let run = exec.try_execute(&JoinRequest::new(req.theta), &mut shard)?;
            let mut pairs = run.pairs;
            pairs.sort_unstable();
            Ok(Reply::Join {
                pairs: Arc::new(pairs),
                resolved: exec.resolved_strategy(),
            })
        }
    }
}

/// The degraded join pass: scan both relations with per-record-read
/// retries, then nested-loop in memory. Same exact match set as every
/// strategy executor (results sorted), but it survives fault rates
/// where fail-stop whole-attempt execution cannot — a read only fails
/// the pass after [`DEGRADED_READ_RETRIES`] consecutive faulted draws.
fn try_degraded_join(
    state: &DataState,
    config: &ServiceConfig,
    theta: ThetaOp,
    faults: Option<FaultConfig>,
) -> Result<Reply, StorageError> {
    let mut shard = state.pool.fork_view(config.shard_capacity);
    if let Some(fault_config) = faults {
        shard.set_fault_injector(Some(FaultInjector::new(fault_config)));
    }
    let r = resilient_scan(&state.r.rel, &mut shard)?;
    let s = resilient_scan(&state.s.rel, &mut shard)?;
    let mut pairs = Vec::new();
    for (r_id, r_geom) in &r {
        for (s_id, s_geom) in &s {
            if theta.eval(r_geom, s_geom) {
                pairs.push((*r_id, *s_id));
            }
        }
    }
    pairs.sort_unstable();
    Ok(Reply::Join {
        pairs: Arc::new(pairs),
        resolved: Strategy::NestedLoop,
    })
}

/// Reads every tuple of `rel`, retrying each record read up to
/// [`DEGRADED_READ_RETRIES`] times. A faulted fetch leaves the page
/// non-resident, so every retry performs a fresh physical read and
/// draws the next value from the deterministic injector stream.
fn resilient_scan(
    rel: &StoredRelation,
    shard: &mut BufferPool,
) -> Result<Vec<(u64, Geometry)>, StorageError> {
    let mut tuples = Vec::with_capacity(rel.len());
    for i in 0..rel.len() {
        let mut outcome = rel.try_read_at(shard, i);
        let mut tries = 1;
        while outcome.is_err() && tries < DEGRADED_READ_RETRIES {
            outcome = rel.try_read_at(shard, i);
            tries += 1;
        }
        tuples.push(outcome?);
    }
    Ok(tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Point, ThetaOp};
    use sj_joins::Strategy;
    use std::sync::atomic::Ordering;

    #[test]
    fn too_large_admits_17_vertices_at_the_default_slot() {
        let cfg = ServiceConfig::default();
        let gon = |n| Geometry::Polygon(sj_geom::Polygon::regular(Point::new(0.0, 0.0), 1.0, n));
        assert!(!cfg.too_large(&gon(17)));
        assert!(cfg.too_large(&gon(18)));
    }

    fn grid_tuples(n: usize, step: f64, id0: u64) -> Vec<(u64, Geometry)> {
        (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new((i % n) as f64 * step, (i / n) as f64 * step)),
                )
            })
            .collect()
    }

    fn world() -> Rect {
        Rect::from_bounds(0.0, 0.0, 64.0, 64.0)
    }

    /// Chunks of `now`'s arena, flat view, record directory and heap-file
    /// directories that are not `Arc::ptr_eq` with `then`'s.
    fn tree_chunks_copied(now: &TreeRelation, then: &TreeRelation) -> usize {
        now.tree.copied_chunks(&then.tree)
            + now.flat.copied_chunks(&then.flat)
            + now.paged.copied_chunks(&then.paged)
    }

    /// A SELECT with a point probe at `(x, y)`.
    fn select_at(side: Side, x: f64, y: f64, theta: ThetaOp) -> Request {
        Request::select(side, Geometry::Point(Point::new(x, y)), theta)
    }

    fn small_service(config: ServiceConfig) -> SpatialService {
        SpatialService::start(
            config,
            &grid_tuples(5, 10.0, 0),
            &grid_tuples(5, 10.0, 500),
            world(),
        )
    }

    #[test]
    fn select_matches_exhaustive_reference() {
        let svc = small_service(ServiceConfig::default());
        let probe = Geometry::Point(Point::new(20.0, 20.0));
        let theta = ThetaOp::WithinDistance(15.0);
        let resp = svc
            .call(Request::select(Side::R, probe.clone(), theta))
            .expect("no shedding at idle");
        let Reply::Select { matches } = &resp.reply else {
            panic!("select reply expected");
        };
        // Reference: exhaustive θ-test over the same tree.
        let state = svc.snapshot.load();
        let mut want =
            sj_gentree::select::select_exhaustive(&state.r.tree.tree, &probe, theta).matches;
        want.sort_unstable();
        assert_eq!(**matches, want);
        assert!(!matches.is_empty(), "probe must hit something");
    }

    #[test]
    fn join_matches_direct_execution_for_every_strategy() {
        let svc = small_service(ServiceConfig::default());
        let theta = ThetaOp::Overlaps;
        let want = {
            let Reply::Join { pairs, .. } =
                svc.execute_reference(&Request::join(Strategy::NestedLoop, theta))
            else {
                panic!("join reply expected");
            };
            pairs
        };
        for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
            let resp = svc
                .call(Request::join(strategy, theta))
                .expect("no shedding at idle");
            let Reply::Join { pairs, resolved } = &resp.reply else {
                panic!("join reply expected");
            };
            assert_eq!(*pairs, want, "{} diverges", strategy.name());
            assert_ne!(*resolved, Strategy::Auto, "auto must resolve");
        }
    }

    /// Every strategy a request can name runs every operator: no
    /// combination is rejected, and each answers the nested-loop result.
    #[test]
    fn every_strategy_answers_every_theta_at_submit() {
        let svc = small_service(ServiceConfig::default());
        for theta in [
            ThetaOp::WithinCenterDistance(12.0),
            ThetaOp::WithinDistance(12.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::DirectionOf(sj_geom::Direction::North),
            ThetaOp::ReachableWithin {
                minutes: 6.0,
                speed: 2.0,
            },
            ThetaOp::Adjacent,
        ] {
            let Reply::Join { pairs: want, .. } =
                svc.execute_reference(&Request::join(Strategy::NestedLoop, theta))
            else {
                panic!("join reply expected");
            };
            for strategy in Strategy::ALL.into_iter().chain([Strategy::Auto]) {
                let resp = svc
                    .call(Request::join(strategy, theta))
                    .unwrap_or_else(|e| panic!("{strategy:?} × {theta:?} rejected: {e:?}"));
                let Reply::Join { pairs, .. } = &resp.reply else {
                    panic!("join reply expected");
                };
                assert_eq!(*pairs, want, "{strategy:?} × {theta:?}");
            }
        }
    }

    /// `selectivity_samples` is "min 1" like `queue_depth` and
    /// `retry_attempts`: zero used to trip the sampler's assertion inside
    /// the computation and turn every `Auto` join into `WorkerPanicked`.
    #[test]
    fn zero_selectivity_samples_still_answer_auto() {
        let svc = small_service(ServiceConfig {
            selectivity_samples: 0,
            ..ServiceConfig::default()
        });
        let theta = ThetaOp::Overlaps;
        let auto = Request::join(Strategy::Auto, theta);
        let resp = svc.call(auto.clone()).expect("one sample is drawn");
        assert_eq!(resp.reply, svc.execute_reference(&auto));
        let (Reply::Join { pairs, resolved }, Reply::Join { pairs: want, .. }) = (
            &resp.reply,
            svc.execute_reference(&Request::join(Strategy::NestedLoop, theta)),
        ) else {
            panic!("join replies expected");
        };
        assert_eq!(*pairs, want);
        assert_ne!(*resolved, Strategy::Auto, "auto must resolve");
    }

    /// The profile is caller-supplied: `k = 1` makes the model's `N` 0/0,
    /// so every §4 cost is NaN. Ranking must survive that — the pick is
    /// still concrete and the join still exact — for all eight operators.
    #[test]
    fn a_profile_the_model_cannot_price_still_resolves_auto() {
        let mut config = ServiceConfig::default();
        config.profile.params.k = 1;
        let svc = small_service(config);
        for theta in [
            ThetaOp::WithinCenterDistance(12.0),
            ThetaOp::WithinDistance(12.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::DirectionOf(sj_geom::Direction::NorthWest),
            ThetaOp::ReachableWithin {
                minutes: 6.0,
                speed: 2.0,
            },
            ThetaOp::Adjacent,
        ] {
            let resp = svc
                .call(Request::join(Strategy::Auto, theta))
                .expect("a NaN cost must not panic the computation");
            let (Reply::Join { pairs, resolved }, Reply::Join { pairs: want, .. }) = (
                &resp.reply,
                svc.execute_reference(&Request::join(Strategy::NestedLoop, theta)),
            ) else {
                panic!("join replies expected");
            };
            assert_eq!(*pairs, want, "{theta:?}");
            assert_ne!(*resolved, Strategy::Auto, "{theta:?}");
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_updates_invalidate() {
        let svc = small_service(ServiceConfig::default());
        let req = select_at(Side::R, 0.0, 0.0, ThetaOp::WithinDistance(5.0));

        let first = svc.call(req.clone()).expect("ok");
        assert!(!first.cached);
        let second = svc.call(req.clone()).expect("ok");
        assert!(second.cached, "identical query must be cache-served");
        assert_eq!(first.reply, second.reply);
        assert_eq!(second.reply, svc.execute_reference(&req));
        assert_eq!((second.version, second.queue_us), (svc.version(), 0));
        assert_eq!(svc.cache_stats().0, 1, "one cache hit so far");

        // Insert a tuple right at the probe: the cached result's region
        // intersects the write, so it must be invalidated, not served.
        let receipt = svc
            .commit(&WriteBatch::new().insert(Side::R, 9999, Geometry::Point(Point::new(1.0, 1.0))))
            .expect("commit succeeds");
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.outcomes, vec![MutationOutcome::Inserted]);
        assert!(receipt.changed());
        assert!(receipt.cache_purged >= 1, "the stale entry must be purged");
        // Read-your-writes through the cache probe: the committing
        // thread's next select sees the receipt's version and data.
        let third = svc.call(req.clone()).expect("ok");
        assert!(!third.cached, "version bump must invalidate");
        assert!(third.version >= receipt.version);
        assert_eq!(third.reply, svc.execute_reference(&req));
        let (Reply::Select { matches: before }, Reply::Select { matches: after }) =
            (&second.reply, &third.reply)
        else {
            panic!("select replies expected");
        };
        assert_eq!(after.len(), before.len() + 1);
        assert!(after.contains(&9999));
    }

    #[test]
    fn cache_hits_never_touch_the_publisher_lock() {
        // Once warm, a hit is answered at the probe: one atomic version
        // load and one cache lock — never the snapshot publisher mutex.
        // The publisher lock count must stay exactly flat across a
        // stretch of hit traffic, `version()` included, and each miss
        // takes it exactly once, to pin its snapshot.
        let svc = small_service(ServiceConfig::default());
        let req = select_at(Side::R, 20.0, 20.0, ThetaOp::WithinDistance(15.0));
        svc.call(req.clone()).expect("warm the cache");
        let baseline = svc.snapshot_lock_count();
        let before = svc.metrics();
        for _ in 0..200 {
            let resp = svc.call(req.clone()).expect("ok");
            assert!(resp.cached, "warm identical query must hit");
            assert_eq!(resp.version, svc.version());
        }
        assert_eq!(
            svc.snapshot_lock_count(),
            baseline,
            "cache-hit traffic must never acquire the snapshot publisher lock"
        );
        let m = svc.metrics();
        assert_eq!(m.completed, before.completed + 200);
        assert_eq!(m.served_from_cache, before.served_from_cache + 200);
        assert_eq!(svc.cache_stats().0, 200);
        assert_eq!(m.cache_hit_latency_us.count(), m.served_from_cache);
        for k in 1..=5u32 {
            let miss = select_at(Side::R, f64::from(k), 0.0, ThetaOp::WithinDistance(3.0));
            assert!(!svc.call(miss).expect("ok").cached);
            assert_eq!(svc.snapshot_lock_count(), baseline + u64::from(k));
        }
    }

    /// Distinct nested-loop joins: every one misses the cache.
    fn distinct_miss(i: u32) -> Request {
        let theta = ThetaOp::WithinDistance(1.0 + f64::from(i) * 0.01);
        Request::join(Strategy::NestedLoop, theta)
    }

    #[test]
    fn misses_beyond_queue_depth_shed_at_admission() {
        let svc = small_service(ServiceConfig {
            queue_depth: 2,
            ..ServiceConfig::default()
        });
        let warm = select_at(Side::R, 0.0, 0.0, ThetaOp::Overlaps);
        svc.call(warm.clone()).expect("warm the cache");
        // Park two computing misses, so both slots are held; outcomes are
        // collected first and checked after the park is lifted.
        let svc = &svc;
        let park = svc.park.write().expect("unpoisoned");
        let (parked, shed, hit) = std::thread::scope(|scope| {
            let parked: Vec<_> = (0..2)
                .map(|i| scope.spawn(move || svc.call(distinct_miss(i))))
                .collect();
            while svc.in_flight.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            let shed = svc.call(distinct_miss(2));
            let hit = svc.call(warm.clone());
            drop(park);
            let parked: Vec<_> = parked.into_iter().map(|h| h.join()).collect();
            (parked, shed, hit)
        });
        assert_eq!(shed.map(|r| r.cached), Err(Rejection::QueueFull));
        let hit = hit.expect("a hit is never shed");
        assert!(hit.cached && hit.queue_us == 0);
        for answer in parked {
            assert!(answer.expect("no panic").is_ok(), "parked misses answer");
        }
        assert_eq!(svc.in_flight.load(Ordering::Relaxed), 0);
        assert_eq!(svc.metrics().shed_queue_full, 1);
        // A panicking computation gives its slot back while unwinding.
        svc.poison.store(true, Ordering::Relaxed);
        assert_eq!(
            svc.call(distinct_miss(3)).map(|r| r.cached),
            Err(Rejection::WorkerPanicked)
        );
        assert_eq!(svc.in_flight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_panicking_request_is_contained_on_the_callers_thread() {
        // The poisoned request panics while holding the cache lock — the
        // worst case: an unwinding computation AND a poisoned mutex. The
        // service must contain the panic on the caller's thread, answer
        // the request with `WorkerPanicked`, recover the lock, and keep
        // serving (through that same cache).
        let svc = small_service(ServiceConfig::default());
        svc.poison.store(true, Ordering::Relaxed);
        assert!(matches!(
            svc.call(Request::join(Strategy::NestedLoop, ThetaOp::Overlaps)),
            Err(Rejection::WorkerPanicked)
        ));
        assert!(svc.cache.is_poisoned());
        let probe = select_at(Side::R, 20.0, 20.0, ThetaOp::WithinDistance(15.0));
        let resp = svc
            .call(probe.clone())
            .expect("the service survived the panic");
        assert!(!resp.reply.is_empty());
        assert!(
            svc.call(probe).expect("ok").cached,
            "the cache still serves"
        );
        let m = svc.metrics();
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.completed, 2);
    }

    /// A commit's receipt counts as retained exactly the entries that
    /// still hit afterwards: re-stamping a survivor never evicts another.
    /// Regression: with the cache split into per-worker shards,
    /// `workers: 2, cache_capacity: 2` gave each shard one slot, and two
    /// survivors re-homed into one shard by their re-stamped keys: one
    /// evicted the other while the receipt still counted both.
    #[test]
    fn cache_retained_counts_exactly_the_entries_that_still_hit() {
        let svc = small_service(ServiceConfig {
            workers: 2,
            cache_capacity: 2,
            ..ServiceConfig::default()
        });
        let far = [0.0, 10.0].map(|y| select_at(Side::R, 40.0, y, ThetaOp::WithinDistance(2.0)));
        for req in &far {
            assert!(!svc.call(req.clone()).expect("ok").cached);
        }
        assert_eq!(svc.cache_stats().2, 2, "the cache is full");
        let batch = WriteBatch::new().insert(Side::R, 9000, Geometry::Point(Point::new(1.0, 1.0)));
        let receipt = svc.commit(&batch).expect("commit succeeds");
        assert_eq!((receipt.cache_purged, receipt.cache_retained), (0, 2));
        assert_eq!(receipt.cache_retained, svc.cache_stats().2);
        for req in &far {
            let resp = svc.call(req.clone()).expect("ok");
            assert!(resp.cached, "every retained entry hits");
            assert_eq!(resp.version, receipt.version);
        }
    }

    #[test]
    fn injected_faults_retry_to_the_exact_fault_free_result() {
        let config = ServiceConfig {
            cache_capacity: 0,
            fault_read_prob: 0.02,
            fault_seed: 0xFEED,
            retry_attempts: 3,
            ..ServiceConfig::default()
        };
        let svc = small_service(config);
        let mut completed = 0u64;
        let mut failed = 0u64;
        for i in 0..40 {
            let d = 5.0 + f64::from(i) * 0.37;
            let req = Request::join(Strategy::Sweep, ThetaOp::WithinDistance(d));
            match svc.call(req.clone()) {
                Ok(resp) => {
                    completed += 1;
                    assert!(resp.attempts >= 1);
                    let reference = svc.execute_reference(&req);
                    let (Reply::Join { pairs: got, .. }, Reply::Join { pairs: want, .. }) =
                        (&resp.reply, &reference)
                    else {
                        panic!("join replies expected");
                    };
                    assert_eq!(got, want, "Ok result must match fault-free replay exactly");
                    if !resp.degraded {
                        assert_eq!(resp.reply, reference);
                    }
                }
                Err(Rejection::Failed(e)) => {
                    failed += 1;
                    assert!(!e.kind().is_empty(), "failures carry a typed error");
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert_eq!(completed + failed, 40);
        let m = svc.metrics();
        assert_eq!(m.completed, completed);
        assert_eq!(m.failed, failed);
        assert!(
            m.injected_faults > 0,
            "a 2% read-fault rate over 40 sweep joins must inject something"
        );
        assert!(completed > 0, "retries must rescue at least some requests");
    }

    #[test]
    fn fault_outcomes_are_deterministic_across_identical_services() {
        let run = || {
            let config = ServiceConfig {
                cache_capacity: 0,
                fault_read_prob: 0.03,
                fault_seed: 0xBEEF,
                retry_attempts: 2,
                ..ServiceConfig::default()
            };
            let svc = small_service(config);
            let mut outcomes = Vec::new();
            for i in 0..20 {
                let d = 4.0 + f64::from(i) * 0.51;
                let req = Request::join(Strategy::Sweep, ThetaOp::WithinDistance(d));
                outcomes.push(match svc.call(req) {
                    Ok(resp) => (true, resp.attempts, resp.degraded, resp.reply.len()),
                    Err(Rejection::Failed(_)) => (false, 0, false, 0),
                    Err(other) => panic!("unexpected rejection {other:?}"),
                });
            }
            (outcomes, svc.metrics().injected_faults)
        };
        assert_eq!(
            run(),
            run(),
            "same seeds and request stream must replay the same fault trace"
        );
    }

    #[test]
    fn heavy_fault_rates_degrade_to_the_resilient_nested_loop() {
        // At a 20% read-fault rate with a single configured attempt,
        // fail-stop execution (which aborts on the first fault) almost
        // never survives — but the degraded pass retries each record
        // read individually and must rescue requests *exactly*: every
        // degraded reply matches the fault-free reference.
        let config = ServiceConfig {
            cache_capacity: 0,
            fault_read_prob: 0.2,
            fault_seed: 0x5EED,
            retry_attempts: 1,
            ..ServiceConfig::default()
        };
        let svc = small_service(config);
        let mut degraded = 0u64;
        for i in 0..10 {
            let d = 5.0 + f64::from(i) * 0.7;
            let req = Request::join(Strategy::Tree, ThetaOp::WithinDistance(d));
            match svc.call(req.clone()) {
                Ok(resp) => {
                    if resp.degraded {
                        degraded += 1;
                        let reference = svc.execute_reference(&req);
                        let (Reply::Join { pairs: got, .. }, Reply::Join { pairs: want, .. }) =
                            (&resp.reply, &reference)
                        else {
                            panic!("join replies expected");
                        };
                        assert_eq!(got, want, "degraded replies must still be exact");
                    }
                }
                Err(Rejection::Failed(_)) => {}
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(
            degraded > 0,
            "heavy fault rates must exercise the degraded path"
        );
        assert_eq!(svc.metrics().degraded, degraded);
    }

    #[test]
    fn total_fault_saturation_yields_a_typed_failure() {
        // Every physical read faults: all retry attempts AND the
        // degraded resilient pass (whose per-read retries all re-draw
        // faults at probability 1.0) fail, so the request must come
        // back as a typed `Rejection::Failed` — never a panic, never a
        // partial result.
        let config = ServiceConfig {
            cache_capacity: 0,
            fault_read_prob: 1.0,
            fault_seed: 7,
            retry_attempts: 2,
            ..ServiceConfig::default()
        };
        let svc = small_service(config);
        let err = svc
            .call(Request::join(Strategy::Tree, ThetaOp::Overlaps))
            .expect_err("nothing can survive a 100% fault rate");
        let Rejection::Failed(e) = err else {
            panic!("expected Failed, got {err:?}");
        };
        assert_eq!(e.kind(), "injected_fault");
        let m = svc.metrics();
        assert_eq!(m.failed, 1);
        // Two configured attempts plus the degraded fallback all faulted.
        assert_eq!(m.injected_faults, 3);
        assert_eq!(m.degraded, 0, "a failed fallback is not a degradation");
        assert!(m.retry_backoff_units > 0, "retries must charge backoff");
    }

    #[test]
    fn metrics_emit_the_service_trace_vocabulary() {
        let svc = small_service(ServiceConfig::default());
        let req = select_at(Side::R, 0.0, 0.0, ThetaOp::Overlaps);
        svc.call(req.clone()).expect("ok");
        svc.call(req).expect("ok");
        let mut sink = TraceSink::vec();
        svc.emit_metrics(&mut sink);
        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        for want in [
            "service/latency_us",
            "service/exec_us",
            "service/cache_hit_us",
            "service/summary",
            "service/fault",
            "service/cache",
            "service/pool",
            "service/wal",
            "service/apply",
        ] {
            assert!(spans.contains(&want), "missing span {want}");
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.served_from_cache, 1);
        assert_eq!(m.latency_us.count(), 2);
        // The pool gauge event carries the new capacity counter.
        let pool_event = sink
            .events()
            .iter()
            .find(|e| e.span == "service/pool")
            .expect("pool event");
        assert!(pool_event
            .counters
            .iter()
            .any(|(k, v)| *k == "bufferpool.capacity" && *v > 0));
    }

    #[test]
    fn commit_outcomes_are_typed_and_reads_observe_writes() {
        let svc = small_service(ServiceConfig::default());
        let batch = WriteBatch::new()
            .insert(Side::R, 9000, Geometry::Point(Point::new(2.0, 2.0)))
            .insert(Side::R, 9000, Geometry::Point(Point::new(3.0, 3.0))) // duplicate
            .delete(Side::S, 501)
            .delete(Side::S, 424242) // missing
            .upsert(Side::R, 0, Geometry::Point(Point::new(1.0, 1.0))) // replace
            .upsert(Side::S, 9001, Geometry::Point(Point::new(4.0, 4.0))); // insert
        let receipt = svc.commit(&batch).expect("commit succeeds");
        assert_eq!(receipt.version, 1);
        assert_eq!(
            receipt.outcomes,
            vec![
                MutationOutcome::Inserted,
                MutationOutcome::DuplicateId,
                MutationOutcome::Deleted,
                MutationOutcome::MissingId,
                MutationOutcome::Upserted { replaced: true },
                MutationOutcome::Upserted { replaced: false },
            ]
        );
        assert!(receipt.wal_lsn >= 1);

        // Reads observe every applied write: 9000 and the moved 0 are
        // R-matches near the origin, 9001 is an S-match, 501 is gone.
        let r = svc
            .call(select_at(Side::R, 2.0, 2.0, ThetaOp::WithinDistance(2.0)))
            .expect("ok");
        let Reply::Select { matches } = &r.reply else {
            panic!("select reply expected");
        };
        assert!(matches.contains(&9000));
        assert!(matches.contains(&0), "upsert must have moved 0 to (1,1)");
        let s = svc
            .call(select_at(Side::S, 0.0, 0.0, ThetaOp::WithinDistance(10.0)))
            .expect("ok");
        let Reply::Select { matches } = &s.reply else {
            panic!("select reply expected");
        };
        assert!(matches.contains(&9001));
        assert!(!matches.contains(&501), "deleted id must not match");
        assert_eq!(svc.version(), 1);
        assert_eq!(svc.write_metrics().commits(), 1);
    }

    #[test]
    fn incremental_apply_costs_pages_proportional_to_the_batch() {
        // The pre-redesign bug: every update scanned and rewrote BOTH
        // relations and trees — O(n) pages for a 1-tuple write. Apply
        // must touch O(batch · tree height) pages instead: the same
        // two-op batch against 4× the data may cost at most 2× the
        // pages, measured via the receipt's IoStats.
        let cost = |n: usize, step: f64| {
            let svc = SpatialService::start(
                ServiceConfig::default(),
                &grid_tuples(n, step, 0),
                &grid_tuples(n, step, 5000),
                world(),
            );
            let batch = WriteBatch::new()
                .insert(Side::R, 9000, Geometry::Point(Point::new(7.0, 7.0)))
                .delete(Side::S, 5003);
            let receipt = svc.commit(&batch).expect("commit succeeds");
            assert_eq!(
                receipt.outcomes,
                vec![MutationOutcome::Inserted, MutationOutcome::Deleted]
            );
            receipt.io.physical_reads + receipt.io.physical_writes
        };
        let small = cost(15, 4.0);
        let large = cost(30, 2.0);
        assert!(small > 0, "a commit that changes state touches pages");
        assert!(
            large <= 2 * small,
            "apply cost must follow the batch, not the data: \
             {small} pages at 225 tuples per side, {large} at 900"
        );
    }

    /// The CPU-side sibling of the page bill above: the slots the evolve
    /// examines follow the batch too. The same two-op batch against 64×
    /// the data may examine at most 2× the slots.
    #[test]
    fn incremental_apply_examines_slots_proportional_to_the_batch() {
        let examined = |n: usize, step: f64| {
            let svc = SpatialService::start(
                ServiceConfig::default(),
                &grid_tuples(n, step, 0),
                &grid_tuples(n, step, 50_000),
                world(),
            );
            let batch = WriteBatch::new()
                .insert(Side::R, 90_000, Geometry::Point(Point::new(7.0, 7.0)))
                .delete(Side::S, 50_003);
            let receipt = svc.commit(&batch).expect("commit succeeds");
            assert_eq!(
                receipt.outcomes,
                vec![MutationOutcome::Inserted, MutationOutcome::Deleted]
            );
            svc.write_metrics().apply_nodes_touched()
        };
        let (small, medium, large) = (examined(15, 4.0), examined(30, 2.0), examined(120, 0.5));
        assert!(small > 0, "a commit that changes state examines slots");
        assert!(
            medium <= 2 * small && large <= 2 * small,
            "evolve work must follow the batch, not the data: {small} slots at 225 \
             tuples per side, {medium} at 900, {large} at 14 400"
        );
    }

    /// The sharing sibling: what a commit copies of a touched side's
    /// arena, flat view, record directory and page table — chunks no
    /// longer `Arc::ptr_eq` with the previous snapshot's — follows the
    /// batch too, not the data.
    #[test]
    fn incremental_apply_copies_chunks_proportional_to_the_batch() {
        let copied = |n: usize, step: f64| {
            let svc = SpatialService::start(
                ServiceConfig::default(),
                &grid_tuples(n, step, 0),
                &grid_tuples(n, step, 50_000),
                world(),
            );
            let before = svc.snapshot.load();
            let batch = WriteBatch::new()
                .insert(Side::R, 90_000, Geometry::Point(Point::new(7.0, 7.0)))
                .delete(Side::S, 50_003);
            svc.commit(&batch).expect("commit succeeds");
            let after = svc.snapshot.load();
            tree_chunks_copied(&after.r.tree, &before.r.tree)
                + tree_chunks_copied(&after.s.tree, &before.s.tree)
                + after.pool.disk().copied_chunks(before.pool.disk())
        };
        let (small, medium, large) = (copied(15, 4.0), copied(30, 2.0), copied(120, 0.5));
        assert!(
            small > 0,
            "a commit that changes state copies what it writes"
        );
        assert!(
            medium <= 2 * small && large <= 2 * small,
            "copied chunks must follow the batch, not the data: {small} at 225 \
             tuples per side, {medium} at 900, {large} at 14 400"
        );
    }

    /// The wall-clock sibling: one fixed 16-upsert batch against 64× the
    /// data may take at most 4× as long (minimum over 15 commits each;
    /// with whole-copied snapshot state it took 34×).
    #[test]
    fn commit_wall_clock_follows_the_batch_not_the_data() {
        let fastest = |rows: usize| {
            let r: Vec<_> = (0..rows * 100)
                .map(|i| {
                    let at = Point::new((i % 100) as f64 * 0.6, (i / 100) as f64 * 0.3);
                    (i as u64, Geometry::Point(at))
                })
                .collect();
            let svc = SpatialService::start(
                ServiceConfig::default(),
                &r,
                &grid_tuples(5, 10.0, 50_000),
                world(),
            );
            let stride = r.len() as u64 / 16;
            (0..15)
                .map(|round| {
                    let batch = (0..16u64).fold(WriteBatch::new(), |b, k| {
                        let at = Point::new(k as f64 * 3.5 + round as f64 * 0.01, 1.0);
                        b.upsert(Side::R, k * stride, Geometry::Point(at))
                    });
                    let started = Instant::now();
                    svc.commit(&batch).expect("commit succeeds");
                    started.elapsed()
                })
                .min()
                .expect("fifteen commits")
        };
        let (small, large) = (fastest(3), fastest(190));
        assert!(
            large <= 4 * small,
            "commit time must follow the batch, not the data: {small:?} at 300 \
             R-tuples, {large:?} at 19 000"
        );
    }

    /// The isolation sibling: a reader that pinned version *v* shares
    /// chunks with every later snapshot, and fifty commits later — each
    /// having copied before it wrote — it still answers a SELECT and all
    /// three join strategies exactly as a service rebuilt at *v* does.
    #[test]
    fn a_pinned_snapshot_is_untouched_by_fifty_later_commits() {
        let config = ServiceConfig::default();
        let (mut r, mut s) = (grid_tuples(12, 5.0, 0), grid_tuples(12, 5.0, 5_000));
        let svc = SpatialService::start(config, &r, &s, world());
        // *v* is two commits in, so it already shares chunks both ways.
        for k in 0..2u64 {
            let at = Geometry::Point(Point::new(11.0 + k as f64, 13.0));
            let batch = WriteBatch::new()
                .insert(Side::R, 900 + k, at.clone())
                .insert(Side::S, 5_900 + k, at.clone());
            svc.commit(&batch).expect("commit succeeds");
            r.push((900 + k, at.clone()));
            s.push((5_900 + k, at));
        }
        let pinned = svc.snapshot.load();
        let theta = ThetaOp::WithinDistance(6.0);
        let requests = [
            select_at(Side::R, 30.0, 30.0, theta),
            select_at(Side::S, 12.0, 12.0, theta),
            Request::join(Strategy::Sweep, theta),
            Request::join(Strategy::Partition, theta),
            Request::join(Strategy::Tree, theta),
        ];
        let answers = |state: &DataState| -> Vec<Reply> {
            let compute = |req| try_compute(state, &config, req, None).expect("no faults armed");
            requests.iter().map(compute).collect()
        };
        let before = answers(&pinned);

        for b in 0..50u64 {
            let at = |k: u64| {
                let (x, y) = ((b * 7 + k * 13) % 60, (b * 11 + k * 5) % 60);
                Geometry::Point(Point::new(x as f64, y as f64))
            };
            let mut batch = WriteBatch::new();
            for (side, id0) in [(Side::R, 0), (Side::S, 5_000)] {
                for k in 0..4 {
                    batch = batch.upsert(side, id0 + 50 + (b * 4 + k) % 90, at(k));
                }
                batch = batch
                    .delete(side, id0 + b)
                    .insert(side, id0 + 500 + b, at(9));
            }
            let receipt = svc.commit(&batch).expect("commit succeeds");
            assert!(receipt.outcomes.iter().all(MutationOutcome::applied));
        }
        let head = svc.snapshot.load();
        assert_eq!(head.version, pinned.version + 50);
        for (now, then) in [(&head.r, &pinned.r), (&head.s, &pinned.s)] {
            assert!(
                tree_chunks_copied(&now.tree, &then.tree) > 0,
                "the commits wrote"
            );
        }
        assert!(head.pool.disk().copied_chunks(pinned.pool.disk()) > 0);

        assert_eq!(answers(&pinned), before, "the pinned version moved");
        let rebuilt = SpatialService::start(config, &r, &s, world());
        assert_eq!(before, answers(&rebuilt.snapshot.load()));
        assert_ne!(before, answers(&head), "the head did move");
    }

    #[test]
    fn a_commit_copies_only_the_sides_its_batch_names() {
        let svc = small_service(ServiceConfig::default());
        let v0 = svc.snapshot.load();
        svc.commit(&WriteBatch::new().insert(Side::R, 9000, Geometry::Point(Point::new(1.0, 1.0))))
            .expect("commit succeeds");
        let v1 = svc.snapshot.load();
        assert!(!Arc::ptr_eq(&v0.r, &v1.r), "R was named: new side");
        assert!(Arc::ptr_eq(&v0.s, &v1.s), "S was not named: shared");
        let tuples = |side: &SideState| side.tree.tree.entry_nodes().len();
        assert_eq!(tuples(&v1.r), tuples(&v0.r) + 1);
        // One `GenTree` per side per snapshot, at start and after a commit.
        for side in [&v0.r, &v0.s, &v1.r, &v1.s] {
            assert!(Arc::ptr_eq(side.index.shared_tree(), &side.tree.tree));
        }
        assert!(!Arc::ptr_eq(&v0.r.tree.tree, &v1.r.tree.tree));

        let mixed = WriteBatch::new().delete(Side::R, 9000).insert(
            Side::S,
            9001,
            Geometry::Point(Point::new(2.0, 2.0)),
        );
        svc.commit(&mixed).expect("commit succeeds");
        let v2 = svc.snapshot.load();
        assert!(!Arc::ptr_eq(&v1.r, &v2.r));
        assert!(!Arc::ptr_eq(&v1.s, &v2.s));
    }

    #[test]
    fn disjoint_region_writes_retain_cache_entries() {
        let svc = small_service(ServiceConfig::default());
        let near = select_at(Side::R, 0.0, 0.0, ThetaOp::WithinDistance(5.0));
        let far = select_at(Side::R, 40.0, 40.0, ThetaOp::WithinDistance(5.0));
        svc.call(near.clone()).expect("warm near");
        let far_reply = svc.call(far.clone()).expect("warm far").reply;

        // Write at (1,1): inside near's region, 50+ units from far's.
        let receipt = svc
            .commit(&WriteBatch::new().insert(Side::R, 9000, Geometry::Point(Point::new(1.0, 1.0))))
            .expect("commit succeeds");
        assert!(receipt.cache_purged >= 1, "near must be invalidated");
        assert!(receipt.cache_retained >= 1, "far must survive");

        // The survivor serves a *cached* hit at the new version, and
        // its reply is still exact.
        let resp = svc.call(far.clone()).expect("ok");
        assert!(resp.cached, "region-disjoint entry must survive the commit");
        assert_eq!((resp.version, resp.queue_us), (receipt.version, 0));
        assert_eq!(resp.reply, far_reply);
        assert_eq!(resp.reply, svc.execute_reference(&far));
        // The invalidated entry recomputes and now sees the insert.
        let resp = svc.call(near).expect("ok");
        assert!(!resp.cached);
        let Reply::Select { matches } = &resp.reply else {
            panic!("select reply expected");
        };
        assert!(matches.contains(&9000));
    }

    #[test]
    fn wal_sync_fault_aborts_the_commit_and_state_is_unchanged() {
        use std::collections::HashSet;
        let svc = small_service(ServiceConfig::default());
        assert_eq!(svc.checkpoint(), Ok(0));
        let image = svc.checkpoint_image().expect("checkpoint stored");
        let probe = select_at(Side::R, 0.0, 0.0, ThetaOp::WithinDistance(5.0));
        let before = svc.call(probe.clone()).expect("ok").reply;

        // Fault exactly the first sync attempt (attempt ids are 0-based).
        svc.set_wal_fault_injector(Some(FaultInjector::new(FaultConfig {
            write_prob: 1.0,
            target_pages: Some(HashSet::from([sj_storage::PageId(0)])),
            ..FaultConfig::default()
        })));
        let batch = WriteBatch::new().insert(Side::R, 9000, Geometry::Point(Point::new(1.0, 1.0)));
        let err = svc.commit(&batch).expect_err("sync fault must abort");
        let Rejection::Failed(e) = err else {
            panic!("expected Failed, got {err:?}");
        };
        assert_eq!(e.kind(), "injected_fault");

        // Nothing published, nothing durable, reads unchanged.
        assert_eq!(svc.version(), 0);
        assert_eq!(svc.call(probe.clone()).expect("ok").reply, before);
        assert_eq!(svc.write_metrics().aborted_commits(), 1);
        let recovered = SpatialService::recover(*svc.config(), &image, &svc.wal_image())
            .expect("a log with no synced records recovers");
        assert_eq!(recovered.version(), 0);

        // The retried commit (sync attempt 2 is not targeted) succeeds.
        let receipt = svc.commit(&batch).expect("retry commits");
        assert_eq!(receipt.version, 1);
        let Reply::Select { matches } = &svc.call(probe).expect("ok").reply else {
            panic!("select reply expected");
        };
        assert!(matches.contains(&9000));
    }

    #[test]
    fn recovery_replays_the_durable_history_exactly() {
        let svc = small_service(ServiceConfig::default());
        svc.checkpoint().expect("version-0 checkpoint");
        let checkpoint = svc.checkpoint_image().expect("checkpoint stored");
        svc.commit(
            &WriteBatch::new()
                .insert(Side::R, 9000, Geometry::Point(Point::new(2.0, 2.0)))
                .delete(Side::S, 501),
        )
        .expect("first commit");
        svc.commit(&WriteBatch::new().upsert(Side::R, 0, Geometry::Point(Point::new(31.0, 31.0))))
            .expect("second commit");

        let recovered = SpatialService::recover(*svc.config(), &checkpoint, &svc.wal_image())
            .expect("recovery succeeds");
        assert_eq!(recovered.version(), 2);
        // The lock-free version is the published snapshot's, committed
        // or replayed.
        for service in [&svc, &recovered] {
            assert_eq!(service.version(), service.snapshot.load().version);
        }
        for req in [
            select_at(Side::R, 0.0, 0.0, ThetaOp::WithinDistance(35.0)),
            select_at(Side::S, 0.0, 0.0, ThetaOp::WithinDistance(35.0)),
            Request::join(Strategy::Auto, ThetaOp::WithinDistance(3.0)),
        ] {
            assert_eq!(
                svc.execute_reference(&req),
                recovered.execute_reference(&req),
                "recovered state must answer identically"
            );
        }

        // A corrupt image is a typed error, never a wrong answer.
        let mut image = svc.wal_image();
        let last = image.len() - 1;
        image[last] ^= 0xFF;
        assert!(matches!(
            SpatialService::recover(*svc.config(), &checkpoint, &image),
            Err(StorageError::WalCorrupt { .. })
        ));
    }

    #[test]
    fn malformed_geometry_in_a_valid_wal_frame_is_wal_corrupt_not_a_panic() {
        // The WAL checksum covers bytes, not meaning: a frame can be
        // intact and still carry a geometry record the codec rejects.
        // Payload layout: count u32 | side u8 | tag u8 | len u32 | record,
        // record = id u64 | geometry tag u8 | vertex count u16 | coords.
        let good = WriteBatch::new()
            .insert(Side::R, 1, Geometry::Point(Point::new(2.0, 3.0)))
            .encode();
        let record = 10;
        let mut short = good[..6].to_vec();
        short.extend_from_slice(&4u32.to_le_bytes());
        short.extend_from_slice(&good[record..record + 4]);
        let mut unknown_tag = good.clone();
        unknown_tag[record + 8] = 0x7f;
        let mut non_finite = good.clone();
        non_finite[record + 11..record + 19].copy_from_slice(&f64::NAN.to_le_bytes());
        let seed = small_service(ServiceConfig::default());
        seed.checkpoint().expect("version-0 checkpoint");
        let image = seed.checkpoint_image().expect("checkpoint stored");

        for (what, payload) in [
            ("record shorter than the codec header", short),
            ("unknown geometry tag", unknown_tag),
            ("non-finite coordinate", non_finite),
        ] {
            assert!(
                matches!(
                    WriteBatch::decode(&payload),
                    Err(StorageError::WalCorrupt { .. })
                ),
                "{what}: decode"
            );
            let mut wal = WriteAheadLog::new();
            wal.append(&payload);
            wal.sync().expect("no injector armed");
            let recovered =
                SpatialService::recover(ServiceConfig::default(), &image, &wal.durable_image());
            assert!(
                matches!(recovered, Err(StorageError::WalCorrupt { .. })),
                "{what}: recover must not start a service"
            );
        }
    }

    fn poly_tuples(n: usize, off: f64, id0: u64) -> Vec<(u64, Geometry)> {
        (0..n)
            .map(|i| {
                let c = Point::new((i % 8) as f64 * 7.0 + off, (i / 8) as f64 * 7.0 + off);
                (
                    id0 + i as u64,
                    Geometry::Polygon(sj_geom::Polygon::regular(c, 3.0, 12)),
                )
            })
            .collect()
    }

    #[test]
    fn compressed_pages_serve_identical_results_and_survive_commits() {
        let config = ServiceConfig {
            compress_geometry: true,
            // Tight v2 bound: a 16-gon (267 exact bytes, well inside
            // `record_size`) overflows its 115-byte v2 frame, so the
            // quant guard — not the exact guard — screens it.
            quant_record_size: 100,
            ..ServiceConfig::default()
        };
        let (r, s) = (poly_tuples(40, 0.0, 0), poly_tuples(40, 2.5, 500));
        let exact = SpatialService::start(ServiceConfig::default(), &r, &s, world());
        let svc = SpatialService::start(config, &r, &s, world());
        {
            let state = svc.snapshot.load();
            assert!(state.r.tree.is_compressed());
        }

        for theta in [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(2.0),
            ThetaOp::ContainedIn,
        ] {
            for strategy in [Strategy::Sweep, Strategy::Partition, Strategy::Tree] {
                let req = Request::join(strategy, theta);
                assert_eq!(
                    svc.call(req.clone()).expect("ok").reply,
                    exact.call(req).expect("ok").reply,
                    "{} diverges under compression",
                    strategy.name()
                );
            }
        }

        // Mutations keep the compressed snapshot consistent, and an
        // oversized v2 frame is screened as TooLarge.
        let fat = Geometry::Polygon(sj_geom::Polygon::regular(Point::new(30.0, 30.0), 4.0, 16));
        let receipt = svc
            .commit(
                &WriteBatch::new()
                    .insert(Side::R, 9000, fat.clone())
                    .upsert(Side::S, 500, Geometry::Point(Point::new(1.0, 1.0)))
                    .delete(Side::R, 1),
            )
            .expect("commit succeeds");
        assert_eq!(
            receipt.outcomes,
            vec![
                MutationOutcome::TooLarge,
                MutationOutcome::Upserted { replaced: true },
                MutationOutcome::Deleted,
            ]
        );
        exact
            .commit(
                &WriteBatch::new()
                    .upsert(Side::S, 500, Geometry::Point(Point::new(1.0, 1.0)))
                    .delete(Side::R, 1),
            )
            .expect("commit succeeds");
        let req = Request::join(Strategy::Sweep, ThetaOp::Overlaps);
        assert_eq!(
            svc.call(req.clone()).expect("ok").reply,
            exact.call(req).expect("ok").reply,
            "post-commit compressed join diverges"
        );
    }
}
