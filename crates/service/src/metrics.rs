//! Per-request latency accounting: log₂-bucketed histograms for the
//! time a call spends inside the service and the execution part of it,
//! and counters for completions, cache service, sheds and fault
//! recovery.
//!
//! Two shapes:
//!
//! - [`RequestMetrics`]: the *recording* side — one per service, every
//!   field an atomic ([`AtomicHistogram`] for the latencies, `AtomicU64`
//!   for the outcome counters). Recording takes no lock, so concurrent
//!   callers never serialize on it; the exporter reads a
//!   [`RequestMetrics::snapshot`] whenever asked.
//! - [`ServiceMetrics`]: the *reporting* side — a plain mergeable
//!   aggregate ([`ServiceMetrics::merge`] folds shard snapshots into
//!   router totals), exported through the existing `sj-obs` trace
//!   vocabulary via [`ServiceMetrics::emit`].

use std::sync::atomic::{AtomicU64, Ordering};

use sj_obs::{AtomicHistogram, Histogram, TraceSink};

/// The service's aggregate latency and outcome metrics.
#[derive(Debug, Clone, Default)]
pub struct ServiceMetrics {
    /// Time from the in-flight slot to the answer (snapshot pin,
    /// execution, cache fill), µs; 0 for cache hits, which are untimed.
    pub latency_us: Histogram,
    /// Time spent computing (0 for cache hits), µs.
    pub exec_us: Histogram,
    /// Latency of cache-hit responses only, µs: one sample per hit, all
    /// 0 — a hit is answered at the probe, untimed.
    pub cache_hit_latency_us: Histogram,
    /// Requests answered (computed or cache-served).
    pub completed: u64,
    /// Of `completed`, answered straight from the result cache.
    pub served_from_cache: u64,
    /// Misses shed at admission because `queue_depth` misses were
    /// already computing.
    pub shed_queue_full: u64,
    /// Compute attempts aborted by an injected (or real) storage fault.
    pub injected_faults: u64,
    /// Requests that completed only after at least one retry.
    pub retried: u64,
    /// Requests answered by the degraded nested-loop fallback.
    pub degraded: u64,
    /// Requests that exhausted every attempt and were rejected with
    /// `Rejection::Failed`.
    pub failed: u64,
    /// Computations that panicked, contained in `call`.
    pub worker_panics: u64,
    /// Total model-time backoff units spent between retry attempts.
    pub retry_backoff_units: u64,
}

impl ServiceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Folds another metrics object in (bucket-wise histogram merge plus
    /// counter sums) — e.g. to aggregate per-shard snapshots.
    pub fn merge(&mut self, other: &ServiceMetrics) {
        self.latency_us.merge(&other.latency_us);
        self.exec_us.merge(&other.exec_us);
        self.cache_hit_latency_us.merge(&other.cache_hit_latency_us);
        self.completed += other.completed;
        self.served_from_cache += other.served_from_cache;
        self.shed_queue_full += other.shed_queue_full;
        self.injected_faults += other.injected_faults;
        self.retried += other.retried;
        self.degraded += other.degraded;
        self.failed += other.failed;
        self.worker_panics += other.worker_panics;
        self.retry_backoff_units += other.retry_backoff_units;
    }

    /// Emits five trace events: one per histogram (count/p50/p95/p99/
    /// max/mean as counters), a `service/summary` with the outcome
    /// counters, and a `service/fault` with the fault-recovery counters,
    /// all through the standard trace vocabulary.
    pub fn emit(&self, sink: &mut TraceSink) {
        self.latency_us.emit(sink, "service/latency_us");
        self.exec_us.emit(sink, "service/exec_us");
        self.cache_hit_latency_us.emit(sink, "service/cache_hit_us");
        sink.emit(
            "service/summary",
            0,
            &[
                ("completed", self.completed),
                ("served_from_cache", self.served_from_cache),
                ("shed_queue_full", self.shed_queue_full),
            ],
        );
        sink.emit(
            "service/fault",
            0,
            &[
                ("injected_faults", self.injected_faults),
                ("retried", self.retried),
                ("degraded", self.degraded),
                ("failed", self.failed),
                ("worker_panics", self.worker_panics),
                ("retry_backoff_units", self.retry_backoff_units),
            ],
        );
    }
}

/// The service's lock-free metrics slab. Recording is `&self` on atomics
/// only — a cache-hit request touches **no mutex** to account itself —
/// and the exporter reads [`RequestMetrics::snapshot`]s. Snapshots taken
/// while traffic is flowing are transiently inconsistent across fields
/// (count vs sum), which is the standard telemetry trade; quiescent
/// snapshots are exact.
#[derive(Debug, Default)]
pub struct RequestMetrics {
    latency_us: AtomicHistogram,
    exec_us: AtomicHistogram,
    cache_hit_latency_us: AtomicHistogram,
    completed: AtomicU64,
    served_from_cache: AtomicU64,
    shed_queue_full: AtomicU64,
    injected_faults: AtomicU64,
    retried: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    worker_panics: AtomicU64,
    retry_backoff_units: AtomicU64,
}

impl RequestMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        RequestMetrics::default()
    }

    /// Records one answered request (lock-free).
    pub fn record_completion(&self, latency_us: u64, exec_us: u64, cached: bool) {
        self.latency_us.record(latency_us);
        self.exec_us.record(exec_us);
        self.completed.fetch_add(1, Ordering::Relaxed);
        if cached {
            self.served_from_cache.fetch_add(1, Ordering::Relaxed);
            self.cache_hit_latency_us.record(latency_us);
        }
    }

    /// Records one miss shed at admission.
    pub fn record_shed(&self) {
        self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the fault-recovery footprint of one completed request.
    pub fn record_recovery(&self, faulted_attempts: u32, backoff_units: u64, degraded: bool) {
        self.injected_faults
            .fetch_add(u64::from(faulted_attempts), Ordering::Relaxed);
        self.retry_backoff_units
            .fetch_add(backoff_units, Ordering::Relaxed);
        if faulted_attempts > 0 {
            self.retried.fetch_add(1, Ordering::Relaxed);
        }
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one request that exhausted every attempt and failed.
    pub fn record_failed(&self, faulted_attempts: u32, backoff_units: u64) {
        self.injected_faults
            .fetch_add(u64::from(faulted_attempts), Ordering::Relaxed);
        self.retry_backoff_units
            .fetch_add(backoff_units, Ordering::Relaxed);
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one contained panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// A plain mergeable copy of the counters.
    pub fn snapshot(&self) -> ServiceMetrics {
        ServiceMetrics {
            latency_us: self.latency_us.snapshot(),
            exec_us: self.exec_us.snapshot(),
            cache_hit_latency_us: self.cache_hit_latency_us.snapshot(),
            completed: self.completed.load(Ordering::Relaxed),
            served_from_cache: self.served_from_cache.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            retry_backoff_units: self.retry_backoff_units.load(Ordering::Relaxed),
        }
    }
}

/// The write path's lock-free counters — one per service, recorded by
/// [`SpatialService::commit`](crate::service::SpatialService::commit)
/// under the WAL lock but readable at any time without one. Exported as
/// two spans alongside the read-path vocabulary: `service/wal`
/// (durability: records, syncs, sync failures, bytes, aborts) and
/// `service/apply` (mutation outcomes, apply I/O, cache invalidation
/// precision).
#[derive(Debug, Default)]
pub struct WriteMetrics {
    /// Batches committed (synced and published).
    commits: AtomicU64,
    /// Batches aborted at the sync point (WAL fault; nothing published).
    aborted_commits: AtomicU64,
    /// Operations that changed state, over all commits.
    mutations_applied: AtomicU64,
    /// Operations rejected with typed outcomes (duplicate insert,
    /// missing-id delete, oversized geometry).
    mutations_rejected: AtomicU64,
    /// Redo records appended to the WAL.
    wal_records: AtomicU64,
    /// Successful fsync points.
    wal_syncs: AtomicU64,
    /// Failed sync attempts (each one an aborted commit).
    wal_sync_failures: AtomicU64,
    /// Durable WAL bytes, including frame headers and sync markers.
    wal_bytes: AtomicU64,
    /// Physical pages written while applying batches (O(batch), not
    /// O(n): apply is incremental).
    apply_pages_touched: AtomicU64,
    /// Tree arena slots the paged-tree evolves examined (the R-trees'
    /// dirty slots) — the CPU-side sibling of `apply_pages_touched`.
    apply_nodes_touched: AtomicU64,
    /// Committed batches' wall-clock, cumulative µs: the whole apply, the
    /// evolve inside it, and the WAL sync after it.
    apply_us: AtomicU64,
    evolve_us: AtomicU64,
    wal_sync_us: AtomicU64,
    /// Cache entries invalidated because their region intersected a
    /// commit's touched MBRs.
    cache_purged: AtomicU64,
    /// Cache entries retained across commits (region-disjoint
    /// survivors) — the fine-grained invalidation win.
    cache_retained: AtomicU64,
}

impl WriteMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        WriteMetrics::default()
    }

    /// Records one committed batch: its per-op outcome split, the
    /// physical pages its apply touched, and the cache purge/retain
    /// split of its invalidation.
    pub fn record_commit(
        &self,
        applied: u64,
        rejected: u64,
        pages: u64,
        purged: u64,
        retained: u64,
    ) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.mutations_applied.fetch_add(applied, Ordering::Relaxed);
        self.mutations_rejected
            .fetch_add(rejected, Ordering::Relaxed);
        self.apply_pages_touched.fetch_add(pages, Ordering::Relaxed);
        self.cache_purged.fetch_add(purged, Ordering::Relaxed);
        self.cache_retained.fetch_add(retained, Ordering::Relaxed);
    }

    /// Records one committed batch's slots examined and apply / evolve / sync µs.
    pub fn record_commit_work(&self, nodes: u64, apply_us: u64, evolve_us: u64, sync_us: u64) {
        self.apply_nodes_touched.fetch_add(nodes, Ordering::Relaxed);
        self.apply_us.fetch_add(apply_us, Ordering::Relaxed);
        self.evolve_us.fetch_add(evolve_us, Ordering::Relaxed);
        self.wal_sync_us.fetch_add(sync_us, Ordering::Relaxed);
    }

    /// Records one commit aborted at its sync point.
    pub fn record_aborted_commit(&self) {
        self.aborted_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Overwrites the WAL gauges from the log's own counters (the WAL is
    /// the source of truth; these are mirrors for the trace).
    pub fn set_wal_gauges(&self, records: u64, syncs: u64, sync_failures: u64, bytes: u64) {
        self.wal_records.store(records, Ordering::Relaxed);
        self.wal_syncs.store(syncs, Ordering::Relaxed);
        self.wal_sync_failures
            .store(sync_failures, Ordering::Relaxed);
        self.wal_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Batches committed so far.
    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Tree arena slots examined by committed batches' evolves so far.
    pub fn apply_nodes_touched(&self) -> u64 {
        self.apply_nodes_touched.load(Ordering::Relaxed)
    }

    /// Commits aborted at the sync point so far.
    pub fn aborted_commits(&self) -> u64 {
        self.aborted_commits.load(Ordering::Relaxed)
    }

    /// Emits the `service/wal` and `service/apply` events.
    pub fn emit(&self, sink: &mut TraceSink) {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        sink.emit(
            "service/wal",
            0,
            &[
                ("commits", load(&self.commits)),
                ("aborted_commits", load(&self.aborted_commits)),
                ("records", load(&self.wal_records)),
                ("syncs", load(&self.wal_syncs)),
                ("sync_failures", load(&self.wal_sync_failures)),
                ("durable_bytes", load(&self.wal_bytes)),
                ("sync_us", load(&self.wal_sync_us)),
            ],
        );
        sink.emit(
            "service/apply",
            0,
            &[
                ("mutations_applied", load(&self.mutations_applied)),
                ("mutations_rejected", load(&self.mutations_rejected)),
                ("pages_touched", load(&self.apply_pages_touched)),
                ("cache_purged", load(&self.cache_purged)),
                ("cache_retained", load(&self.cache_retained)),
                ("nodes_touched", load(&self.apply_nodes_touched)),
                ("apply_us", load(&self.apply_us)),
                ("evolve_us", load(&self.evolve_us)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_updates_all_three_histograms() {
        let w = RequestMetrics::new();
        w.record_completion(100, 90, false);
        w.record_completion(5, 0, true);
        let m = w.snapshot();
        assert_eq!(m.completed, 2);
        assert_eq!(m.served_from_cache, 1);
        assert_eq!(m.latency_us.count(), 2);
        assert_eq!(m.latency_us.max(), 100);
        assert_eq!(m.exec_us.max(), 90);
        // Only the cached completion lands in the hit-path histogram.
        assert_eq!(m.cache_hit_latency_us.count(), 1);
        assert_eq!(m.cache_hit_latency_us.max(), 5);
    }

    /// Shard snapshots merge into router totals.
    #[test]
    fn merge_sums_counters_and_buckets() {
        let a = RequestMetrics::new();
        a.record_completion(11, 10, false);
        let b = RequestMetrics::new();
        b.record_completion(0, 0, true);
        b.record_shed();
        b.record_shed();
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.completed, 2);
        assert_eq!(total.served_from_cache, 1);
        assert_eq!(total.shed_queue_full, 2);
        assert_eq!(total.latency_us.count(), 2);
        assert_eq!(total.exec_us.count(), 2);
        assert_eq!(total.cache_hit_latency_us.count(), 1);
    }

    #[test]
    fn worker_snapshots_merge_into_service_totals() {
        let a = RequestMetrics::new();
        let b = RequestMetrics::new();
        a.record_completion(1, 10, false);
        b.record_completion(2, 0, true);
        b.record_shed();
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.completed, 2);
        assert_eq!(total.served_from_cache, 1);
        assert_eq!(total.shed_queue_full, 1);
        assert_eq!(total.latency_us.count(), 2);
        assert_eq!(total.exec_us.count(), 2);
        assert_eq!(total.cache_hit_latency_us.max(), 2);
    }

    #[test]
    fn fault_counters_record_and_merge() {
        let w = RequestMetrics::new();
        w.record_recovery(2, 3, true);
        w.record_recovery(0, 0, false); // clean first try: not a retry
        w.record_failed(3, 7);
        w.record_worker_panic();
        let mut m = w.snapshot();
        assert_eq!(m.injected_faults, 5);
        assert_eq!(m.retried, 1);
        assert_eq!(m.degraded, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.retry_backoff_units, 10);
        let other = RequestMetrics::new();
        other.record_recovery(1, 1, false);
        m.merge(&other.snapshot());
        assert_eq!(m.injected_faults, 6);
        assert_eq!(m.retried, 2);
        assert_eq!(m.retry_backoff_units, 11);

        let mut sink = TraceSink::vec();
        m.emit(&mut sink);
        let fault = sink
            .events()
            .iter()
            .find(|e| e.span == "service/fault")
            .expect("fault event");
        for key in [
            "injected_faults",
            "retried",
            "degraded",
            "failed",
            "worker_panics",
            "retry_backoff_units",
        ] {
            assert!(
                fault.counters.iter().any(|(k, _)| *k == key),
                "fault event must carry {key}"
            );
        }
    }

    #[test]
    fn emit_writes_the_trace_vocabulary() {
        let w = RequestMetrics::new();
        w.record_completion(25, 20, false);
        let mut sink = TraceSink::vec();
        w.snapshot().emit(&mut sink);
        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        assert_eq!(
            spans,
            [
                "service/latency_us",
                "service/exec_us",
                "service/cache_hit_us",
                "service/summary",
                "service/fault"
            ]
        );
        let latency = &sink.events()[0];
        for key in ["count", "p50", "p95", "p99", "max", "mean"] {
            assert!(
                latency.counters.iter().any(|(k, _)| *k == key),
                "histogram event must carry {key}"
            );
        }
        let summary = sink
            .events()
            .iter()
            .find(|e| e.span == "service/summary")
            .expect("summary event");
        assert!(
            summary
                .counters
                .iter()
                .any(|(k, _)| *k == "shed_queue_full"),
            "summary must carry the shed counter"
        );
    }

    #[test]
    fn request_metrics_snapshot_matches_sequential_recording() {
        let w = RequestMetrics::new();
        w.record_completion(100, 90, false);
        w.record_completion(5, 0, true);
        w.record_shed();
        w.record_recovery(2, 3, true);
        w.record_failed(1, 4);
        w.record_worker_panic();

        let snap = w.snapshot();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.served_from_cache, 1);
        assert_eq!(snap.shed_queue_full, 1);
        assert_eq!(snap.injected_faults, 3);
        assert_eq!(snap.retried, 1);
        assert_eq!(snap.degraded, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.retry_backoff_units, 7);
        assert_eq!(snap.latency_us.count(), 2);
        assert_eq!(snap.latency_us.sum(), 105);
        assert_eq!(snap.cache_hit_latency_us.max(), 5);
        assert_eq!(snap.exec_us.sum(), 90);
    }

    #[test]
    fn write_metrics_count_and_emit_the_write_spans() {
        let w = WriteMetrics::new();
        w.record_commit(3, 1, 7, 2, 5);
        w.record_commit(1, 0, 2, 0, 6);
        w.record_aborted_commit();
        w.record_commit_work(40, 900, 300, 5);
        w.record_commit_work(2, 100, 50, 1);
        w.set_wal_gauges(3, 2, 1, 640);
        assert_eq!(w.commits(), 2);
        assert_eq!(w.aborted_commits(), 1);
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        assert_eq!((load(&w.cache_purged), load(&w.cache_retained)), (2, 11));

        let mut sink = TraceSink::vec();
        w.emit(&mut sink);
        let spans: Vec<&str> = sink.events().iter().map(|e| e.span.as_str()).collect();
        assert_eq!(spans, ["service/wal", "service/apply"]);
        let wal = &sink.events()[0];
        for (key, want) in [
            ("commits", 2),
            ("aborted_commits", 1),
            ("records", 3),
            ("syncs", 2),
            ("sync_failures", 1),
            ("durable_bytes", 640),
            ("sync_us", 6),
        ] {
            assert!(
                wal.counters.iter().any(|(k, v)| *k == key && *v == want),
                "wal event must carry {key}={want}"
            );
        }
        let apply = &sink.events()[1];
        for (key, want) in [
            ("mutations_applied", 4),
            ("mutations_rejected", 1),
            ("pages_touched", 9),
            ("cache_purged", 2),
            ("cache_retained", 11),
            ("nodes_touched", 42),
            ("apply_us", 1000),
            ("evolve_us", 350),
        ] {
            assert!(
                apply.counters.iter().any(|(k, v)| *k == key && *v == want),
                "apply event must carry {key}={want}"
            );
        }
    }
}
