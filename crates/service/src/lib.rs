//! `sj-service`: a multi-threaded spatial query service over the
//! paper's machinery — Algorithm SELECT via generalization trees and
//! spatial joins via any executor [`Strategy`](sj_joins::Strategy),
//! including cost-model-advised `Auto` dispatch.
//!
//! The serving layer is **shared-nothing**: no global lock stands on
//! the request hot path. Request by request:
//!
//! 1. **Result cache** ([`cache`]): [`SpatialService::submit`] probes
//!    the LRU cache on the caller's thread, at the published version
//!    (one atomic load). A hit is answered there — one fingerprint-routed
//!    shard lock ([`CacheShards`]), no queue, no worker. Commits purge
//!    only the entries whose query region ([`QueryRegion`]) intersects
//!    the union MBR of the touched tuples, so disjoint-region entries
//!    keep serving across writes and stale results stay structurally
//!    unreachable.
//! 2. **Admission** ([`admission`]): a miss enters a [`ShardedQueue`]
//!    with one shard per worker — round-robin enqueue with full-shard
//!    fallover, shed ([`Rejection::QueueFull`]) only when *every* shard
//!    is full. Workers drain batches from their own shard and steal from
//!    siblings when idle.
//! 3. **Snapshot pin + deadline check** ([`snapshot`]): each worker
//!    holds a [`SnapshotReader`] onto the epoch-stamped [`SnapshotCell`]
//!    publishing the immutable dataset. Pinning the batch's snapshot is
//!    one atomic epoch compare; updates build the next snapshot off the
//!    hot path and publish in O(1) — readers never block. The batch's
//!    expired deadlines are shed ([`Rejection::DeadlineExceeded`])
//!    before any executor runs.
//! 4. **Execution** ([`service`]): each miss runs on a private cold
//!    buffer-pool shard
//!    ([`BufferPool::fork_view`](sj_storage::BufferPool::fork_view))
//!    forked from the pinned snapshot, with a fail-stop
//!    retry/degradation ladder for storage faults.
//! 5. **Metrics** ([`metrics`]): every request records into a
//!    lock-free [`WorkerMetrics`] slab (atomic log₂-bucketed histograms)
//!    — its worker's, or the submit side's for a hit — merged into
//!    [`ServiceMetrics`] on export through the standard `sj-obs` JSONL
//!    trace vocabulary.
//!
//! Writes go through the durable mutation API: a typed [`WriteBatch`]
//! of [`Mutation`]s is appended to a checksummed write-ahead log and
//! fsynced *before* the next snapshot is published (commit point), the
//! snapshot itself is built by incremental R-tree insert/delete on a
//! copy-on-write pool fork (O(batch) pages, receipted in
//! [`CommitReceipt::io`]), and recovery replays the durable log prefix
//! ([`SpatialService::recover`](service::SpatialService::recover)) —
//! or fail-stops with a typed error on any corruption. See DESIGN.md
//! §5i.
//!
//! Determinism: results are sorted, the advisor's selectivity sampling
//! is seeded, and fault-injection streams are seeded per attempt — so a
//! response depends only on `(dataset version, request)` — never on
//! worker count, queue order, batching, or cache state.
//! `tests/prop_service.rs` holds the property proofs.

pub mod admission;
pub mod cache;
pub mod metrics;
pub mod request;
pub mod service;
pub mod snapshot;

pub use admission::{AdmissionQueue, ShardedQueue};
pub use cache::{CacheKey, CacheShards, QueryRegion, ResultCache};
pub use metrics::{ServiceMetrics, WorkerMetrics, WriteMetrics};
pub use request::{
    CommitReceipt, QueryKind, Rejection, Reply, Request, Response, ServiceResult, Side,
};
pub use service::{Pending, ServiceConfig, SpatialService};
pub use sj_joins::{Mutation, MutationOutcome, TouchedRegions, WriteBatch};
pub use snapshot::{SnapshotCell, SnapshotReader};
