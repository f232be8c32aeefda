//! `sj-service`: a spatial query service over the paper's machinery —
//! Algorithm SELECT via generalization trees and spatial joins via any
//! executor [`Strategy`](sj_joins::Strategy), including
//! cost-model-advised `Auto` dispatch.
//!
//! A request runs on the thread that calls
//! [`SpatialService::call`]; the service owns no thread. Request by
//! request:
//!
//! 1. **Result cache** ([`cache`]): `call` probes the LRU
//!    [`ResultCache`] at the published version (one atomic load). A hit
//!    is answered there — one cache lock, no slot, no snapshot pin — and
//!    is never shed. Commits purge only the entries whose query region
//!    ([`QueryRegion`]) intersects the union MBR of the touched tuples,
//!    so disjoint-region entries keep serving across writes and stale
//!    results stay structurally unreachable.
//! 2. **In-flight slot**: a miss takes one of
//!    [`ServiceConfig::queue_depth`] slots from an atomic counter, or is
//!    shed with [`Rejection::QueueFull`]; the slot is released on return
//!    and on unwinding.
//! 3. **Snapshot pin** ([`snapshot`]): the miss pins the immutable
//!    dataset published in the epoch-stamped [`SnapshotCell`] — one
//!    mutex section around one `Arc` clone. Updates build the next
//!    snapshot off the hot path and publish in O(1); readers never wait
//!    for one to be built.
//! 4. **Execution** ([`service`]): the miss runs on a private cold
//!    buffer-pool shard
//!    ([`BufferPool::fork_view`](sj_storage::BufferPool::fork_view))
//!    forked from the pinned snapshot, with a fail-stop
//!    retry/degradation ladder for storage faults; a panic is contained
//!    and answered [`Rejection::WorkerPanicked`].
//! 5. **Metrics** ([`metrics`]): every request records into the
//!    service's lock-free [`RequestMetrics`] slab (atomic log₂-bucketed
//!    histograms), read as [`ServiceMetrics`] and exported through the
//!    standard `sj-obs` trace vocabulary.
//!
//! Writes go through the durable mutation API: a typed [`WriteBatch`]
//! of [`Mutation`]s is appended to a checksummed write-ahead log and
//! fsynced *before* the next snapshot is published (commit point), the
//! snapshot itself is built by incremental R-tree insert/delete on a
//! copy-on-write pool fork (O(batch) pages, receipted in
//! [`CommitReceipt::io`]); recovery rebuilds the last checkpoint image
//! and replays the log after it ([`service::SpatialService::recover`])
//! — or fail-stops with a typed error on any corruption. See DESIGN.md
//! §5i.
//!
//! Determinism: results are sorted, the advisor's selectivity sampling
//! is seeded, and fault-injection streams are seeded per attempt — so a
//! response depends only on `(dataset version, request)` — never on
//! how many threads call at once, in what order, or cache state.
//! `tests/prop_service.rs` holds the property proofs.

pub mod cache;
pub mod metrics;
pub mod request;
pub mod service;
pub mod snapshot;

pub use cache::{CacheKey, QueryRegion, ResultCache};
pub use metrics::{RequestMetrics, ServiceMetrics, WriteMetrics};
pub use request::{
    CommitReceipt, QueryKind, Rejection, Reply, Request, Response, ServiceResult, Side,
};
pub use service::{ServiceConfig, SpatialService};
pub use sj_joins::{Mutation, MutationOutcome, TouchedRegions, WriteBatch};
pub use snapshot::SnapshotCell;
