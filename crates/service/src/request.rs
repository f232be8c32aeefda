//! The service's wire types: requests (spatial SELECT or JOIN plus a
//! θ-operator), replies, rejection reasons, and the write path's commit
//! receipt.

use std::sync::Arc;

use sj_geom::{Geometry, ThetaOp};
use sj_joins::Strategy;
use sj_storage::{IoStats, StorageError};

use sj_joins::MutationOutcome;

pub use sj_joins::Side;

/// What a request computes.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// Algorithm SELECT over one relation's generalization tree: all
    /// tuples `a` with `probe θ a`.
    Select {
        /// Relation to probe.
        side: Side,
        /// The selector object `o`.
        probe: Geometry,
    },
    /// Spatial join `R θ S` under an executor strategy.
    /// [`Strategy::Auto`] consults the cost-model advisor per request.
    Join {
        /// The strategy to dispatch.
        strategy: Strategy,
    },
}

/// One unit of service work.
#[derive(Debug, Clone)]
pub struct Request {
    /// The θ-operator to evaluate.
    pub theta: ThetaOp,
    /// SELECT or JOIN.
    pub kind: QueryKind,
}

impl Request {
    /// A spatial selection: all tuples `a` of `side` with `probe θ a`.
    pub fn select(side: Side, probe: Geometry, theta: ThetaOp) -> Self {
        Request {
            theta,
            kind: QueryKind::Select { side, probe },
        }
    }

    /// A spatial join `R θ S` under `strategy`.
    pub fn join(strategy: Strategy, theta: ThetaOp) -> Self {
        Request {
            theta,
            kind: QueryKind::Join { strategy },
        }
    }
}

/// A successful computation. Match sets are sorted, so two replies to
/// the same logical query compare byte-identical regardless of which
/// strategy or caller produced them; they are `Arc`-shared with the
/// result cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// SELECT result: matching tuple ids, ascending.
    Select {
        /// Ids `a` with `probe θ a`.
        matches: Arc<Vec<u64>>,
    },
    /// JOIN result: matching `(r, s)` id pairs, ascending.
    Join {
        /// Pairs `(r, s)` with `r θ s`.
        pairs: Arc<Vec<(u64, u64)>>,
        /// The concrete strategy that ran (resolves `Auto`).
        resolved: Strategy,
    },
}

impl Reply {
    /// Result cardinality: matching ids for a SELECT, matching pairs
    /// for a JOIN.
    pub fn len(&self) -> usize {
        match self {
            Reply::Select { matches } => matches.len(),
            Reply::Join { pairs, .. } => pairs.len(),
        }
    }

    /// True when the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A completed request with its latency breakdown.
#[derive(Debug, Clone)]
pub struct Response {
    /// The computed (or cache-served) result.
    pub reply: Reply,
    /// True when served from the result cache without recomputation.
    pub cached: bool,
    /// Dataset version the reply is valid for.
    pub version: u64,
    /// Always 0: a request runs on the thread that calls
    /// [`SpatialService::call`](crate::SpatialService::call), so it never
    /// waits in a queue. Kept because the benchmark harness reads it;
    /// ROADMAP item 25(d) drops it.
    pub queue_us: u64,
    /// Time spent computing (µs); ~0 for cache hits.
    pub exec_us: u64,
    /// Compute attempts this response took (1 = first try; >1 means
    /// storage faults were retried away).
    pub attempts: u32,
    /// True when the reply came from the degraded fallback path
    /// (nested-loop join after the requested strategy kept faulting).
    /// The result itself is still exact — degradation trades speed,
    /// never correctness.
    pub degraded: bool,
}

/// Why the service refused or abandoned a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Load shed at admission: a cache miss found
    /// [`ServiceConfig::queue_depth`](crate::ServiceConfig::queue_depth)
    /// misses already computing.
    QueueFull,
    /// Storage faulted on every attempt (initial try, retries, and the
    /// degraded fallback where applicable); the last typed error is
    /// attached. Fail-stop: no partial or wrong result is ever returned.
    Failed(StorageError),
    /// This request's computation panicked; the panic was contained in
    /// `call` and the service keeps serving.
    WorkerPanicked,
}

/// What [`SpatialService::call`](crate::SpatialService::call) yields.
pub type ServiceResult = Result<Response, Rejection>;

/// What a committed [`WriteBatch`](sj_joins::WriteBatch) yields:
/// the write-path counterpart of [`Response`]. The batch is durable
/// (its WAL record synced) and its snapshot published by the time the
/// receipt is returned.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// Dataset version the commit published.
    pub version: u64,
    /// LSN of the batch's WAL redo record.
    pub wal_lsn: u64,
    /// Per-operation outcomes, in batch order. Rejected operations
    /// (duplicate insert, missing-id delete, oversized geometry) report
    /// typed outcomes here; they do not abort the batch.
    pub outcomes: Vec<MutationOutcome>,
    /// Physical I/O the apply cost — O(batch · tree height) pages,
    /// independent of relation size.
    pub io: IoStats,
    /// Cache entries dropped because their query region intersected
    /// the batch's touched regions.
    pub cache_purged: usize,
    /// Cache entries kept live across the version bump (their regions
    /// were disjoint from every touched tuple).
    pub cache_retained: usize,
}

impl CommitReceipt {
    /// True when at least one operation changed state.
    pub fn changed(&self) -> bool {
        self.outcomes.iter().any(MutationOutcome::applied)
    }
}
