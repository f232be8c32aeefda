//! `sj-shard`: tile-sharded scatter-gather execution.
//!
//! ROADMAP item 5, and the distributed reading of the paper's §4
//! parallel cost discussion: the PBSM tile decomposition of
//! `sj_joins::partition` is promoted to a shard-per-tile architecture —
//! the layer at which this system runs in parallel. A [`ShardRouter`] partitions both
//! relations into tile shards, stands up one
//! [`SpatialService`](sj_service::SpatialService) per shard owning only
//! its tile's slice of the data, fans SELECT/JOIN requests out
//! scatter-gather style, and merges the shard
//! replies into a result that is *byte-identical* to what a single
//! whole-data service returns (property-tested across all eight
//! θ-operators, shard counts, and interleaved mutations).
//!
//! ## Why the merge is exact
//!
//! Shard `i` owns a leaf rectangle `Lᵢ` of the plan; the leaves tile the
//! router's world (the union of both relations' MBRs). The slices are
//! assigned with a halo: shard `i` holds every `R` tuple whose
//! halo-expanded, world-clamped MBR intersects `Lᵢ` and every `S` tuple
//! whose world-clamped MBR intersects `Lᵢ`. For a join with filter
//! radius `ε ≤ halo`, any matching pair `(r, s)` has a witness point
//! `p ∈ r.mbr.expand(ε) ∩ s.mbr`; its clamp `p'` lies in some leaf `L`,
//! and — clamping being monotone per coordinate — `p'` also lies in both
//! clamped assignment rects, so `L`'s shard holds *both* tuples and its
//! exact shard-local join reports the pair. Every reported pair is a
//! true θ-match (shards run the same exact executors as a single node),
//! so merging the shards' sorted outputs and dropping the halo-induced
//! multi-assignment duplicates on the way reproduces the single-node
//! result exactly. Joins a spatial partition cannot localize
//! (directional operators, distance bounds beyond the halo) are answered
//! at the router from its authority maps, filter-then-refine over one
//! flat copy — the same reason `grid_join` rejects directional θ.
//!
//! ## Skew
//!
//! The base grid is sized from the requested shard count, then any tile
//! whose assigned tuple count exceeds a threshold is recursively
//! quad-split ([`ShardPlan::build`]) up to a bounded depth — occupancy-
//! driven splitting from the router, not the static `tiles_per_axis`
//! heuristic, so an all-in-one-corner dataset still spreads across
//! shards.
//!
//! ## Adaptive `Auto`
//!
//! `Strategy::Auto` joins are rewritten per shard: each shard has an
//! [`AdaptiveAdvisor`](sj_joins::advisor::AdaptiveAdvisor) that starts
//! from the §4 static cost model and feeds each shard's observed
//! execution time (the sj-obs phase total surfaced as
//! `Response::exec_us`) back into the choice, so repeated requests
//! against a skewed tile migrate off a mispredicted strategy online.
//!
//! ## Observability
//!
//! [`ShardRouter::metrics`] merges the per-shard
//! [`ServiceMetrics`](sj_service::ServiceMetrics) histograms;
//! [`ShardRouter::emit_metrics`] absorbs every shard's trace stream
//! under a `shard:<i>/…` span prefix (see `TraceSink::absorb` in
//! `sj-obs`), so one merged trace still attributes every phase to the
//! shard that ran it.

pub mod plan;
pub mod router;

pub use plan::{ShardPlan, ShardPlanConfig};
pub use router::{RouterReceipt, RouterResponse, RouterResult, ShardConfig, ShardRouter};
