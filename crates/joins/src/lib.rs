//! # sj-joins — executable spatial-join strategies
//!
//! Storage-backed executors for the join-processing strategies the paper
//! analyzes (§2, §4), all reporting [`ExecStats`] in the cost model's own
//! units (θ/Θ-evaluations and physical page I/O through an LRU buffer
//! pool):
//!
//! | Paper strategy | Executor | [`Strategy`] |
//! |---|---|---|
//! | I — nested loop (with Valduriez's memory passes) | [`nested_loop`] | `NestedLoop` |
//! | IIa/IIb — generalization tree, unclustered/clustered | [`tree_join`] over a [`TreeRelation`] with the corresponding [`Layout`] | `Tree` |
//! | III — join index on a B⁺-tree | [`join_index`] | `JoinIndex` |
//! | PBSM-style grid-partitioned filter-and-refine | [`partition::partition_join`] | `Partition` |
//! | forward-scan plane-sweep filter | [`sweep::sweep_join`] | `Sweep` |
//! | §5's *local join indices* (future work, implemented) | [`local_index`] | — |
//! | grid-file join (Rotem's index-supported baseline) | [`grid`] | — |
//!
//! The z-order joins of §2.2 (Orenstein's sort-merge and the z-value
//! index) live in `sj-zorder`, beside the curve they decompose on.
//! Every executor is validated (unit + property tests) to return exactly
//! the same match set as the nested-loop reference.
//!
//! ## The unified executor API
//!
//! The five strategies a request can name are reachable through one
//! surface: build a [`JoinRequest`] (θ, optional trace sink), pick a
//! [`Strategy`], and run [`JoinExecutor::execute`] over
//! [`JoinOperands`]. This is what the experiment harness, the serving
//! layer and the benchmark dispatch through. Each runs all eight
//! θ-operators. One private type implements [`JoinExecutor`]: it
//! resolves [`Strategy::Auto`] through the operands' chooser, then
//! `match`es the concrete strategy onto that strategy's one function
//! (below), so `Auto` builds no second executor. The grid-file join and
//! local join indices are library functions only: no cost model prices
//! them, so a request cannot name them.
//!
//! ## The optimizer
//!
//! [`advisor`] sits beside the strategies it chooses among: the §4
//! scoreboard, the one (profile, θ) → [`Strategy`] function, the one
//! selectivity sampler, and the chooser behind [`Strategy::Auto`].
//!
//! ## One function per strategy
//!
//! Underneath, each strategy is exactly one public function (or index
//! method) of one shape:
//!
//! ```text
//! join(pool, operands…, theta, trace: &mut TraceSink) -> Result<JoinRun, StorageError>
//! ```
//!
//! **The [`BufferPool`] is the first argument (or the first after
//! `&self`), operands follow in `R`-before-`S` order, θ comes after the
//! operands, the [`TraceSink`] is last.** Index-backed joins take the
//! pool too, even when the index can answer from its own structures
//! (e.g. [`LocalJoinIndex::join`]) — all I/O accounting flows through
//! one pool argument at one position — and drop the operands or θ their
//! build already fixed. Every run is fail-stop (the first storage fault
//! is a typed error, never a partial result) and traced: callers that do
//! not trace pass `&mut TraceSink::Null`, which never reads a clock.
//! [`JoinExecutor::execute`] is the single infallible convenience.
//!
//! ## One shape below the strategies
//!
//! Relation reads and scans ([`StoredRelation`]), tree-node visits
//! ([`PagedTree`]), index builds and maintenance ([`JoinIndex`],
//! [`LocalJoinIndex`]) and WAL payload decoding
//! ([`WriteBatch::decode`]) are likewise fallible only and charged
//! through the pool; there is no panicking twin. The bulk builders
//! (`StoredRelation::build*`, `TreeRelation::new*`) run on a pool the
//! caller has just created, before any injector can be armed, and
//! document their panic. A side that takes writes is one
//! [`IndexedRelation`], in the service and in `sj-rel` alike.
//!
//! [`Layout`]: sj_storage::Layout
//! [`BufferPool`]: sj_storage::BufferPool

pub mod advisor;
pub mod executor;
pub mod grid;
pub mod indexed;
pub mod join_index;
pub mod local_index;
pub mod mutation;
pub mod nested_loop;
pub mod paged_tree;
pub mod partition;
pub mod refine;
pub mod relation;
pub mod stats;
pub mod sweep;
pub mod tree_join;

pub use executor::{JoinExecutor, JoinOperands, JoinRequest, Strategy};
pub use indexed::IndexedRelation;
pub use join_index::JoinIndex;
pub use local_index::LocalJoinIndex;
pub use mutation::{Mutation, MutationOutcome, Side, TouchedRegions, WriteBatch};
pub use paged_tree::{ClusterOrder, CodecMode, PagedTree, TreeRelation};
pub use partition::{partition_join, tiles_per_axis, TileGrid};
pub use refine::Refiner;
pub use relation::StoredRelation;
pub use sj_obs::{Phase, PhaseTimer, TraceEvent, TraceSink};
pub use stats::{ExecStats, JoinRun, PhaseStats, SelectRun};
pub use sweep::sweep_join;
