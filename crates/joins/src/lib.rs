//! # sj-joins — executable spatial-join strategies
//!
//! Storage-backed executors for every join-processing strategy the paper
//! analyzes (§2, §4), all reporting [`ExecStats`] in the cost model's own
//! units (θ/Θ-evaluations and physical page I/O through an LRU buffer
//! pool):
//!
//! | Paper strategy | Executor |
//! |---|---|
//! | I — nested loop (with Valduriez's memory passes) | [`nested_loop`] |
//! | IIa/IIb — generalization tree, unclustered/clustered | [`tree_join`] over a [`TreeRelation`] with the corresponding [`Layout`] |
//! | III — join index on a B⁺-tree | [`join_index`] |
//! | sort-merge for `overlaps` via z-elements (Orenstein) | [`sort_merge`] |
//! | §5's *local join indices* (future work, implemented) | [`local_index`] |
//! | grid-file join (Rotem's index-supported baseline) | [`grid`] |
//! | z-value B⁺-tree index (UB-tree style, §2.2) | [`zindex`] |
//! | PBSM-style grid-partitioned filter-and-refine | [`partition::partition_join`] |
//! | forward-scan plane-sweep filter | [`sweep::sweep_join`] |
//!
//! Every executor is validated (unit + property tests) to return exactly
//! the same match set as the nested-loop reference.
//!
//! ## The unified executor API
//!
//! All nine strategies are reachable through one surface: build a
//! [`JoinRequest`] (θ, optional trace sink), pick a
//! [`Strategy`], and run [`JoinExecutor::execute`] over
//! [`JoinOperands`]. This is what the experiment harness, the serving
//! layer and the benchmark dispatch through.
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
//! [`LocalJoinIndex`], [`ZIndex`]) and WAL payload decoding
//! ([`WriteBatch::decode`]) are likewise fallible only and charged
//! through the pool; there is no panicking twin. The bulk builders
//! (`StoredRelation::build*`, `TreeRelation::new*`) run on a pool the
//! caller has just created, before any injector can be armed, and
//! document their panic.
//!
//! [`Layout`]: sj_storage::Layout
//! [`BufferPool`]: sj_storage::BufferPool

pub mod advisor;
pub mod executor;
pub mod grid;
pub mod join_index;
pub mod local_index;
pub mod mutation;
pub mod nested_loop;
pub mod paged_tree;
pub mod partition;
pub mod refine;
pub mod relation;
pub mod sort_merge;
pub mod stats;
pub mod sweep;
pub mod tree_join;
pub mod zindex;

pub use executor::{JoinExecutor, JoinOperands, JoinRequest, Strategy};
pub use join_index::JoinIndex;
pub use local_index::LocalJoinIndex;
pub use mutation::{Mutation, MutationOutcome, Side, TouchedRegions, WriteBatch};
pub use paged_tree::{ClusterOrder, CodecMode, PagedTree, TreeRelation};
pub use partition::{partition_join, tiles_per_axis, TileGrid};
pub use refine::MarginRefiner;
pub use relation::StoredRelation;
pub use sj_obs::{Phase, PhaseTimer, TraceEvent, TraceSink};
pub use stats::{ExecStats, JoinRun, PhaseStats, SelectRun};
pub use sweep::sweep_join;
pub use zindex::ZIndex;
