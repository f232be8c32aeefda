//! # sj-core — workloads, scenarios, and the model-validation harness
//!
//! The top-level crate of the reproduction. It provides:
//!
//! * [`workload`] — seeded synthetic spatial workload generators: uniform
//!   and Gaussian-clustered points/rectangles/polygons, plus the paper's
//!   motivating *house/lake* scenario (§1, query (2)),
//! * [`advisor`] — a re-export of [`sj_joins::advisor`], the optimizer,
//!   which lives beside the strategies it chooses among,
//! * [`experiment`] — the analytic-vs-measured harness: it runs the real
//!   executors of `sj-joins` on balanced k-ary trees (the model's S1/S2
//!   assumptions made concrete) and compares measured page I/O and
//!   comparison counts against the §4 cost formulas,
//! * re-exports of every sub-crate so that downstream users (and the
//!   `examples/` directory) need a single dependency.
//!
//! ## Quick start
//!
//! ```
//! use sj_core::workload::{self, WorkloadSpec};
//! use sj_core::{Database, Strategy, ThetaOp};
//!
//! let mut db = Database::in_memory();
//! workload::load_house_lake(&mut db, 100, 5, 7)?;
//! let pairs = db.spatial_join(
//!     "house", "hlocation", "lake", "larea",
//!     ThetaOp::WithinDistance(150.0),
//!     Strategy::Tree,
//! )?;
//! // Some houses are within 150 km of a lake in this synthetic map.
//! assert!(!pairs.is_empty());
//! let _ = WorkloadSpec::default();
//! # Ok::<(), sj_core::DbError>(())
//! ```

pub mod experiment;
pub mod workload;

pub use sj_btree::BPlusTree;
pub use sj_costmodel::{Distribution, ModelParams};
pub use sj_gentree::{GenTree, NodeId};
pub use sj_geom::{Bounded, Direction, Geometry, Point, Polygon, Polyline, Rect, ThetaOp};
pub use sj_joins::advisor;
pub use sj_joins::{ExecStats, JoinIndex, StoredRelation, Strategy, TreeRelation};
pub use sj_rel::{Column, Database, DbError, Schema, TraversalOrder, Tuple, Value, ValueType};
pub use sj_storage::{BufferPool, Disk, DiskConfig, HeapFile, IoStats, Layout};
pub use sj_zorder::ZGrid;
