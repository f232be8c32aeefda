//! # sj-gentree — generalization trees and hierarchical spatial algorithms
//!
//! The central data structure of Günther's *Efficient Computation of
//! Spatial Joins* (ICDE 1993, §3): a **generalization tree** is a tree
//! whose nodes correspond to spatial objects such that every non-root
//! object is completely contained in its parent's object. Sibling objects
//! may overlap, and levels need not cover space ("dead space" is allowed).
//!
//! The definition subsumes:
//!
//! * **abstract spatial indices** whose interior nodes are "technical
//!   entities" — Guttman's R-tree ([`rtree::RTree`], the paper's Figure 2),
//! * **application hierarchies** whose every node is a user-relevant object
//!   — cartographic PART-OF hierarchies ([`carto`], the paper's Figure 3),
//! * **synthetic balanced k-ary trees** used by the cost model's
//!   assumptions S1–S2 ([`balanced`]).
//!
//! On top of the shared arena representation ([`tree::GenTree`]), which
//! stores each node's children once, as SoA lane groups of child MBRs and
//! ids probed one mask call per group, this crate implements the paper's
//! two algorithms with exact work accounting:
//!
//! * [`select::select_flat`] — Algorithm SELECT (§3.2): breadth-first θ-selection
//!   driven by the Θ-filter (plus a depth-first variant),
//! * [`join::join_flat`] — Algorithm JOIN (§3.3): the level-synchronized
//!   `QualPairs` traversal with its two embedded SELECT passes.
//!
//! ## Example: R-tree-backed spatial selection
//!
//! ```
//! use sj_geom::{Geometry, Point, Rect, ThetaOp};
//! use sj_gentree::rtree::{RTree, RTreeConfig};
//! use sj_gentree::select::select_flat;
//!
//! let mut rt = RTree::new(RTreeConfig::default());
//! for i in 0..100u64 {
//!     let x = (i % 10) as f64 * 10.0;
//!     let y = (i / 10) as f64 * 10.0;
//!     rt.insert(i, Geometry::Rect(Rect::from_bounds(x, y, x + 5.0, y + 5.0)));
//! }
//! let probe = Geometry::Point(Point::new(22.0, 42.0));
//! let out = select_flat(rt.tree(), None, &probe, ThetaOp::WithinDistance(3.0), |_| {});
//! assert_eq!(out.matches, vec![42]);
//! ```

pub mod balanced;
pub mod carto;
pub mod join;
pub mod rtree;
pub mod select;
pub mod stats;
pub mod tree;

pub use join::{join_flat, JoinOutcome};
pub use select::{select_dfs_flat, select_flat, FlatChildren, SelectOutcome};
pub use stats::TraversalStats;
pub use tree::{Entry, GenTree, NodeId};
