//! # spatial-joins — reproduction of Günther, *Efficient Computation of
//! Spatial Joins* (ICDE 1993)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geom`] — spatial data types and the θ/Θ operator pairs (Table 1),
//! * [`storage`] — paged storage simulator with exact I/O accounting,
//! * [`btree`] — the B+-tree substrate for join indices,
//! * [`zorder`] — Peano/z-order curves and the z-order joins of §2.2
//!   (Figure 1, Orenstein sort-merge, z-value index),
//! * [`gentree`] — generalization trees and the SELECT/JOIN algorithms (§3),
//! * [`joins`] — executable join strategies (nested loop, plane sweep,
//!   tree join, join index, grid partitioning) plus the grid-file join
//!   and local join indices,
//! * [`costmodel`] — the analytical cost model of §4 (Figures 7–13),
//! * [`rel`] — a minimal extended-relational layer,
//! * [`core`] — workload generators and the experiment runner,
//! * [`service`] — the spatial query service (requests run on the
//!   caller's thread; versioned result cache, latency histograms).
//!
//! See the `examples/` directory for end-to-end usage and `crates/bench`
//! for the per-figure reproduction binaries.

pub use sj_btree as btree;
pub use sj_core as core;
pub use sj_costmodel as costmodel;
pub use sj_gentree as gentree;
pub use sj_geom as geom;
pub use sj_joins as joins;
pub use sj_rel as rel;
pub use sj_service as service;
pub use sj_storage as storage;
pub use sj_zorder as zorder;
