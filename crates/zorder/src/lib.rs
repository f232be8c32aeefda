//! # sj-zorder — Peano curves / z-ordering
//!
//! §2.2 of the paper discusses spatial sorting via Peano curves
//! ("z-ordering", Orenstein 1986, the paper's Figure 1): the plane is
//! divided into a 2ᵇ × 2ᵇ grid and each cell is assigned the integer
//! obtained by interleaving the bits of its column and row numbers. The
//! paper makes two uses of this machinery, both reproduced here:
//!
//! 1. **The negative result** — no spatial total order preserves proximity:
//!    spatially adjacent cells can be arbitrarily far apart in z-order, so
//!    a sort-merge join over z-values misses matches for θ-operators like
//!    `adjacent` (demonstrated by `fig01_zorder` in `sj-bench` and by this
//!    crate's tests).
//! 2. **The positive exception** — for θ = `overlaps`, decomposing each
//!    object into *z-elements* (maximal quadtree blocks, which are
//!    contiguous z-ranges) allows a sort-merge strategy:
//!    [`sort_merge::zorder_overlap_join`], built on [`ZGrid::decompose`],
//!    and its index form, the z-value B⁺-tree [`ZIndex`].
//!
//! Both joins run over `sj-joins`' stored relations and report its
//! [`JoinRun`](sj_joins::JoinRun), but they are library functions, not
//! [`sj_joins::Strategy`] variants: they answer only the overlap family
//! and no cost model prices them. Nothing a service request crosses
//! builds this crate.

pub mod curve;
pub mod grid;
pub mod hilbert;
pub mod sort_merge;
pub mod zindex;

pub use curve::{deinterleave, interleave};
pub use grid::{ZGrid, ZRange};
pub use hilbert::{hilbert_cell, hilbert_index};
pub use zindex::ZIndex;
