//! # sj-geom — 2-D geometry substrate for spatial joins
//!
//! This crate provides the spatial data types and operators that Günther's
//! *Efficient Computation of Spatial Joins* (ICDE 1993) assumes as given:
//! points, rectangles (minimum bounding rectangles, MBRs), simple polygons,
//! polylines, and the spatial predicates (θ-operators) of the paper's
//! Table 1 together with their conservative MBR-level counterparts
//! (Θ-operators).
//!
//! The central soundness property, used by the hierarchical `SELECT` and
//! `JOIN` algorithms of the paper (§3), is:
//!
//! > For objects `o1 ⊆ o1'` and `o2 ⊆ o2'`:
//! > `θ(o1, o2)` implies `Θ(mbr(o1'), mbr(o2'))`.
//!
//! i.e. the Θ filter evaluated on ancestor MBRs never prunes a branch that
//! contains a matching pair. This property is exercised by the property-based
//! test-suite of this crate.
//!
//! ## Example
//!
//! ```
//! use sj_geom::{Point, Rect, Polygon, Geometry, ThetaOp, Bounded};
//!
//! let house = Geometry::Point(Point::new(2.0, 3.0));
//! let lake = Geometry::Polygon(Polygon::new(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(4.0, 0.0),
//!     Point::new(4.0, 4.0),
//!     Point::new(0.0, 4.0),
//! ]).unwrap());
//!
//! // "house within 10 km of lake" — distance between closest points.
//! let theta = ThetaOp::WithinDistance(10.0);
//! assert!(theta.eval(&house, &lake));
//! // The MBR-level filter must also hold (Θ-soundness).
//! assert!(theta.filter(&house.mbr(), &lake.mbr()));
//! ```

pub mod codec;
pub mod geometry;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod qgeom;
pub mod rect;
pub mod segment;
pub mod soa;
pub mod sweep;
pub mod theta;

pub use codec::CodecError;
pub use geometry::{Bounded, Geometry};
pub use point::Point;
pub use polygon::{Location, Polygon, PolygonError};
pub use polyline::{Polyline, PolylineError};
pub use qgeom::{margin_eval, MarginVerdict, QGeometry, QKind};
pub use rect::Rect;
pub use segment::Segment;
pub use soa::{RectChunks, RectLanes, FULL_MASK, LANES};
pub use sweep::{sweep_candidates, sweep_candidates_with, Kernel, SweepItem, BATCH_MIN};
pub use theta::{Direction, MaskFilter, ThetaOp};

/// Absolute tolerance of the predicates that θ defines by a distance:
/// `Adjacent` (a distance ≤ 1e-9, and its Θ-filter), a point on a point
/// or on a polyline (within 1e-9 of it), and `Polygon::new`'s zero-area
/// check. Intersection and point-in-polygon tests are exact and do not
/// use it. Meant for world coordinates around `1e-6 ..= 1e8`.
pub const EPSILON: f64 = 1e-9;
