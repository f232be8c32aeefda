//! θ-operators and their conservative Θ-filters (the paper's Table 1).
//!
//! A *spatial join* `R ⋈_θ S` pairs tuples whose spatial attributes satisfy
//! a θ-operator. The hierarchical algorithms of §3 prune generalization-tree
//! branches with a coarser operator Θ such that
//!
//! > `o1 θ o2` for subobjects `o1 ⊆ o1'`, `o2 ⊆ o2'` implies `o1' Θ o2'`.
//!
//! [`ThetaOp::eval`] is the exact θ on [`Geometry`] values;
//! [`ThetaOp::filter`] is the corresponding Θ evaluated on MBRs
//! (generalization-tree nodes carry MBRs). Every row of the paper's Table 1
//! is implemented, plus a few natural extensions (all eight compass
//! directions, a closest-point distance variant, and `adjacent`, which the
//! paper uses in §2.2 to show that sort-merge misses matches).

use crate::geometry::Geometry;
use crate::point::Point;
use crate::polygon::Location;
use crate::rect::Rect;
use crate::segment::Chain;
use crate::EPSILON;

/// Compass direction for directional predicates, measured between
/// centerpoints ("to the Northwest of" in the paper's query (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    North,
    South,
    East,
    West,
    NorthWest,
    NorthEast,
    SouthWest,
    SouthEast,
}

impl Direction {
    /// All eight directions, for exhaustive testing.
    pub const ALL: [Direction; 8] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::NorthWest,
        Direction::NorthEast,
        Direction::SouthWest,
        Direction::SouthEast,
    ];

    /// True if centerpoint `a` lies in direction `self` of centerpoint `b`
    /// (strict inequalities; e.g. `NorthWest` = strictly west *and*
    /// strictly north).
    pub fn holds(&self, a: &Point, b: &Point) -> bool {
        let north = a.y > b.y;
        let south = a.y < b.y;
        let east = a.x > b.x;
        let west = a.x < b.x;
        match self {
            Direction::North => north,
            Direction::South => south,
            Direction::East => east,
            Direction::West => west,
            Direction::NorthWest => north && west,
            Direction::NorthEast => north && east,
            Direction::SouthWest => south && west,
            Direction::SouthEast => south && east,
        }
    }
}

/// A spatial θ-operator (the join predicate of a spatial join).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThetaOp {
    /// `o1 within distance d from o2`, measured between **centerpoints**
    /// (Table 1, row 1).
    WithinCenterDistance(f64),
    /// `o1 within distance d from o2`, measured between **closest points** —
    /// the natural reading of the paper's query (2), "houses within 10 km
    /// from a lake".
    WithinDistance(f64),
    /// `o1 overlaps o2`: the closed regions share at least one point
    /// (Table 1, row 2).
    Overlaps,
    /// `o1 includes o2` (Table 1, row 3 / Figure 4).
    Includes,
    /// `o1 contained in o2` (Table 1, row 4).
    ContainedIn,
    /// `o1 to the <direction> of o2`, measured between centerpoints
    /// (Table 1, row 5 / Figure 5 for `NorthWest`).
    DirectionOf(Direction),
    /// `o1 reachable from o2 in x minutes` (Table 1, row 6). Real travel
    /// networks are out of scope; we use the paper's own buffer abstraction
    /// with straight-line travel at `speed` distance-units per minute, i.e.
    /// `distance(o1, o2) ≤ minutes · speed`.
    ReachableWithin {
        /// Travel-time budget in minutes.
        minutes: f64,
        /// Straight-line speed in distance units per minute.
        speed: f64,
    },
    /// `o1 adjacent to o2`: the regions touch (distance 0) but their
    /// interiors are disjoint. Used by §2.2's demonstration that no total
    /// spatial order supports sort-merge for this operator.
    Adjacent,
}

/// The Θ-filter of a bounded operator compiled down to one of the two
/// primitive MBR predicates, with every operator-specific constant
/// (distance thresholds, `minutes · speed` products, the adjacency ε)
/// folded in **once**. Inner filter loops and the batched mask kernels
/// ([`crate::soa::RectChunks`]) evaluate this instead of re-deriving the
/// constant per pair from the [`ThetaOp`].
///
/// Both variants are symmetric in their rectangle arguments (rectangle
/// intersection trivially; `min_distance` exactly, since its per-axis
/// `max` just swaps operands), which is what allows a single
/// probe-vs-lanes kernel to serve filters written in either orientation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskFilter {
    /// `a` intersects `b` (closed intervals) — Table 1 rows 2–4.
    Overlap,
    /// `min_distance(a, b) <= ε` — the distance rows, with ε possibly
    /// negative (then the filter never holds, matching the scalar Θ).
    Within(f64),
}

impl MaskFilter {
    /// Evaluates the compiled filter on two MBRs. Bit-for-bit identical
    /// to [`ThetaOp::filter`] for the operator it was compiled from.
    #[inline]
    pub fn eval(&self, a: &Rect, b: &Rect) -> bool {
        match self {
            MaskFilter::Overlap => a.intersects(b),
            MaskFilter::Within(eps) => a.min_distance(b) <= *eps,
        }
    }
}

impl ThetaOp {
    /// Evaluates the exact θ-predicate on two geometries.
    pub fn eval(&self, a: &Geometry, b: &Geometry) -> bool {
        match self {
            ThetaOp::WithinCenterDistance(d) => a.center_distance(b) <= *d,
            ThetaOp::WithinDistance(d) => a.distance(b) <= *d,
            ThetaOp::Overlaps => a.overlaps(b),
            ThetaOp::Includes => a.includes(b),
            ThetaOp::ContainedIn => a.contained_in(b),
            ThetaOp::DirectionOf(dir) => dir.holds(&a.centerpoint(), &b.centerpoint()),
            ThetaOp::ReachableWithin { minutes, speed } => a.distance(b) <= minutes * speed,
            ThetaOp::Adjacent => a.distance(b) <= EPSILON && !interiors_overlap(a, b),
        }
    }

    /// Evaluates the conservative Θ-filter on the MBRs of two (ancestor)
    /// objects: Table 1, right column. Guaranteed to hold whenever any
    /// subobjects of the arguments satisfy [`ThetaOp::eval`].
    pub fn filter(&self, a: &Rect, b: &Rect) -> bool {
        match self {
            ThetaOp::WithinCenterDistance(d) | ThetaOp::WithinDistance(d) => {
                // "within distance d, measured between closest points".
                a.min_distance(b) <= *d
            }
            // All three interior-sharing operators relax to MBR overlap
            // (Table 1 rows 2-4, Figure 4).
            ThetaOp::Overlaps | ThetaOp::Includes | ThetaOp::ContainedIn => a.intersects(b),
            ThetaOp::DirectionOf(dir) => direction_filter(*dir, a, b),
            // "o1' overlaps the x-minute buffer of o2'".
            ThetaOp::ReachableWithin { minutes, speed } => a.min_distance(b) <= minutes * speed,
            ThetaOp::Adjacent => a.min_distance(b) <= EPSILON,
        }
    }

    /// The L∞ radius by which the left MBR must be expanded so that the
    /// Θ-filter region is covered by rectangle intersection:
    /// `filter(a, b)` implies `a.expand(radius)` intersects `b`. This is
    /// what makes an operator eligible for partitioned and plane-sweep
    /// filtering ([`crate::sweep`]): a bounded radius means every
    /// Θ-qualifying pair is found among expanded-rectangle overlaps.
    /// Returns `None` for operators whose filter region is unbounded
    /// (directional half-planes), which executors must serve with a
    /// nested-loop fallback.
    pub fn filter_radius(&self) -> Option<f64> {
        match self {
            // Euclidean min_distance ≤ d implies per-axis gap ≤ d.
            ThetaOp::WithinCenterDistance(d) | ThetaOp::WithinDistance(d) => Some(d.max(0.0)),
            ThetaOp::Overlaps | ThetaOp::Includes | ThetaOp::ContainedIn => Some(0.0),
            ThetaOp::ReachableWithin { minutes, speed } => Some((minutes * speed).max(0.0)),
            ThetaOp::Adjacent => Some(EPSILON),
            ThetaOp::DirectionOf(_) => None,
        }
    }

    /// Compiles the operator's Θ-filter into a [`MaskFilter`] with all
    /// constants folded, or `None` for directional operators (whose
    /// half-plane filter is orientation-sensitive and unbounded — those
    /// stay on the scalar [`ThetaOp::filter`] path).
    ///
    /// Unlike [`ThetaOp::filter_radius`], thresholds are **not** clamped
    /// to zero: a negative distance must keep rejecting every pair, so
    /// the raw constant is preserved and `MaskFilter::eval` stays
    /// bit-for-bit identical to `filter`.
    pub fn mask_filter(&self) -> Option<MaskFilter> {
        match self {
            ThetaOp::WithinCenterDistance(d) | ThetaOp::WithinDistance(d) => {
                Some(MaskFilter::Within(*d))
            }
            ThetaOp::Overlaps | ThetaOp::Includes | ThetaOp::ContainedIn => {
                Some(MaskFilter::Overlap)
            }
            ThetaOp::ReachableWithin { minutes, speed } => {
                Some(MaskFilter::Within(minutes * speed))
            }
            ThetaOp::Adjacent => Some(MaskFilter::Within(EPSILON)),
            ThetaOp::DirectionOf(_) => None,
        }
    }

    /// True if `θ(a, b) ⇔ θ(b, a)` for all inputs.
    pub fn is_symmetric(&self) -> bool {
        matches!(
            self,
            ThetaOp::WithinCenterDistance(_)
                | ThetaOp::WithinDistance(_)
                | ThetaOp::Overlaps
                | ThetaOp::ReachableWithin { .. }
                | ThetaOp::Adjacent
        )
    }

    /// The operator with swapped argument order: `swap(θ)(a, b) ⇔ θ(b, a)`.
    pub fn swapped(&self) -> ThetaOp {
        match self {
            ThetaOp::Includes => ThetaOp::ContainedIn,
            ThetaOp::ContainedIn => ThetaOp::Includes,
            ThetaOp::DirectionOf(d) => ThetaOp::DirectionOf(opposite(*d)),
            other => *other,
        }
    }

    /// Human-readable rendering of both columns of Table 1 for this
    /// operator, used by the `tab01_theta` reproduction binary.
    pub fn table_row(&self) -> (String, String) {
        match self {
            ThetaOp::WithinCenterDistance(d) => (
                format!("o1 within distance {d} from o2 (centerpoints)"),
                format!("o1' within distance {d} from o2' (closest points)"),
            ),
            ThetaOp::WithinDistance(d) => (
                format!("o1 within distance {d} from o2 (closest points)"),
                format!("o1' within distance {d} from o2' (closest points)"),
            ),
            ThetaOp::Overlaps => ("o1 overlaps o2".into(), "o1' overlaps o2'".into()),
            ThetaOp::Includes => ("o1 includes o2".into(), "o1' overlaps o2'".into()),
            ThetaOp::ContainedIn => ("o1 contained in o2".into(), "o1' overlaps o2'".into()),
            ThetaOp::DirectionOf(d) => (
                format!("o1 to the {d:?} of o2 (centerpoints)"),
                format!("o1' overlaps the {d:?} region bounded by the tangents on o2'"),
            ),
            ThetaOp::ReachableWithin { minutes, .. } => (
                format!("o1 reachable from o2 in {minutes} minutes"),
                format!("o1' overlaps the {minutes}-minute buffer of o2'"),
            ),
            ThetaOp::Adjacent => (
                "o1 adjacent to o2".into(),
                "o1' within distance 0 of o2' (closest points)".into(),
            ),
        }
    }
}

/// The direction such that `a dir b ⇔ b opposite(dir) a`.
fn opposite(d: Direction) -> Direction {
    match d {
        Direction::North => Direction::South,
        Direction::South => Direction::North,
        Direction::East => Direction::West,
        Direction::West => Direction::East,
        Direction::NorthWest => Direction::SouthEast,
        Direction::NorthEast => Direction::SouthWest,
        Direction::SouthWest => Direction::NorthEast,
        Direction::SouthEast => Direction::NorthWest,
    }
}

/// Θ for directional operators (Figure 5 generalized to all eight
/// directions): `a` must overlap the half-plane / quadrant delimited by the
/// tangents on `b` facing away from the direction. E.g. for `NorthWest`,
/// the region west of `b`'s **right** tangent and north of `b`'s **lower**
/// tangent.
fn direction_filter(dir: Direction, a: &Rect, b: &Rect) -> bool {
    // Centerpoint of a is in a; centerpoint of b is in b. If center(a) is
    // strictly north of center(b) then a.hi.y > b.lo.y, etc. Each primitive
    // check below is the loosest rectangle condition implied by the strict
    // centerpoint condition.
    let north = a.hi.y > b.lo.y;
    let south = a.lo.y < b.hi.y;
    let east = a.hi.x > b.lo.x;
    let west = a.lo.x < b.hi.x;
    match dir {
        Direction::North => north,
        Direction::South => south,
        Direction::East => east,
        Direction::West => west,
        Direction::NorthWest => north && west,
        Direction::NorthEast => north && east,
        Direction::SouthWest => south && west,
        Direction::SouthEast => south && east,
    }
}

/// True if the 2-D interiors of the geometries share a point. Points and
/// polylines have empty 2-D interiors.
fn interiors_overlap(a: &Geometry, b: &Geometry) -> bool {
    use Geometry::*;
    match (a, b) {
        (Rect(x), Rect(y)) => x.interiors_intersect(y),
        (Rect(x), Polygon(y)) | (Polygon(y), Rect(x)) => {
            // Shared interior iff some vertex is strictly inside the other
            // region or the boundaries properly cross.
            y.vertices().iter().any(|v| strictly_inside_rect(x, v))
                || x.corners().iter().any(|c| strictly_inside_polygon(y, c))
                || y.ring().crosses(Chain::new(&x.corners(), true, *x))
        }
        (Polygon(x), Polygon(y)) => {
            y.vertices().iter().any(|v| strictly_inside_polygon(x, v))
                || x.vertices().iter().any(|v| strictly_inside_polygon(y, v))
                || x.ring().crosses(y.ring())
        }
        // Points / polylines have no interior.
        _ => false,
    }
}

fn strictly_inside_rect(r: &Rect, p: &Point) -> bool {
    r.lo.x < p.x && p.x < r.hi.x && r.lo.y < p.y && p.y < r.hi.y
}

fn strictly_inside_polygon(poly: &crate::polygon::Polygon, p: &Point) -> bool {
    poly.locate(p) == Location::Inside
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Polygon;

    fn pt(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Geometry::Rect(Rect::from_bounds(x0, y0, x1, y1))
    }

    fn square(x0: f64, y0: f64, side: f64) -> Geometry {
        Geometry::Polygon(
            Polygon::new(vec![
                Point::new(x0, y0),
                Point::new(x0 + side, y0),
                Point::new(x0 + side, y0 + side),
                Point::new(x0, y0 + side),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn within_center_distance() {
        let op = ThetaOp::WithinCenterDistance(5.0);
        let a = rect(0.0, 0.0, 2.0, 2.0); // center (1,1)
        let b = rect(4.0, 4.0, 6.0, 6.0); // center (5,5) — distance ~5.66
        assert!(!op.eval(&a, &b));
        let c = rect(3.0, 1.0, 5.0, 1.0 + 0.0); // degenerate; center (4,1), distance 3
        assert!(op.eval(&a, &c));
    }

    #[test]
    fn within_distance_closest_points() {
        let op = ThetaOp::WithinDistance(1.5);
        let a = rect(0.0, 0.0, 1.0, 1.0);
        let b = rect(2.0, 0.0, 3.0, 1.0); // gap of 1.0
        let c = rect(3.0, 0.0, 4.0, 1.0); // gap of 2.0
        assert!(op.eval(&a, &b));
        assert!(!op.eval(&a, &c));
    }

    #[test]
    fn includes_and_contained_in_are_converses() {
        let big = square(0.0, 0.0, 10.0);
        let small = rect(1.0, 1.0, 2.0, 2.0);
        assert!(ThetaOp::Includes.eval(&big, &small));
        assert!(ThetaOp::ContainedIn.eval(&small, &big));
        assert!(!ThetaOp::Includes.eval(&small, &big));
        assert_eq!(ThetaOp::Includes.swapped(), ThetaOp::ContainedIn);
    }

    #[test]
    fn northwest_of() {
        let op = ThetaOp::DirectionOf(Direction::NorthWest);
        let a = pt(0.0, 10.0);
        let b = pt(5.0, 5.0);
        assert!(op.eval(&a, &b));
        assert!(!op.eval(&b, &a));
        // The swapped operator is SouthEast.
        assert!(op.swapped().eval(&b, &a));
        // Same x → not strictly west.
        assert!(!op.eval(&pt(5.0, 10.0), &b));
    }

    #[test]
    fn direction_filter_is_sound_for_figure_5() {
        // Figure 5: o1 NW of o2 implies o1' overlaps the NW quadrant of o2'.
        let op = ThetaOp::DirectionOf(Direction::NorthWest);
        let o1p = Rect::from_bounds(0.0, 4.0, 3.0, 8.0);
        let o2p = Rect::from_bounds(4.0, 0.0, 9.0, 5.0);
        // Subobjects satisfying θ:
        let o1 = pt(1.0, 7.0);
        let o2 = pt(6.0, 2.0);
        assert!(op.eval(&o1, &o2));
        assert!(op.filter(&o1p, &o2p));
    }

    #[test]
    fn reachable_within_buffer() {
        let op = ThetaOp::ReachableWithin {
            minutes: 10.0,
            speed: 0.5,
        }; // range 5.0
        let a = rect(0.0, 0.0, 1.0, 1.0);
        assert!(op.eval(&a, &rect(4.0, 0.0, 5.0, 1.0))); // gap 3
        assert!(!op.eval(&a, &rect(7.0, 0.0, 8.0, 1.0))); // gap 6
    }

    #[test]
    fn adjacent_grid_cells() {
        // Unit grid squares sharing an edge are adjacent; overlapping or
        // distant squares are not. This is the configuration of Figure 1.
        let op = ThetaOp::Adjacent;
        let c00 = rect(0.0, 0.0, 1.0, 1.0);
        let c10 = rect(1.0, 0.0, 2.0, 1.0);
        let c11 = rect(1.0, 1.0, 2.0, 2.0); // corner touch
        let c30 = rect(3.0, 0.0, 4.0, 1.0);
        let half = rect(0.5, 0.0, 1.5, 1.0);
        assert!(op.eval(&c00, &c10));
        assert!(op.eval(&c00, &c11));
        assert!(!op.eval(&c00, &c30));
        assert!(!op.eval(&c00, &half)); // interiors overlap
                                        // Θ holds for the adjacent pairs.
        assert!(op.filter(&c00.mbr_of(), &c10.mbr_of()));
    }

    impl Geometry {
        fn mbr_of(&self) -> Rect {
            use crate::geometry::Bounded;
            self.mbr()
        }
    }

    #[test]
    fn adjacent_polygons() {
        let op = ThetaOp::Adjacent;
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 0.0, 1.0);
        let c = square(0.5, 0.5, 1.0);
        assert!(op.eval(&a, &b));
        assert!(!op.eval(&a, &c));
    }

    #[test]
    fn symmetry_flags() {
        assert!(ThetaOp::Overlaps.is_symmetric());
        assert!(ThetaOp::Adjacent.is_symmetric());
        assert!(!ThetaOp::Includes.is_symmetric());
        assert!(!ThetaOp::DirectionOf(Direction::North).is_symmetric());
    }

    #[test]
    fn table_rows_render() {
        for op in [
            ThetaOp::WithinCenterDistance(10.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::DirectionOf(Direction::NorthWest),
            ThetaOp::ReachableWithin {
                minutes: 30.0,
                speed: 1.0,
            },
        ] {
            let (theta, big_theta) = op.table_row();
            assert!(!theta.is_empty() && !big_theta.is_empty());
        }
    }

    #[test]
    fn mask_filter_is_bit_identical_to_theta_filter() {
        let rects: Vec<Rect> = (0..12)
            .map(|i| {
                let f = i as f64;
                Rect::from_bounds(f * 1.7, f * 0.9, f * 1.7 + (i % 4) as f64, f * 0.9 + 2.0)
            })
            .collect();
        let ops = [
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::WithinDistance(3.0),
            ThetaOp::WithinDistance(-1.0), // negative ε must keep rejecting
            ThetaOp::WithinCenterDistance(7.5),
            ThetaOp::ReachableWithin {
                minutes: 2.0,
                speed: 1.25,
            },
        ];
        for op in ops {
            let mf = op.mask_filter().expect("bounded operator");
            for a in &rects {
                for b in &rects {
                    assert_eq!(mf.eval(a, b), op.filter(a, b), "{op:?} {a:?} {b:?}");
                    assert_eq!(mf.eval(a, b), mf.eval(b, a), "{op:?} not symmetric");
                }
            }
        }
        assert_eq!(
            ThetaOp::DirectionOf(Direction::NorthWest).mask_filter(),
            None
        );
        // filter_radius clamps negatives; mask_filter must not.
        assert_eq!(
            ThetaOp::WithinDistance(-1.0).mask_filter(),
            Some(MaskFilter::Within(-1.0))
        );
    }

    /// The key soundness example of Figure 4: o1' overlaps o2' must hold
    /// when o1 includes o2 for subobjects.
    #[test]
    fn figure_4_includes_soundness() {
        let o1p = Rect::from_bounds(0.0, 0.0, 10.0, 10.0);
        let o2p = Rect::from_bounds(8.0, 8.0, 20.0, 20.0);
        let o1 = square(8.5, 8.5, 1.4); // inside both o1' and the overlap zone
        let o2 = rect(8.7, 8.7, 9.0, 9.0);
        assert!(ThetaOp::Includes.eval(&o1, &o2));
        assert!(ThetaOp::Includes.filter(&o1p, &o2p));
    }
}
