//! Axis-aligned rectangles — the minimum bounding rectangle (MBR)
//! abstraction that generalization-tree nodes (and in particular R-tree
//! directory entries, Guttman 1984) are built from.

use crate::point::Point;
use crate::segment::Segment;

/// An axis-aligned rectangle, stored as its lower-left (`lo`) and
/// upper-right (`hi`) corners. Degenerate rectangles (zero width and/or
/// height) are valid and represent segments or points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub lo: Point,
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from two corner points, normalizing the corner
    /// order so that `lo` is component-wise ≤ `hi`.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: a.min(&b),
            hi: a.max(&b),
        }
    }

    /// Creates a rectangle from raw bounds.
    ///
    /// # Panics
    ///
    /// Panics if `x0 > x1` or `y0 > y1` (use [`Rect::new`] for unordered
    /// corners) or if any bound is non-finite.
    #[inline]
    pub fn from_bounds(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(
            x0 <= x1 && y0 <= y1,
            "invalid bounds [{x0},{x1}]x[{y0},{y1}]"
        );
        Rect {
            lo: Point::new(x0, y0),
            hi: Point::new(x1, y1),
        }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect { lo: p, hi: p }
    }

    /// Smallest rectangle enclosing all `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding(points: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect::from_point(first);
        for p in it {
            r.lo = r.lo.min(&p);
            r.hi = r.hi.max(&p);
        }
        Some(r)
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half the perimeter — the "margin" used by some R-tree split
    /// heuristics.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Center point (the paper's "centerpoint" for rectangles).
    #[inline]
    pub fn center(&self) -> Point {
        self.lo.lerp(&self.hi, 0.5)
    }

    /// True if the rectangles share at least one point (closed-set
    /// semantics: touching boundaries count as overlap).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// True if the interiors overlap (touching boundaries do *not* count).
    #[inline]
    pub fn interiors_intersect(&self, other: &Rect) -> bool {
        self.lo.x < other.hi.x
            && other.lo.x < self.hi.x
            && self.lo.y < other.hi.y
            && other.lo.y < self.hi.y
    }

    /// True if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// True if `other` lies entirely inside or on the boundary of `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// Smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// The common region of the two rectangles, or `None` if disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: self.lo.max(&other.lo),
            hi: self.hi.min(&other.hi),
        })
    }

    /// Area increase needed to also cover `other` — Guttman's insertion
    /// heuristic ("least enlargement").
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Rectangle grown by `d` on every side (the "d-buffer" of the paper's
    /// distance operators). Negative `d` shrinks; the result is clamped to
    /// remain a valid (possibly degenerate) rectangle. `d = +∞` (the
    /// filter radius of `WithinDistance(∞)`) gives infinite bounds, which
    /// compare as they should; a NaN `d` panics.
    pub fn expand(&self, d: f64) -> Rect {
        assert!(!d.is_nan(), "expansion radius must not be NaN");
        // Literals, not `Point::new`, which rejects the infinite bounds.
        let lo = Point {
            x: self.lo.x - d,
            y: self.lo.y - d,
        };
        let hi = Point {
            x: self.hi.x + d,
            y: self.hi.y + d,
        };
        if lo.x > hi.x || lo.y > hi.y {
            let c = self.center();
            return Rect::from_point(c);
        }
        Rect { lo, hi }
    }

    /// Minimum distance between the closest points of the two rectangles
    /// (zero when they intersect). This is the Θ-test of the paper's Table 1
    /// for the `within distance d` operator.
    pub fn min_distance(&self, other: &Rect) -> f64 {
        let dx = (other.lo.x - self.hi.x)
            .max(self.lo.x - other.hi.x)
            .max(0.0);
        let dy = (other.lo.y - self.hi.y)
            .max(self.lo.y - other.hi.y)
            .max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Minimum distance from `p` to this rectangle (zero when inside).
    pub fn min_distance_to_point(&self, p: &Point) -> f64 {
        let dx = (self.lo.x - p.x).max(p.x - self.hi.x).max(0.0);
        let dy = (self.lo.y - p.y).max(p.y - self.hi.y).max(0.0);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance between any two points of the rectangles — an upper
    /// bound used by "all-within-distance" style pruning.
    pub fn max_distance(&self, other: &Rect) -> f64 {
        let dx = (self.hi.x - other.lo.x)
            .abs()
            .max((other.hi.x - self.lo.x).abs());
        let dy = (self.hi.y - other.lo.y)
            .abs()
            .max((other.hi.y - self.lo.y).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corner points in counter-clockwise order starting at `lo`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.lo,
            Point::new(self.hi.x, self.lo.y),
            self.hi,
            Point::new(self.lo.x, self.hi.y),
        ]
    }

    /// The four boundary edges, counter-clockwise.
    pub fn edges(&self) -> [Segment; 4] {
        let c = self.corners();
        [
            Segment::new(c[0], c[1]),
            Segment::new(c[1], c[2]),
            Segment::new(c[2], c[3]),
            Segment::new(c[3], c[0]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_bounds(x0, y0, x1, y1)
    }

    #[test]
    fn new_normalizes_corner_order() {
        let a = Rect::new(Point::new(3.0, 1.0), Point::new(0.0, 4.0));
        assert_eq!(a, r(0.0, 1.0, 3.0, 4.0));
    }

    #[test]
    fn area_margin_center() {
        let a = r(1.0, 2.0, 4.0, 6.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.margin(), 7.0);
        assert_eq!(a.center(), Point::new(2.5, 4.0));
    }

    #[test]
    fn intersection_variants() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        let c = r(2.0, 0.0, 4.0, 2.0); // shares only the x=2 edge with a
        let d = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(a.interiors_intersect(&b));
        assert!(a.intersects(&c));
        assert!(!a.interiors_intersect(&c));
        assert!(!a.intersects(&d));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.intersection(&d), None);
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer)); // reflexive
        assert!(outer.contains_point(&Point::new(0.0, 0.0))); // boundary
        assert!(!outer.contains_point(&Point::new(-0.1, 5.0)));
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, -2.0, 5.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_rect(&a) && u.contains_rect(&b));
        assert_eq!(u, r(0.0, -2.0, 5.0, 1.0));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(outer.enlargement(&inner), 0.0);
        assert_eq!(inner.enlargement(&outer), 100.0 - 1.0);
    }

    #[test]
    fn min_distance_cases() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        // Diagonal neighbour: distance between corners (1,1)-(4,5) = 5.
        assert_eq!(a.min_distance(&r(4.0, 5.0, 6.0, 7.0)), 5.0);
        // Horizontal neighbour.
        assert_eq!(a.min_distance(&r(3.0, 0.0, 4.0, 1.0)), 2.0);
        // Overlapping.
        assert_eq!(a.min_distance(&r(0.5, 0.5, 2.0, 2.0)), 0.0);
        // Touching.
        assert_eq!(a.min_distance(&r(1.0, 0.0, 2.0, 1.0)), 0.0);
    }

    #[test]
    fn min_distance_to_point() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(a.min_distance_to_point(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(a.min_distance_to_point(&Point::new(5.0, 6.0)), 5.0);
    }

    #[test]
    fn expand_and_shrink() {
        let a = r(2.0, 2.0, 4.0, 4.0);
        assert_eq!(a.expand(1.0), r(1.0, 1.0, 5.0, 5.0));
        // Over-shrinking collapses to the center.
        assert_eq!(a.expand(-5.0), Rect::from_point(Point::new(3.0, 3.0)));
        assert_eq!(a.expand(f64::NEG_INFINITY), a.expand(-5.0));
        // An unbounded radius reaches everything.
        let all = a.expand(f64::INFINITY);
        assert_eq!((all.lo.x, all.hi.y), (f64::NEG_INFINITY, f64::INFINITY));
        assert!(all.intersects(&r(1e300, -1e300, 1e300, -1e300)));
    }

    #[test]
    fn bounding_of_points() {
        let pts = vec![
            Point::new(3.0, -1.0),
            Point::new(0.0, 2.0),
            Point::new(1.0, 7.0),
        ];
        assert_eq!(Rect::bounding(pts), Some(r(0.0, -1.0, 3.0, 7.0)));
        assert_eq!(Rect::bounding(Vec::new()), None);
    }

    #[test]
    fn corners_and_edges_are_consistent() {
        let a = r(0.0, 0.0, 2.0, 1.0);
        let cs = a.corners();
        assert_eq!(cs[0], Point::new(0.0, 0.0));
        assert_eq!(cs[2], Point::new(2.0, 1.0));
        for e in a.edges() {
            assert!(a.contains_point(&e.a) && a.contains_point(&e.b));
        }
    }

    #[test]
    fn max_distance_upper_bounds_min_distance() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0);
        assert!(a.max_distance(&b) >= a.min_distance(&b));
    }
}
