//! The [`Geometry`] sum type and the pairwise spatial predicates
//! (overlap, containment, distance) dispatched over it.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::polyline::Polyline;
use crate::rect::Rect;
use crate::segment::Chain;
use crate::EPSILON;

/// Anything with a minimum bounding rectangle. Generalization-tree nodes
/// store and reason about `Bounded` values.
pub trait Bounded {
    /// Minimum bounding rectangle.
    fn mbr(&self) -> Rect;
}

impl Bounded for Rect {
    #[inline]
    fn mbr(&self) -> Rect {
        *self
    }
}

impl Bounded for Point {
    #[inline]
    fn mbr(&self) -> Rect {
        Rect::from_point(*self)
    }
}

impl Bounded for Polygon {
    #[inline]
    fn mbr(&self) -> Rect {
        Polygon::mbr(self)
    }
}

impl Bounded for Polyline {
    #[inline]
    fn mbr(&self) -> Rect {
        Polyline::mbr(self)
    }
}

/// A spatial value: one of the spatial data types of the paper's §2.2
/// ("points, lines, polygons, …").
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    Rect(Rect),
    Polygon(Polygon),
    Polyline(Polyline),
}

impl Bounded for Geometry {
    fn mbr(&self) -> Rect {
        match self {
            Geometry::Point(p) => Rect::from_point(*p),
            Geometry::Rect(r) => *r,
            Geometry::Polygon(p) => p.mbr(),
            Geometry::Polyline(l) => l.mbr(),
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<Rect> for Geometry {
    fn from(r: Rect) -> Self {
        Geometry::Rect(r)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

impl From<Polyline> for Geometry {
    fn from(l: Polyline) -> Self {
        Geometry::Polyline(l)
    }
}

impl Geometry {
    /// The object's *centerpoint* in the sense of the paper's Table 1:
    /// center of gravity for areal objects, the point itself for points,
    /// the arc midpoint for polylines.
    pub fn centerpoint(&self) -> Point {
        match self {
            Geometry::Point(p) => *p,
            Geometry::Rect(r) => r.center(),
            Geometry::Polygon(p) => p.centroid(),
            Geometry::Polyline(l) => l.midpoint(),
        }
    }

    /// True if the closed point sets of the two geometries share at least
    /// one point (the paper's `overlaps` θ-operator).
    pub fn overlaps(&self, other: &Geometry) -> bool {
        use Geometry::*;
        match (self, other) {
            (Point(a), Point(b)) => a.distance(b) <= EPSILON,
            (Point(a), Rect(b)) | (Rect(b), Point(a)) => b.contains_point(a),
            (Point(a), Polygon(b)) | (Polygon(b), Point(a)) => b.contains_point(a),
            (Point(a), Polyline(b)) | (Polyline(b), Point(a)) => b.distance_to_point(a) <= EPSILON,
            (Rect(a), Rect(b)) => a.intersects(b),
            (Rect(a), Polygon(b)) | (Polygon(b), Rect(a)) => b.intersects_rect(a),
            (Rect(a), Polyline(b)) | (Polyline(b), Rect(a)) => {
                b.vertices().iter().any(|v| a.contains_point(v))
                    || b.chain().touches(Chain::new(&a.corners(), true, *a))
            }
            (Polygon(a), Polygon(b)) => a.intersects_polygon(b),
            (Polygon(a), Polyline(b)) | (Polyline(b), Polygon(a)) => {
                b.vertices().iter().any(|v| a.contains_point(v)) || a.ring().touches(b.chain())
            }
            (Polyline(a), Polyline(b)) => a.intersects_polyline(b),
        }
    }

    /// True if `self` includes `other` entirely (the paper's `includes`;
    /// the converse of `contained in`). Boundary contact is allowed.
    pub fn includes(&self, other: &Geometry) -> bool {
        use Geometry::*;
        match (self, other) {
            (Point(a), Point(b)) => a.distance(b) <= EPSILON,
            (Point(_), _) => false, // a point cannot include an extended object
            (Rect(a), Point(b)) => a.contains_point(b),
            // Rectangles are convex: covering the MBR covers the object.
            (Rect(a), Rect(b)) => a.contains_rect(b),
            (Rect(a), Polygon(b)) => a.contains_rect(&b.mbr()),
            (Rect(a), Polyline(b)) => a.contains_rect(&b.mbr()),
            (Polygon(a), Point(b)) => a.contains_point(b),
            (Polygon(a), Rect(b)) => a.contains_rect(b),
            (Polygon(a), Polygon(b)) => a.contains_polygon(b),
            (Polygon(a), Polyline(b)) => {
                b.vertices().iter().all(|v| a.contains_point(v)) && !a.ring().crosses(b.chain())
            }
            (Polyline(a), Point(b)) => a.distance_to_point(b) <= EPSILON,
            // A 1-D chain includes another chain only in the degenerate case
            // where every vertex of the other chain lies on it and no segment
            // leaves it; we approximate with the vertex condition plus
            // midpoint samples per segment, each within EPSILON of `a`.
            (Polyline(a), Polyline(b)) => b.segments().all(|s| {
                [s.a, s.b, s.midpoint()]
                    .iter()
                    .all(|p| a.distance_to_point(p) <= EPSILON)
            }),
            // Extended 2-D regions can never fit in a 1-D chain.
            (Polyline(_), Rect(_)) | (Polyline(_), Polygon(_)) => false,
        }
    }

    /// True if `self` is contained in `other` — the paper's `contained in`.
    #[inline]
    pub fn contained_in(&self, other: &Geometry) -> bool {
        other.includes(self)
    }

    /// Minimum distance between the closest points of the geometries
    /// (zero when they overlap).
    pub fn distance(&self, other: &Geometry) -> f64 {
        use Geometry::*;
        match (self, other) {
            (Point(a), Point(b)) => a.distance(b),
            (Point(a), Rect(b)) | (Rect(b), Point(a)) => b.min_distance_to_point(a),
            (Point(a), Polygon(b)) | (Polygon(b), Point(a)) => b.distance_to_point(a),
            (Point(a), Polyline(b)) | (Polyline(b), Point(a)) => b.distance_to_point(a),
            (Rect(a), Rect(b)) => a.min_distance(b),
            (Rect(a), Polygon(b)) | (Polygon(b), Rect(a)) => b.distance_to_rect(a),
            (Polygon(a), Polygon(b)) => a.distance_to_polygon(b),
            (Polyline(a), Polyline(b)) => a.distance_to_polyline(b),
            // Once the exact overlap test says the shapes are apart, the
            // distance is a vertex-to-edge minimum.
            _ if self.overlaps(other) => 0.0,
            (Rect(a), Polyline(b)) | (Polyline(b), Rect(a)) => {
                b.chain().distance_apart(Chain::new(&a.corners(), true, *a))
            }
            (Polygon(a), Polyline(b)) | (Polyline(b), Polygon(a)) => {
                b.chain().distance_apart(a.ring())
            }
        }
    }

    /// Distance between the *centerpoints* of the geometries — the metric of
    /// the paper's `within distance d` θ-operator (Table 1, row 1).
    #[inline]
    pub fn center_distance(&self, other: &Geometry) -> f64 {
        self.centerpoint().distance(&other.centerpoint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn pt(x: f64, y: f64) -> Geometry {
        Geometry::Point(Point::new(x, y))
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Geometry::Rect(Rect::from_bounds(x0, y0, x1, y1))
    }

    fn chain(pts: &[(f64, f64)]) -> Geometry {
        Geometry::Polyline(
            Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
        )
    }

    #[test]
    fn centerpoints() {
        assert_eq!(pt(1.0, 2.0).centerpoint(), Point::new(1.0, 2.0));
        assert_eq!(rect(0.0, 0.0, 4.0, 2.0).centerpoint(), Point::new(2.0, 1.0));
        assert_eq!(square(0.0, 0.0, 2.0).centerpoint(), Point::new(1.0, 1.0));
        assert_eq!(
            chain(&[(0.0, 0.0), (2.0, 0.0)]).centerpoint(),
            Point::new(1.0, 0.0)
        );
    }

    #[test]
    fn overlap_cross_type_matrix() {
        let p = pt(1.0, 1.0);
        let r = rect(0.0, 0.0, 2.0, 2.0);
        let s = square(0.5, 0.5, 3.0);
        let l = chain(&[(0.0, 1.0), (2.0, 1.0)]);
        // Every pair of these overlaps.
        let all = [&p, &r, &s, &l];
        for a in all {
            for b in all {
                assert!(a.overlaps(b), "{a:?} should overlap {b:?}");
                assert!(b.overlaps(a), "overlap must be symmetric");
            }
        }
        let far = pt(100.0, 100.0);
        for a in all {
            assert!(!a.overlaps(&far));
        }
    }

    #[test]
    fn line_through_rect_without_endpoint_inside() {
        let l = chain(&[(-1.0, 1.0), (3.0, 1.0)]);
        let r = rect(0.0, 0.0, 2.0, 2.0);
        assert!(l.overlaps(&r));
        assert_eq!(l.distance(&r), 0.0);
    }

    #[test]
    fn includes_semantics() {
        let big = square(0.0, 0.0, 10.0);
        let small = rect(1.0, 1.0, 2.0, 2.0);
        let p = pt(5.0, 5.0);
        assert!(big.includes(&small));
        assert!(big.includes(&p));
        assert!(small.contained_in(&big));
        assert!(!small.includes(&big));
        assert!(!p.includes(&big));
        assert!(p.includes(&pt(5.0, 5.0)));
        // Polyline cannot include a region.
        let l = chain(&[(0.0, 0.0), (10.0, 10.0)]);
        assert!(!l.includes(&small));
        assert!(l.includes(&pt(5.0, 5.0)));
        // Sub-chain inclusion.
        assert!(l.includes(&chain(&[(1.0, 1.0), (2.0, 2.0)])));
        assert!(!l.includes(&chain(&[(1.0, 1.0), (2.0, 3.0)])));
    }

    #[test]
    fn distance_cross_type() {
        let a = square(0.0, 0.0, 1.0);
        let b = rect(3.0, 0.0, 4.0, 1.0);
        assert_eq!(a.distance(&b), 2.0);
        assert_eq!(b.distance(&a), 2.0);
        let l = chain(&[(0.0, 3.0), (1.0, 3.0)]);
        assert_eq!(a.distance(&l), 2.0);
        assert_eq!(l.distance(&b), (4.0f64 + 4.0).sqrt());
        assert_eq!(a.distance(&pt(0.5, 0.5)), 0.0);
    }

    #[test]
    fn center_distance_vs_min_distance() {
        let a = rect(0.0, 0.0, 2.0, 2.0);
        let b = rect(4.0, 0.0, 6.0, 2.0);
        assert_eq!(a.distance(&b), 2.0); // closest edges
        assert_eq!(a.center_distance(&b), 4.0); // centers (1,1) vs (5,1)
    }

    #[test]
    fn mbr_dispatch() {
        assert_eq!(pt(1.0, 2.0).mbr(), Rect::from_point(Point::new(1.0, 2.0)));
        assert_eq!(
            chain(&[(0.0, 0.0), (3.0, 4.0)]).mbr(),
            Rect::from_bounds(0.0, 0.0, 3.0, 4.0)
        );
    }
}
