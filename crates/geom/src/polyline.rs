//! Open polylines — roads, rivers, and other "lines and curves of complex
//! shapes" that the paper lists among spatial data types.

use std::fmt;

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::{Chain, Segment};

/// Construction errors for [`Polyline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolylineError {
    /// Fewer than two vertices were supplied.
    TooFewVertices(usize),
}

impl fmt::Display for PolylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolylineError::TooFewVertices(n) => {
                write!(f, "polyline needs at least 2 vertices, got {n}")
            }
        }
    }
}

impl std::error::Error for PolylineError {}

/// An open chain of line segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    vertices: Vec<Point>,
    mbr: Rect,
}

impl Polyline {
    /// Builds a polyline from at least two vertices.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolylineError> {
        if vertices.len() < 2 {
            return Err(PolylineError::TooFewVertices(vertices.len()));
        }
        Ok(Polyline {
            mbr: Rect::bounding(vertices.iter().copied()).expect("non-empty"),
            vertices,
        })
    }

    /// The vertex chain.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false — construction requires ≥ 2 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Minimum bounding rectangle (cached).
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// The point halfway along the arc — used as the polyline's
    /// "centerpoint" for directional and center-distance predicates.
    pub fn midpoint(&self) -> Point {
        let half = self.length() / 2.0;
        if half == 0.0 {
            return self.vertices[0];
        }
        let mut walked = 0.0;
        for s in self.segments() {
            let l = s.length();
            if walked + l >= half {
                let t = (half - walked) / l;
                return s.a.lerp(&s.b, t);
            }
            walked += l;
        }
        *self.vertices.last().expect("non-empty")
    }

    /// The vertex chain, for the edge-pair kernel.
    pub(crate) fn chain(&self) -> Chain<'_> {
        Chain::new(&self.vertices, false, self.mbr)
    }

    /// Constituent segments, in order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Distance from the closest point of the chain to `p`.
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.segments()
            .map(|s| s.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Minimum distance between two chains (zero if they cross or touch).
    pub fn distance_to_polyline(&self, other: &Polyline) -> f64 {
        if self.intersects_polyline(other) {
            return 0.0;
        }
        self.chain().distance_apart(other.chain())
    }

    /// True if the chains share at least one point.
    pub fn intersects_polyline(&self, other: &Polyline) -> bool {
        self.mbr.intersects(&other.mbr) && self.chain().touches(other.chain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(pts: &[(f64, f64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_single_vertex() {
        assert_eq!(
            Polyline::new(vec![Point::new(0.0, 0.0)]),
            Err(PolylineError::TooFewVertices(1))
        );
    }

    #[test]
    fn length_and_mbr() {
        let l = line(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        assert_eq!(l.length(), 7.0);
        assert_eq!(l.mbr(), Rect::from_bounds(0.0, 0.0, 3.0, 4.0));
    }

    #[test]
    fn midpoint_walks_the_arc() {
        let l = line(&[(0.0, 0.0), (3.0, 0.0), (3.0, 4.0)]);
        // Half-length = 3.5: 3 along the first segment, 0.5 up the second.
        assert_eq!(l.midpoint(), Point::new(3.0, 0.5));
    }

    #[test]
    fn midpoint_of_single_segment() {
        let l = line(&[(0.0, 0.0), (2.0, 2.0)]);
        assert_eq!(l.midpoint(), Point::new(1.0, 1.0));
    }

    #[test]
    fn distances_and_intersections() {
        let road = line(&[(0.0, 0.0), (10.0, 0.0)]);
        let river = line(&[(5.0, -3.0), (5.0, 3.0)]);
        let far = line(&[(0.0, 5.0), (10.0, 5.0)]);
        assert!(road.intersects_polyline(&river));
        assert_eq!(road.distance_to_polyline(&river), 0.0);
        assert!(!road.intersects_polyline(&far));
        assert_eq!(road.distance_to_polyline(&far), 5.0);
        assert_eq!(road.distance_to_point(&Point::new(5.0, 2.0)), 2.0);
    }
}
