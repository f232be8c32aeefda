//! Simple polygons: the "complex spatial objects" (lake areas, countries,
//! states) that the paper's motivating queries operate on.

use std::fmt;

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::{orientation, Chain, Segment};
use crate::EPSILON;

/// Construction errors for [`Polygon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices were supplied.
    TooFewVertices(usize),
    /// The vertices are collinear / span zero area.
    ZeroArea,
    /// Two non-adjacent edges cross each other (the ring is not simple).
    SelfIntersecting,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices(n) => {
                write!(f, "polygon needs at least 3 vertices, got {n}")
            }
            PolygonError::ZeroArea => write!(f, "polygon has zero area"),
            PolygonError::SelfIntersecting => write!(f, "polygon ring is self-intersecting"),
        }
    }
}

impl std::error::Error for PolygonError {}

/// Where a point lies relative to a polygon's closed region
/// ([`Polygon::locate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    Inside,
    Boundary,
    Outside,
}

/// A simple polygon, stored as a ring of vertices without the closing
/// duplicate. The ring is normalized to counter-clockwise orientation at
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
    mbr: Rect,
}

impl Polygon {
    /// Builds a simple polygon from a vertex ring.
    ///
    /// The ring may be given in either orientation; it is stored
    /// counter-clockwise. Fails if the ring has fewer than three vertices,
    /// spans zero area, or self-intersects.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        let signed = signed_area(&vertices);
        if signed.abs() <= EPSILON {
            return Err(PolygonError::ZeroArea);
        }
        if signed < 0.0 {
            vertices.reverse();
        }
        let poly = Polygon {
            mbr: Rect::bounding(vertices.iter().copied()).expect("non-empty ring"),
            vertices,
        };
        if poly.ring().self_intersects() {
            return Err(PolygonError::SelfIntersecting);
        }
        Ok(poly)
    }

    /// A ring the codec read back from a checksum-verified frame of this
    /// process's own pages: the encoder wrote it from a polygon [`new`]
    /// had validated, so it is already simple and counter-clockwise;
    /// `mbr` is the ring's, folded as the codec read it. Bytes from
    /// outside the process go through [`new`].
    ///
    /// [`new`]: Polygon::new
    pub(crate) fn from_stored_ring(vertices: Vec<Point>, mbr: Rect) -> Self {
        Polygon { vertices, mbr }
    }

    /// The four corners of `rect` as a polygon.
    pub fn from_rect(rect: &Rect) -> Result<Self, PolygonError> {
        Polygon::new(rect.corners().to_vec())
    }

    /// A regular `sides`-gon centered at `center` with circumradius `radius`.
    ///
    /// # Panics
    ///
    /// Panics if `sides < 3` or `radius <= 0`.
    pub fn regular(center: Point, radius: f64, sides: usize) -> Self {
        assert!(sides >= 3, "a polygon needs at least 3 sides");
        assert!(radius > 0.0, "radius must be positive");
        let verts = (0..sides)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * (i as f64) / (sides as f64);
                Point::new(
                    center.x + radius * angle.cos(),
                    center.y + radius * angle.sin(),
                )
            })
            .collect();
        Polygon::new(verts).expect("regular polygons are simple")
    }

    /// The vertex ring (counter-clockwise, no closing duplicate).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false — construction requires ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Minimum bounding rectangle (cached at construction).
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Enclosed area (positive).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices).abs()
    }

    /// Centroid (center of gravity) of the enclosed region — the paper's
    /// default "centerpoint" of a spatial object.
    pub fn centroid(&self) -> Point {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(&q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        // `a` is twice the signed area; non-zero by construction.
        Point::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Boundary edges, in ring order.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// The boundary ring, for the edge-pair kernel.
    pub(crate) fn ring(&self) -> Chain<'_> {
        Chain::new(&self.vertices, true, self.mbr)
    }

    /// Where `p` lies, exactly, in one pass over the edges: a ray cast
    /// towards +x with the half-open rule on y, where the exact
    /// orientation of `p` against each edge straddling `p.y` decides the
    /// crossing, and a zero one puts `p` on that edge. An edge that ends
    /// at height `p.y` without straddling it holds `p` only if `p` is on
    /// it; that catches horizontal edges and the tops of peaks.
    pub fn locate(&self, p: &Point) -> Location {
        if !self.mbr.contains_point(p) {
            return Location::Outside;
        }
        let mut inside = false;
        let mut a = self.vertices[self.vertices.len() - 1];
        for &b in &self.vertices {
            if (a.y > p.y) != (b.y > p.y) {
                let o = orientation(&a, &b, p);
                if o == 0 {
                    return Location::Boundary;
                }
                // `p` left of an upward edge, or right of a downward one:
                // the edge crosses the ray.
                if (o > 0) == (b.y > a.y) {
                    inside = !inside;
                }
            } else if (a.y == p.y || b.y == p.y) && Segment::new(a, b).contains_point(p) {
                return Location::Boundary;
            }
            a = b;
        }
        if inside {
            Location::Inside
        } else {
            Location::Outside
        }
    }

    /// True if `p` lies inside the polygon or on its boundary.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.locate(p) != Location::Outside
    }

    /// True if the closed regions of the polygons share at least one point:
    /// a vertex of one in the other (O(n) each, tried first), or touching
    /// boundaries.
    pub fn intersects_polygon(&self, other: &Polygon) -> bool {
        self.mbr.intersects(&other.mbr)
            && (self.contains_point(&other.vertices[0])
                || other.contains_point(&self.vertices[0])
                || self.ring().touches(other.ring()))
    }

    /// True if the closed region of `self` intersects `rect`.
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        self.mbr.intersects(rect)
            && (rect.contains_point(&self.vertices[0])
                || self.contains_point(&rect.lo)
                || self
                    .ring()
                    .touches(Chain::new(&rect.corners(), true, *rect)))
    }

    /// True if `other` lies entirely within `self` (boundary contact
    /// allowed). Correct for simple polygons: containment of all vertices
    /// plus absence of proper boundary crossings.
    pub fn contains_polygon(&self, other: &Polygon) -> bool {
        self.mbr.contains_rect(&other.mbr)
            && other.vertices.iter().all(|v| self.contains_point(v))
            && !self.ring().crosses(other.ring())
    }

    /// True if `rect` lies entirely within `self`.
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        let corners = rect.corners();
        self.mbr.contains_rect(rect)
            && corners.iter().all(|c| self.contains_point(c))
            && !self.ring().crosses(Chain::new(&corners, true, *rect))
    }

    /// Distance from the closest boundary/interior point of `self` to `p`
    /// (zero when `p` is inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        if self.contains_point(p) {
            return 0.0;
        }
        self.edges()
            .map(|e| e.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Minimum distance between the closed regions of the polygons
    /// (zero when they intersect).
    pub fn distance_to_polygon(&self, other: &Polygon) -> f64 {
        if self.intersects_polygon(other) {
            return 0.0;
        }
        self.ring().distance_apart(other.ring())
    }

    /// Minimum distance between `self` and `rect` (zero when intersecting).
    pub fn distance_to_rect(&self, rect: &Rect) -> f64 {
        if self.intersects_rect(rect) {
            return 0.0;
        }
        self.ring()
            .distance_apart(Chain::new(&rect.corners(), true, *rect))
    }
}

/// Signed area of the ring (positive for counter-clockwise orientation).
fn signed_area(vertices: &[Point]) -> f64 {
    let n = vertices.len();
    let mut acc = 0.0;
    for i in 0..n {
        acc += vertices[i].cross(&vertices[(i + 1) % n]);
    }
    acc / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(x0, y0),
            Point::new(x0 + side, y0),
            Point::new(x0 + side, y0 + side),
            Point::new(x0, y0 + side),
        ])
        .unwrap()
    }

    fn triangle() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn construction_rejects_bad_rings() {
        assert_eq!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]),
            Err(PolygonError::TooFewVertices(2))
        );
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(2.0, 2.0),
            ]),
            Err(PolygonError::ZeroArea)
        );
        // Symmetric bow-tie: the two triangles cancel to zero signed area.
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(2.0, 2.0),
                Point::new(2.0, 0.0),
                Point::new(0.0, 2.0),
            ]),
            Err(PolygonError::ZeroArea)
        );
        // Asymmetric bow-tie: non-zero area but self-crossing edges.
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(1.0, 2.0),
                Point::new(3.0, 2.0),
            ]),
            Err(PolygonError::SelfIntersecting)
        );
        // Bow-tie whose edge from (5e-4, 5e-7) down to (5e-4, -1) crosses
        // the 1e-3 edge on the x-axis; its upper end is off that edge but
        // within the orientation tolerance of its line.
        assert_eq!(
            Polygon::new(vec![
                Point::new(1e-3, 0.0),
                Point::new(0.0, 0.0),
                Point::new(5e-4, 5e-7),
                Point::new(5e-4, -1.0),
            ]),
            Err(PolygonError::SelfIntersecting)
        );
    }

    #[test]
    fn bowtie_crossing_a_short_edge_is_rejected() {
        // The edge from (5e-4, 5e-7) down to (5e-4, -1) crosses the 1e-3
        // edge on the x-axis at (5e-4, 0); its upper end is off that edge
        // but within the orientation tolerance of its line.
        let ring = [(1e-3, 0.0), (0.0, 0.0), (5e-4, 5e-7), (5e-4, -1.0)];
        assert_eq!(
            Polygon::new(ring.iter().map(|&(x, y)| Point::new(x, y)).collect()),
            Err(PolygonError::SelfIntersecting)
        );
    }

    /// The ring check as it was before it tested each edge pair once:
    /// both predicates on every pair, over a collected edge list.
    fn is_self_intersecting_oracle(poly: &Polygon) -> bool {
        let edges: Vec<Segment> = poly.edges().collect();
        let n = edges.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if edges[i].crosses_properly(&edges[j]) {
                    return true;
                }
                let adjacent = j == i + 1 || (i == 0 && j == n - 1);
                if !adjacent && edges[i].intersects(&edges[j]) {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn ring_check_agrees_with_the_two_predicate_oracle() {
        // Unvalidated rings, in both orientations.
        let mut verdicts = [0usize; 2];
        let mut check = |ring: &[(f64, f64)]| {
            let mut vertices: Vec<Point> = ring.iter().map(|&(x, y)| Point::new(x, y)).collect();
            for _ in 0..2 {
                let mbr = Rect::bounding(vertices.iter().copied()).unwrap();
                let poly = Polygon {
                    vertices: vertices.clone(),
                    mbr,
                };
                let want = is_self_intersecting_oracle(&poly);
                assert_eq!(poly.ring().self_intersects(), want, "{ring:?}");
                verdicts[usize::from(want)] += 1;
                vertices.reverse();
            }
        };
        // A square, a bow-tie, a vertex touching a non-adjacent edge, a
        // collinear spike, a repeated vertex, a doubled-back edge.
        check(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        check(&[(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (3.0, 2.0)]);
        check(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 0.0), (0.0, 4.0)]);
        check(&[(0.0, 0.0), (4.0, 0.0), (6.0, 0.0), (4.0, 0.0), (4.0, 4.0)]);
        check(&[(0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]);
        check(&[(0.0, 0.0), (4.0, 0.0), (2.0, 0.0), (2.0, 3.0)]);
        // Seeded rings on a 6×6 lattice (touches and collinear runs are
        // common there) and off it, 3 to 9 vertices.
        let mut state = 0x5EED_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..4_000 {
            let n = 3 + next() as usize % 7;
            let ring: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let (x, y) = (f64::from(next() % 6), f64::from(next() % 6));
                    let jitter = f64::from(next() % 1000) / 4000.0;
                    if round % 2 == 0 {
                        (x, y)
                    } else {
                        (x + jitter, y - jitter)
                    }
                })
                .collect();
            check(&ring);
        }
        // The edge-pair kernel test's chains as rings: lattice and star
        // rings at unit scale, at 1e-5 and near 1e7, 3 to 139 vertices.
        let mut rng = crate::segment::tests::Lcg(0x5EED);
        for round in 0..1_000 {
            let n = if round % 10 == 0 {
                100 + rng.next() as usize % 40
            } else {
                3 + rng.next() as usize % 10
            };
            let ring = crate::segment::tests::chain(&mut rng, n);
            check(&ring.iter().map(|p| (p.x, p.y)).collect::<Vec<_>>());
        }
        assert!(
            verdicts[0] > 200 && verdicts[1] > 200,
            "both verdicts exercised: {verdicts:?}"
        );
    }

    /// `contains_point` in two passes: the exact boundary test over every
    /// edge, then the even-odd ray cast, each crossing decided by the
    /// exact orientation of `p` against the edge.
    fn contains_point_oracle(poly: &Polygon, p: &Point) -> bool {
        if !poly.mbr.contains_point(p) {
            return false;
        }
        if poly.edges().any(|e| e.contains_point(p)) {
            return true;
        }
        let v = &poly.vertices;
        let n = v.len();
        let mut inside = false;
        for i in 0..n {
            let (a, b) = (v[i], v[(i + 1) % n]);
            if (a.y > p.y) != (b.y > p.y) && (orientation(&a, &b, p) > 0) == (b.y > a.y) {
                inside = !inside;
            }
        }
        inside
    }

    /// `intersects_polygon` as it was: the edge walk, then the vertices.
    fn intersects_polygon_oracle(a: &Polygon, b: &Polygon) -> bool {
        a.mbr.intersects(&b.mbr)
            && (a.edges().any(|e| b.edges().any(|f| e.intersects(&f)))
                || contains_point_oracle(a, &b.vertices[0])
                || contains_point_oracle(b, &a.vertices[0]))
    }

    #[test]
    fn certificates_first_agree_with_the_edge_walk_first_oracles() {
        let mut state = 0xCE27_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        // Unvalidated lattice rings, jittered every other round, at unit
        // scale and at 1e-5 (where cross products sit below 1e-9).
        let mut ring = |round: u32| {
            let scale = if round % 4 < 2 { 1.0 } else { 1e-5 };
            let vertices: Vec<Point> = (0..3 + next() % 7)
                .map(|_| {
                    let (x, y) = (f64::from(next() % 6), f64::from(next() % 6));
                    let jitter = if round.is_multiple_of(2) {
                        0.0
                    } else {
                        f64::from(next() % 1000) / 4000.0
                    };
                    Point::new((x + jitter) * scale, (y - jitter) * scale)
                })
                .collect();
            let mbr = Rect::bounding(vertices.iter().copied()).unwrap();
            Polygon { vertices, mbr }
        };
        let mut verdicts = [[0usize; 2]; 2];
        for round in 0..6_000 {
            let (a, b) = (ring(round), ring(round));
            let want = intersects_polygon_oracle(&a, &b);
            assert_eq!(a.intersects_polygon(&b), want, "{a:?} {b:?}");
            verdicts[0][usize::from(want)] += 1;
            // Vertices, edge midpoints and the other ring's vertices.
            let probes = a
                .edges()
                .flat_map(|e| [e.a, e.midpoint()])
                .chain(b.vertices);
            for p in probes {
                let want = contains_point_oracle(&a, &p);
                assert_eq!(a.contains_point(&p), want, "{a:?} {p:?}");
                verdicts[1][usize::from(want)] += 1;
            }
        }
        assert!(
            verdicts.iter().flatten().all(|&c| c > 300),
            "every verdict exercised: {verdicts:?}"
        );
    }

    #[test]
    fn locate_agrees_with_the_grid_oracle() {
        // Simple rings on the lattice {1, …, 7}², located at their
        // vertices, at their edge midpoints, and one ulp to either side of
        // a midpoint along each axis, plus random half-lattice points. The
        // oracle scales every coordinate by 2⁵³ to an integer and locates
        // by an exact on-edge test, else by the winding number.
        let to_grid = |p: &Point| {
            let k = (p.x * 2f64.powi(53), p.y * 2f64.powi(53));
            assert!(
                k.0.fract() == 0.0 && k.1.fract() == 0.0,
                "{p:?} is off the grid"
            );
            (k.0 as i64, k.1 as i64)
        };
        let oracle = |poly: &Polygon, p: &Point| {
            let p = to_grid(p);
            let mut winding = 0;
            for e in poly.edges() {
                let (a, b) = (to_grid(&e.a), to_grid(&e.b));
                let o = crate::segment::tests::grid_sign(a, b, p);
                let spans = |i: usize| {
                    let (lo, hi) = if i == 0 { (a.0, b.0) } else { (a.1, b.1) };
                    let v = if i == 0 { p.0 } else { p.1 };
                    lo.min(hi) <= v && v <= lo.max(hi)
                };
                if o == 0 && spans(0) && spans(1) {
                    return Location::Boundary;
                }
                if a.1 <= p.1 && p.1 < b.1 && o > 0 {
                    winding += 1;
                } else if b.1 <= p.1 && p.1 < a.1 && o < 0 {
                    winding -= 1;
                }
            }
            if winding != 0 {
                Location::Inside
            } else {
                Location::Outside
            }
        };
        let mut rng = crate::segment::tests::Lcg(0x10CA7E);
        let (mut verdicts, mut rings) = ([0usize; 3], 0);
        while rings < 1_500 {
            let n = 3 + rng.next() as usize % 7;
            let ring = (0..n).map(|_| {
                let mut k = || f64::from(1 + rng.next() % 7);
                Point::new(k(), k())
            });
            let Ok(poly) = Polygon::new(ring.collect()) else {
                continue;
            };
            rings += 1;
            let mut probes: Vec<Point> = poly.vertices.clone();
            for e in poly.edges() {
                let m = e.midpoint();
                probes.extend([
                    m,
                    Point::new(m.x.next_up(), m.y),
                    Point::new(m.x.next_down(), m.y),
                    Point::new(m.x, m.y.next_up()),
                    Point::new(m.x, m.y.next_down()),
                ]);
            }
            for _ in 0..8 {
                let mut h = || f64::from(2 + rng.next() % 13) / 2.0;
                probes.push(Point::new(h(), h()));
            }
            for p in &probes {
                let want = oracle(&poly, p);
                assert_eq!(poly.locate(p), want, "{poly:?} {p:?}");
                assert_eq!(poly.contains_point(p), want != Location::Outside);
                verdicts[want as usize] += 1;
            }
        }
        assert!(
            verdicts.iter().all(|&c| c > 3_000),
            "every location exercised: {verdicts:?}"
        );
    }

    #[test]
    fn orientation_is_normalized() {
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ])
        .unwrap();
        assert!(signed_area(cw.vertices()) > 0.0);
    }

    #[test]
    fn area_and_centroid() {
        let t = triangle();
        assert!((t.area() - 6.0).abs() < 1e-12);
        let c = t.centroid();
        assert!((c.x - 4.0 / 3.0).abs() < 1e-12);
        assert!((c.y - 1.0).abs() < 1e-12);

        let s = square(1.0, 1.0, 2.0);
        assert_eq!(s.area(), 4.0);
        assert_eq!(s.centroid(), Point::new(2.0, 2.0));
    }

    #[test]
    fn point_in_polygon() {
        let t = triangle();
        assert!(t.contains_point(&Point::new(1.0, 1.0)));
        assert!(t.contains_point(&Point::new(0.0, 0.0))); // vertex
        assert!(t.contains_point(&Point::new(2.0, 0.0))); // edge
        assert!(!t.contains_point(&Point::new(3.0, 3.0)));
        assert!(!t.contains_point(&Point::new(-0.1, 0.0)));
    }

    #[test]
    fn point_in_concave_polygon() {
        // A "U" shape: the notch (2, 2) is outside.
        let u = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 4.0),
            Point::new(3.0, 4.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 4.0),
            Point::new(0.0, 4.0),
        ])
        .unwrap();
        assert!(!u.contains_point(&Point::new(2.0, 2.0)));
        assert!(u.contains_point(&Point::new(0.5, 2.0)));
        assert!(u.contains_point(&Point::new(2.0, 0.5)));
    }

    #[test]
    fn polygon_polygon_intersection() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        let c = square(5.0, 5.0, 1.0);
        let inner = square(0.5, 0.5, 0.5); // fully inside a, no edge crossings
        assert!(a.intersects_polygon(&b));
        assert!(!a.intersects_polygon(&c));
        assert!(a.intersects_polygon(&inner));
        assert!(inner.intersects_polygon(&a));
    }

    #[test]
    fn polygon_containment() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(2.0, 2.0, 3.0);
        let crossing = square(8.0, 8.0, 5.0);
        assert!(outer.contains_polygon(&inner));
        assert!(!inner.contains_polygon(&outer));
        assert!(!outer.contains_polygon(&crossing));
        assert!(outer.contains_polygon(&outer)); // reflexive (boundary contact)
    }

    #[test]
    fn rect_interactions() {
        let t = triangle();
        assert!(t.intersects_rect(&Rect::from_bounds(0.5, 0.5, 1.5, 1.5)));
        assert!(!t.intersects_rect(&Rect::from_bounds(5.0, 5.0, 6.0, 6.0)));
        // Rect enclosing the whole triangle intersects it.
        assert!(t.intersects_rect(&Rect::from_bounds(-1.0, -1.0, 10.0, 10.0)));
        let s = square(0.0, 0.0, 10.0);
        assert!(s.contains_rect(&Rect::from_bounds(1.0, 1.0, 2.0, 2.0)));
        assert!(!s.contains_rect(&Rect::from_bounds(9.0, 9.0, 11.0, 11.0)));
    }

    #[test]
    fn distances() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(3.0, 0.0, 1.0);
        assert_eq!(a.distance_to_polygon(&b), 2.0);
        assert_eq!(a.distance_to_polygon(&a), 0.0);
        assert_eq!(a.distance_to_point(&Point::new(0.5, 0.5)), 0.0);
        assert_eq!(a.distance_to_point(&Point::new(4.0, 5.0)), 5.0);
        assert_eq!(
            a.distance_to_rect(&Rect::from_bounds(1.0, 0.0, 2.0, 1.0)),
            0.0
        );
        assert_eq!(
            a.distance_to_rect(&Rect::from_bounds(1.5, 0.0, 2.0, 1.0)),
            0.5
        );
    }

    #[test]
    fn mbr_is_tight() {
        let t = triangle();
        assert_eq!(t.mbr(), Rect::from_bounds(0.0, 0.0, 4.0, 3.0));
    }

    #[test]
    fn regular_polygon_roundtrip() {
        let hex = Polygon::regular(Point::new(5.0, 5.0), 2.0, 6);
        assert_eq!(hex.len(), 6);
        let c = hex.centroid();
        assert!((c.x - 5.0).abs() < 1e-9 && (c.y - 5.0).abs() < 1e-9);
        // Area of a regular hexagon with circumradius r: (3√3/2) r².
        let expected = 1.5 * 3f64.sqrt() * 4.0;
        assert!((hex.area() - expected).abs() < 1e-9);
    }
}
