//! Line segments and the segment-level primitives (intersection tests,
//! point–segment and segment–segment distances) that the polygon and
//! polyline predicates are built on, and `Chain`, the one edge-pair
//! kernel that runs the intersection tests over whole boundaries.

use crate::point::Point;
use crate::EPSILON;

/// A directed line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

/// Orientation of an ordered point triple: `1` counter-clockwise, `-1`
/// clockwise, `0` collinear, which means a cross product within
/// ±[`EPSILON`] (a distance of `EPSILON / |q − p|` from the line `pq`).
#[inline]
fn orientation(p: &Point, q: &Point, r: &Point) -> i8 {
    let v = (*q - *p).cross(&(*r - *p));
    i8::from(v > EPSILON) - i8::from(v < -EPSILON)
}

/// The four orientation codes of a pair: `t`'s endpoints against `s`,
/// then `s`'s endpoints against `t`.
#[inline]
fn codes(s: &Segment, t: &Segment) -> [i8; 4] {
    [
        orientation(&s.a, &s.b, &t.a),
        orientation(&s.a, &s.b, &t.b),
        orientation(&t.a, &t.b, &s.a),
        orientation(&t.a, &t.b, &s.b),
    ]
}

/// [`Segment::intersects`] on a pair's codes: one segment's endpoints
/// strictly on both sides of the other (`o1 * o2 < 0` or `o3 * o4 < 0`)
/// and the other's not on one side of it, or an endpoint collinear with the
/// other segment that lies on it. Left open: each segment has one endpoint
/// collinear with the other's line, off the other segment. Those codes
/// fit a crossing near both endpoints as well as nearly collinear segments
/// that end apart, so the exact signs decide. Symmetric in `s` and `t`.
#[inline]
fn touch(s: &Segment, t: &Segment, [o1, o2, o3, o4]: [i8; 4]) -> bool {
    (o1 * o2 < 0 && o3 != o4)
        || (o3 * o4 < 0 && o1 != o2)
        || (o1 == 0 && s.contains_point(&t.a))
        || (o2 == 0 && s.contains_point(&t.b))
        || (o3 == 0 && t.contains_point(&s.a))
        || (o4 == 0 && t.contains_point(&s.b))
        || (o1 != o2 && o3 != o4 && straddles(s, t) && straddles(t, s))
}

/// True if `t`'s endpoints lie on strictly opposite sides of `s`'s line,
/// by the sign of the cross product rather than its ±[`EPSILON`] code.
fn straddles(s: &Segment, t: &Segment) -> bool {
    let side = |p: &Point| (s.b - s.a).cross(&(*p - s.a));
    let (a, b) = (side(&t.a), side(&t.b));
    (a < 0.0 && b > 0.0) || (a > 0.0 && b < 0.0)
}

/// [`Segment::crosses_properly`] on a pair's codes: each segment's
/// endpoints strictly on both sides of the other.
#[inline]
fn cross([o1, o2, o3, o4]: [i8; 4]) -> bool {
    o1 * o2 < 0 && o3 * o4 < 0
}

impl Segment {
    /// Creates a segment. Degenerate segments (a == b) are allowed and behave
    /// like points.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.lerp(&self.b, 0.5)
    }

    /// True if `p` lies on this segment (within [`EPSILON`]).
    pub fn contains_point(&self, p: &Point) -> bool {
        self.distance_to_point(p) <= EPSILON
    }

    /// Distance from `p` to the closest point on this segment.
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.closest_point_to(p).distance(p)
    }

    /// The point on this segment closest to `p`.
    pub fn closest_point_to(&self, p: &Point) -> Point {
        let d = self.b - self.a;
        let len_sq = d.dot(&d);
        if len_sq <= EPSILON * EPSILON {
            return self.a; // degenerate segment
        }
        let t = ((*p - self.a).dot(&d) / len_sq).clamp(0.0, 1.0);
        self.a.lerp(&self.b, t)
    }

    /// True if the two segments share at least one point (proper crossing,
    /// touching endpoints, or collinear overlap).
    pub fn intersects(&self, other: &Segment) -> bool {
        touch(self, other, codes(self, other))
    }

    /// True if the segments cross *properly*: they intersect at a single
    /// interior point of both (no endpoint touching, no collinear overlap).
    pub fn crosses_properly(&self, other: &Segment) -> bool {
        cross(codes(self, other))
    }

    /// Minimum distance between the two segments (0 when they intersect).
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        self.distance_to_point(&other.a)
            .min(self.distance_to_point(&other.b))
            .min(other.distance_to_point(&self.a))
            .min(other.distance_to_point(&self.b))
    }
}

/// Chains of up to this many edges keep the kernel's column on the stack.
const STACK_EDGES: usize = 64;

/// A boundary as the edge-pair kernel walks it: edge `i` runs from vertex
/// `i` to vertex `i + 1`, and a closed chain (a polygon's or a rectangle's
/// ring) has a last edge back to vertex 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain<'a> {
    verts: &'a [Point],
    closed: bool,
}

impl<'a> Chain<'a> {
    pub(crate) fn new(verts: &'a [Point], closed: bool) -> Self {
        Chain { verts, closed }
    }

    /// True if an edge of `self` intersects an edge of `other`.
    pub(crate) fn touches(self, other: Chain) -> bool {
        self.any_pair(other, false, |_, _, s, t, o| touch(s, t, o))
    }

    /// True if an edge of `self` crosses an edge of `other` properly.
    pub(crate) fn crosses(self, other: Chain) -> bool {
        self.any_pair(other, false, |_, _, _, _, o| cross(o))
    }

    /// True if the ring is not simple. Each edge pair is tested once:
    /// adjacent edges share a vertex, so only a proper crossing is bad;
    /// any other two edges must not even touch.
    pub(crate) fn self_intersects(self) -> bool {
        let n = self.verts.len();
        self.any_pair(self, true, |i, j, s, t, o| {
            let adjacent = j == i + 1 || (i == 0 && j == n - 1);
            (adjacent && cross(o)) || (!adjacent && touch(s, t, o))
        })
    }

    #[inline]
    fn vertex(&self, k: usize) -> Point {
        self.verts[if k == self.verts.len() { 0 } else { k }]
    }

    /// The kernel (DESIGN.md §5l): true if `hit(i, j, s, t, codes)` holds
    /// for some edge pair, `j > i` only if `upper`. Each code is computed
    /// once, as [`codes`] would, and read by both pairs that share it: pair
    /// `j`'s `o2` is pair `j + 1`'s `o1`, row `i`'s `o4` is row `i + 1`'s
    /// `o3`. `hit` never sees a pair with `t` strictly on one side of `s`
    /// and no collinear code: both formulas are false there.
    fn any_pair<F>(self, other: Chain, upper: bool, hit: F) -> bool
    where
        F: Fn(usize, usize, &Segment, &Segment, [i8; 4]) -> bool,
    {
        let edges = |c: &Chain| c.verts.len() - usize::from(!c.closed);
        let (n, m) = (edges(&self), edges(&other));
        let (mut stack, mut heap) = ([0i8; STACK_EDGES], Vec::new());
        let col: &mut [i8] = if m <= STACK_EDGES {
            &mut stack[..m]
        } else {
            heap.resize(m, 0);
            &mut heap
        };
        let p0 = self.vertex(0);
        for (j, c) in col.iter_mut().enumerate() {
            *c = orientation(&other.vertex(j), &other.vertex(j + 1), &p0);
        }
        for i in 0..n {
            let s = Segment::new(self.vertex(i), self.vertex(i + 1));
            let first = if upper { i + 1 } else { 0 };
            let mut qa = other.vertex(first);
            let mut o1 = orientation(&s.a, &s.b, &qa);
            for (j, c) in (first..).zip(&mut col[first..]) {
                let t = Segment::new(qa, other.vertex(j + 1));
                let (o2, o3) = (orientation(&s.a, &s.b, &t.b), *c);
                let o4 = orientation(&t.a, &t.b, &s.b);
                let quiet = o1 == o2 && o1 != 0 && o3 != 0 && o4 != 0;
                if !quiet && hit(i, j, &s, &t, [o1, o2, o3, o4]) {
                    return true;
                }
                (qa, o1, *c) = (t.b, o2, o4);
            }
        }
        false
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing_detected() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        assert!(s1.intersects(&s2));
        assert!(s1.crosses_properly(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 0.0);
    }

    #[test]
    fn endpoint_touch_is_intersection_but_not_proper() {
        let s1 = seg(0.0, 0.0, 1.0, 1.0);
        let s2 = seg(1.0, 1.0, 2.0, 0.0);
        assert!(s1.intersects(&s2));
        assert!(!s1.crosses_properly(&s2));
    }

    #[test]
    fn collinear_overlap_detected() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(1.0, 0.0, 3.0, 0.0);
        assert!(s1.intersects(&s2));
        assert!(!s1.crosses_properly(&s2));
    }

    #[test]
    fn collinear_disjoint_not_intersecting() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(2.0, 0.0, 3.0, 0.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 1.0);
    }

    #[test]
    fn nearly_collinear_segments_apart_do_not_intersect() {
        // Both lines pass within 1e-9 of the other's near endpoint, so o1
        // and o4 are collinear and o2, o3 are not; neither endpoint lies on
        // the other segment, which ends 0.4 away.
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(1.4, 0.0, 2.4, 2e-9);
        assert!(!s1.intersects(&s2));
        assert!(!s2.intersects(&s1));
        assert!((s1.distance_to_segment(&s2) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn short_segment_crossing_is_seen_from_both_sides() {
        // Each `t` crosses `s` 5e-7 below its upper endpoint, which against
        // an edge 1e-3 long is a cross product of 5e-10: collinear by code
        // but not on `s`. The first `t` is long, so `s`'s endpoints
        // straddle it by code. The second is as short as `s` and crosses
        // 5e-7 from `s.a`, so `s.a` is collinear with it too.
        let s = seg(0.0, 0.0, 1e-3, 0.0);
        for t in [seg(5e-4, 5e-7, 5e-4, -1.0), seg(5e-7, 5e-7, 5e-7, -1e-3)] {
            assert!(s.intersects(&t), "{t:?}");
            assert!(t.intersects(&s), "{t:?}");
            assert_eq!(s.distance_to_segment(&t), 0.0);
            assert_eq!(t.distance_to_segment(&s), 0.0);
        }
    }

    #[test]
    fn parallel_segments_distance() {
        let s1 = seg(0.0, 0.0, 2.0, 0.0);
        let s2 = seg(0.0, 1.0, 2.0, 1.0);
        assert!(!s1.intersects(&s2));
        assert_eq!(s1.distance_to_segment(&s2), 1.0);
    }

    #[test]
    fn point_segment_distance_interior_and_beyond() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Projection falls inside the segment.
        assert_eq!(s.distance_to_point(&Point::new(5.0, 3.0)), 3.0);
        // Projection falls beyond endpoint b.
        assert_eq!(s.distance_to_point(&Point::new(13.0, 4.0)), 5.0);
        // Projection falls before endpoint a.
        assert_eq!(s.distance_to_point(&Point::new(-3.0, 4.0)), 5.0);
    }

    #[test]
    fn degenerate_segment_acts_like_point() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.distance_to_point(&Point::new(4.0, 5.0)), 5.0);
        assert!(s.contains_point(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn contains_point_on_and_off_segment() {
        let s = seg(0.0, 0.0, 4.0, 4.0);
        assert!(s.contains_point(&Point::new(2.0, 2.0)));
        assert!(!s.contains_point(&Point::new(2.0, 2.1)));
    }

    #[test]
    fn t_shape_touch_counts_as_intersection() {
        let s1 = seg(0.0, 0.0, 4.0, 0.0);
        let s2 = seg(2.0, 0.0, 2.0, 3.0); // touches interior of s1 at endpoint
        assert!(s1.intersects(&s2));
        assert!(!s1.crosses_properly(&s2));
    }

    /// The edge lists the kernel walks, as the loops it replaced built them.
    fn edges(verts: &[Point], closed: bool) -> Vec<Segment> {
        let mut e: Vec<Segment> = verts.windows(2).map(|w| Segment::new(w[0], w[1])).collect();
        if closed {
            e.push(Segment::new(verts[verts.len() - 1], verts[0]));
        }
        e
    }

    /// `any(any(pred))` over all edge pairs, `self` outer: the nested loops
    /// the kernel replaced.
    fn any_pair_oracle(p: Chain, q: Chain, pred: fn(&Segment, &Segment) -> bool) -> bool {
        let (ep, eq) = (edges(p.verts, p.closed), edges(q.verts, q.closed));
        ep.iter().any(|e| eq.iter().any(|f| pred(e, f)))
    }

    pub(crate) struct Lcg(pub(crate) u64);

    impl Lcg {
        pub(crate) fn next(&mut self) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as u32
        }
    }

    /// A lattice chain (touching vertices and collinear runs are common) or
    /// a star-shaped ring around (3, 3), snapped to the lattice or not;
    /// then scaled so that cross products sit at EPSILON (1e-5), or moved
    /// to 1e7, and given in either orientation. The ring check's property
    /// test (`polygon::tests`) draws its rings here too.
    pub(crate) fn chain(rng: &mut Lcg, n: usize) -> Vec<Point> {
        let kind = rng.next() % 3;
        let mut v: Vec<Point> = (0..n)
            .map(|k| {
                if kind == 0 {
                    return Point::new(f64::from(rng.next() % 7), f64::from(rng.next() % 7));
                }
                let angle = std::f64::consts::TAU * k as f64 / n as f64;
                let r = 1.0 + 2.0 * f64::from(rng.next() % 1000) / 1000.0;
                let (x, y) = (3.0 + r * angle.cos(), 3.0 + r * angle.sin());
                if kind == 1 {
                    Point::new(x.round(), y.round())
                } else {
                    Point::new(x, y)
                }
            })
            .collect();
        let (scale, shift) = [(1.0, 0.0), (1e-5, 0.0), (1.0, 1e7)][rng.next() as usize % 3];
        for p in &mut v {
            *p = Point::new(p.x * scale + shift, p.y * scale + shift);
        }
        if rng.next().is_multiple_of(2) {
            v.reverse();
        }
        v
    }

    #[test]
    fn kernel_agrees_with_the_nested_loops_it_replaced() {
        // Single pairs whose one collinear code is the only witness of a
        // touch: an endpoint within EPSILON of the other segment while the
        // other codes see no contact; and a crossing that only the exact
        // signs see. In both roles and both directions, so each zero code
        // takes each of the four positions.
        let pts = |v: &[(f64, f64)]| v.iter().map(|&(x, y)| Point::new(x, y)).collect::<Vec<_>>();
        for (a, b) in [
            ([(0.0, 0.0), (1.0, 0.0)], [(0.5, 5e-10), (10.5, 6e-10)]),
            ([(0.0, 0.0), (3.0, 0.0)], [(3.0, 5e-10), (3.5, 1.0)]),
            ([(0.0, 0.0), (1e-3, 0.0)], [(5e-7, 5e-7), (5e-7, -1e-3)]),
        ] {
            let (a, b) = (pts(&a), pts(&b));
            let (ra, rb) = ([a[1], a[0]], [b[1], b[0]]);
            for (p, q) in [(&a[..], &b[..]), (&ra, &b), (&a, &rb), (&ra, &rb)] {
                for (p, q) in [(p, q), (q, p)] {
                    let (p, q) = (Chain::new(p, false), Chain::new(q, false));
                    assert!(any_pair_oracle(p, q, Segment::intersects), "{p:?} {q:?}");
                    assert!(p.touches(q), "{p:?} {q:?}");
                }
            }
        }

        let mut rng = Lcg(0xC0DE5);
        let mut verdicts = [[0usize; 2]; 2];
        for round in 0..3_000 {
            // 3 to 12 vertices, and 100 to 139 in every tenth round so the
            // columns outgrow the stack buffer.
            let mut size = || {
                if round % 10 == 0 {
                    100 + rng.next() as usize % 40
                } else {
                    3 + rng.next() as usize % 10
                }
            };
            let (n, m) = (size(), size());
            let pv = chain(&mut rng, n);
            // Every third round, `q` runs through about two thirds of `p`'s
            // vertices, each nudged by at most 8e-10 per axis: its endpoints
            // lie within EPSILON of `p`'s, while edges of unequal length see
            // them on or off their lines.
            let qv: Vec<Point> = if round % 3 == 1 {
                let mut nudge = || f64::from(rng.next() % 17) * 1e-10 - 8e-10;
                let kept = pv.iter().enumerate().filter(|(k, _)| k % 3 != 2);
                kept.map(|(_, p)| Point::new(p.x + nudge(), p.y + nudge()))
                    .collect()
            } else {
                chain(&mut rng, m)
            };
            let closed = [rng.next().is_multiple_of(2), rng.next().is_multiple_of(2)];
            let (p, q) = (Chain::new(&pv, closed[0]), Chain::new(&qv, closed[1]));
            let touch = any_pair_oracle(p, q, Segment::intersects);
            let cross = any_pair_oracle(p, q, Segment::crosses_properly);
            let ctx = format!("{pv:?} {qv:?} {closed:?}");
            assert_eq!(p.touches(q), touch, "touches {ctx}");
            assert_eq!(p.crosses(q), cross, "crosses {ctx}");
            for (k, v) in [touch, cross].into_iter().enumerate() {
                verdicts[k][usize::from(v)] += 1;
            }
        }
        assert!(
            verdicts.iter().flatten().all(|&c| c > 100),
            "every verdict exercised: {verdicts:?}"
        );
    }
}
