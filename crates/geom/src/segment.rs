//! Line segments and the segment-level primitives (intersection tests,
//! point–segment and segment–segment distances) that the polygon and
//! polyline predicates are built on, and `Chain`, the one edge-pair
//! kernel that runs the intersection tests over whole boundaries.
//!
//! Every intersection test here is exact: it reads only the exact sign of
//! `orientation` and coordinate comparisons, never a tolerance.

use crate::point::Point;
use crate::rect::Rect;

/// A directed line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

/// The relative rounding error ε of one float operation, 2⁻⁵³.
const ROUNDING: f64 = 1.0 / (1u64 << 53) as f64;

/// Shewchuk's `ccwerrboundA`, (3 + 16ε)ε: when the float determinant is
/// at least this multiple of `|left| + |right|`, its sign is exact.
const CCW_ERRBOUND_A: f64 = (3.0 + 16.0 * ROUNDING) * ROUNDING;

/// Orientation of an ordered point triple: the exact sign of
/// `(q − p) × (r − p)`, `1` counter-clockwise, `-1` clockwise, `0`
/// collinear. Exact for finite coordinates whose products neither
/// overflow nor underflow (Shewchuk 1997): the float filter decides
/// almost every triple, [`orientation_exact`] the rest.
#[inline]
pub(crate) fn orientation(p: &Point, q: &Point, r: &Point) -> i8 {
    orientation_filter(p, q, r).unwrap_or_else(|| orientation_exact(p, q, r))
}

/// The float determinant's sign where its error bound proves it exact,
/// else `None`. Products of opposite signs (or a zero) cannot cancel, so
/// their difference has the exact sign without a bound.
#[inline]
pub(crate) fn orientation_filter(p: &Point, q: &Point, r: &Point) -> Option<i8> {
    let left = (q.x - p.x) * (r.y - p.y);
    let right = (q.y - p.y) * (r.x - p.x);
    let det = left - right;
    let sum = if left > 0.0 && right > 0.0 {
        left + right
    } else if left < 0.0 && right < 0.0 {
        -left - right
    } else {
        return Some(sign(det));
    };
    (det.abs() >= CCW_ERRBOUND_A * sum).then(|| sign(det))
}

/// The exact sign of `p × q + q × r + r × p`, which is `(q − p) × (r − p)`
/// expanded: six products, each split exactly into a float and its
/// rounding error (`two_product`), summed without loss into a
/// nonoverlapping expansion whose largest component carries the sign.
#[cold]
#[inline(never)]
fn orientation_exact(p: &Point, q: &Point, r: &Point) -> i8 {
    let products = [
        (p.x, q.y),
        (-p.y, q.x),
        (q.x, r.y),
        (-q.y, r.x),
        (r.x, p.y),
        (-r.y, p.x),
    ];
    let mut expansion = [0.0; 12];
    let mut len = 0;
    for (a, b) in products {
        let (hi, lo) = two_product(a, b);
        len = grow_expansion(&mut expansion, len, lo);
        len = grow_expansion(&mut expansion, len, hi);
    }
    expansion[..len].last().map_or(0, |&top| sign(top))
}

/// Adds `b` to the expansion `e[..len]` in place and returns its new
/// length: Shewchuk's GROW-EXPANSION with zero elimination, so the
/// components stay nonoverlapping, nonzero and in increasing magnitude.
fn grow_expansion(e: &mut [f64; 12], len: usize, b: f64) -> usize {
    let (mut q, mut kept) = (b, 0);
    for i in 0..len {
        let (sum, err) = two_sum(q, e[i]);
        q = sum;
        if err != 0.0 {
            e[kept] = err;
            kept += 1;
        }
    }
    if q != 0.0 {
        e[kept] = q;
        kept += 1;
    }
    kept
}

/// `a + b` as a float and its exact rounding error (Knuth).
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let x = a + b;
    let bv = x - a;
    let av = x - bv;
    (x, (a - av) + (b - bv))
}

/// `a · b` as a float and its exact rounding error.
#[inline]
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let x = a * b;
    (x, a.mul_add(b, -x))
}

#[inline]
fn sign(v: f64) -> i8 {
    i8::from(v > 0.0) - i8::from(v < 0.0)
}

/// [`Segment::intersects`]: a strict straddle both ways, or an endpoint
/// collinear with the other segment and inside its box. `t` strictly on
/// one side of `s` shares nothing with it, so its two codes are enough.
#[inline]
fn touch(s: &Segment, t: &Segment) -> bool {
    let (o1, o2) = (orientation(&s.a, &s.b, &t.a), orientation(&s.a, &s.b, &t.b));
    if o1 == o2 && o1 != 0 {
        return false;
    }
    let (o3, o4) = (orientation(&t.a, &t.b, &s.a), orientation(&t.a, &t.b, &s.b));
    (o1 * o2 < 0 && o3 * o4 < 0)
        || (o1 == 0 && s.bbox().contains_point(&t.a))
        || (o2 == 0 && s.bbox().contains_point(&t.b))
        || (o3 == 0 && t.bbox().contains_point(&s.a))
        || (o4 == 0 && t.bbox().contains_point(&s.b))
}

/// [`Segment::crosses_properly`]: each segment's endpoints strictly on
/// both sides of the other.
#[inline]
fn cross(s: &Segment, t: &Segment) -> bool {
    orientation(&s.a, &s.b, &t.a) * orientation(&s.a, &s.b, &t.b) < 0
        && orientation(&t.a, &t.b, &s.a) * orientation(&t.a, &t.b, &s.b) < 0
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

    /// The segment's bounding box.
    #[inline]
    pub(crate) fn bbox(&self) -> Rect {
        Rect::new(self.a, self.b)
    }

    /// True if `p` lies on this segment, exactly: collinear with it and
    /// inside its box.
    pub fn contains_point(&self, p: &Point) -> bool {
        orientation(&self.a, &self.b, p) == 0 && self.bbox().contains_point(p)
    }

    /// Distance from `p` to the closest point on this segment.
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        self.closest_point_to(p).distance(p)
    }

    /// The point on this segment closest to `p`.
    pub fn closest_point_to(&self, p: &Point) -> Point {
        let d = self.b - self.a;
        let len_sq = d.dot(&d);
        if len_sq == 0.0 {
            return self.a; // degenerate segment
        }
        let t = ((*p - self.a).dot(&d) / len_sq).clamp(0.0, 1.0);
        self.a.lerp(&self.b, t)
    }

    /// True if the two segments share at least one point (proper crossing,
    /// touching endpoints, or collinear overlap).
    pub fn intersects(&self, other: &Segment) -> bool {
        touch(self, other)
    }

    /// True if the segments cross *properly*: they intersect at a single
    /// interior point of both (no endpoint touching, no collinear overlap).
    pub fn crosses_properly(&self, other: &Segment) -> bool {
        cross(self, other)
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

/// Chains of up to this many edges keep the kernel's column list on the
/// stack.
const STACK_EDGES: usize = 64;

/// A boundary as the edge-pair kernel walks it: edge `i` runs from vertex
/// `i` to vertex `i + 1`, and a closed chain (a polygon's or a rectangle's
/// ring) has a last edge back to vertex 0. `mbr` bounds the vertices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chain<'a> {
    verts: &'a [Point],
    closed: bool,
    mbr: Rect,
}

impl<'a> Chain<'a> {
    pub(crate) fn new(verts: &'a [Point], closed: bool, mbr: Rect) -> Self {
        Chain { verts, closed, mbr }
    }

    /// True if an edge of `self` intersects an edge of `other`.
    pub(crate) fn touches(self, other: Chain) -> bool {
        self.any_pair(other, false, |_, _, s, t| touch(s, t))
    }

    /// True if an edge of `self` crosses an edge of `other` properly.
    pub(crate) fn crosses(self, other: Chain) -> bool {
        self.any_pair(other, false, |_, _, s, t| cross(s, t))
    }

    /// True if the ring is not simple. Each edge pair is tested once:
    /// adjacent edges share a vertex, so only a proper crossing is bad;
    /// any other two edges must not even touch.
    pub(crate) fn self_intersects(self) -> bool {
        let n = self.verts.len();
        self.any_pair(self, true, |i, j, s, t| {
            let adjacent = j == i + 1 || (i == 0 && j == n - 1);
            if adjacent {
                cross(s, t)
            } else {
                touch(s, t)
            }
        })
    }

    /// The distance between two chains that share no point: the least
    /// distance from a vertex of either to an edge of the other, since a
    /// closest pair of disjoint segments always includes an endpoint.
    pub(crate) fn distance_apart(self, other: Chain) -> f64 {
        let one_way = |p: Chain, q: Chain| {
            let mut best = f64::INFINITY;
            for i in 0..p.edges() {
                let e = p.edge(i);
                for v in q.verts {
                    best = best.min(e.distance_to_point(v));
                }
            }
            best
        };
        one_way(self, other).min(one_way(other, self))
    }

    #[inline]
    fn edges(&self) -> usize {
        self.verts.len() - usize::from(!self.closed)
    }

    #[inline]
    fn edge(&self, i: usize) -> Segment {
        let j = if i + 1 == self.verts.len() { 0 } else { i + 1 };
        Segment::new(self.verts[i], self.verts[j])
    }

    /// The kernel (DESIGN.md §5l): true if `hit(i, j, s, t)` holds for
    /// some edge pair, `j > i` only if `upper`. `hit` must imply that `s`
    /// and `t` share a point. Such a point lies in both chains' MBRs and
    /// in both edges' boxes, so only edges whose box meets the window
    /// `self.mbr ∩ other.mbr` are walked, and a pair reaches `hit` only
    /// if `t`'s box meets `s`'s box clipped to the window.
    fn any_pair<F>(self, other: Chain, upper: bool, hit: F) -> bool
    where
        F: Fn(usize, usize, &Segment, &Segment) -> bool,
    {
        let Some(window) = self.mbr.intersection(&other.mbr) else {
            return false;
        };
        let meets = |j: &usize| other.edge(*j).bbox().intersects(&window);
        let (mut stack, heap): (_, Vec<u32>);
        let cols: &[u32] = if other.edges() <= STACK_EDGES {
            let mut kept = 0;
            stack = [0u32; STACK_EDGES];
            for j in (0..other.edges()).filter(meets) {
                stack[kept] = j as u32;
                kept += 1;
            }
            &stack[..kept]
        } else {
            heap = (0..other.edges()).filter(meets).map(|j| j as u32).collect();
            &heap
        };
        if cols.is_empty() {
            return false;
        }
        for i in 0..self.edges() {
            let s = self.edge(i);
            let Some(clip) = s.bbox().intersection(&window) else {
                continue;
            };
            for &j in cols {
                let j = j as usize;
                if upper && j <= i {
                    continue;
                }
                let t = other.edge(j);
                if t.bbox().intersects(&clip) && hit(i, j, &s, &t) {
                    return true;
                }
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
    /// then scaled so that cross products sit near 1e-9 (1e-5), or moved
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

    /// `verts` as a chain, bounded by its vertices.
    fn chain_of(verts: &[Point], closed: bool) -> Chain<'_> {
        Chain::new(
            verts,
            closed,
            Rect::bounding(verts.iter().copied()).unwrap(),
        )
    }

    #[test]
    fn kernel_agrees_with_the_nested_loops_it_replaced() {
        // Single pairs the old ±1e-9 orientation codes got wrong: the
        // first two lie 5e-10 above the x-axis, where `s` lies, so they are
        // exactly disjoint (every orientation sign here is a product with a
        // zero factor, exact in floats), though the tolerance called an
        // endpoint collinear with `s` and on it; the third crosses at
        // (5e-7, 0), though the tolerance called two endpoints collinear.
        // In both roles and both directions, so each code takes each of
        // the four positions.
        let pts = |v: &[(f64, f64)]| v.iter().map(|&(x, y)| Point::new(x, y)).collect::<Vec<_>>();
        for (a, b, want) in [
            (
                [(0.0, 0.0), (1.0, 0.0)],
                [(0.5, 5e-10), (10.5, 6e-10)],
                false,
            ),
            ([(0.0, 0.0), (3.0, 0.0)], [(3.0, 5e-10), (3.5, 1.0)], false),
            (
                [(0.0, 0.0), (1e-3, 0.0)],
                [(5e-7, 5e-7), (5e-7, -1e-3)],
                true,
            ),
        ] {
            let (a, b) = (pts(&a), pts(&b));
            let (ra, rb) = ([a[1], a[0]], [b[1], b[0]]);
            for (p, q) in [(&a[..], &b[..]), (&ra, &b), (&a, &rb), (&ra, &rb)] {
                for (p, q) in [(p, q), (q, p)] {
                    let (p, q) = (chain_of(p, false), chain_of(q, false));
                    assert_eq!(
                        any_pair_oracle(p, q, Segment::intersects),
                        want,
                        "{p:?} {q:?}"
                    );
                    assert_eq!(p.touches(q), want, "{p:?} {q:?}");
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
            // lie within 1e-9 of `p`'s, on or off their lines and boxes.
            let qv: Vec<Point> = if round % 3 == 1 {
                let mut nudge = || f64::from(rng.next() % 17) * 1e-10 - 8e-10;
                let kept = pv.iter().enumerate().filter(|(k, _)| k % 3 != 2);
                kept.map(|(_, p)| Point::new(p.x + nudge(), p.y + nudge()))
                    .collect()
            } else {
                chain(&mut rng, m)
            };
            let closed = [rng.next().is_multiple_of(2), rng.next().is_multiple_of(2)];
            let (p, q) = (chain_of(&pv, closed[0]), chain_of(&qv, closed[1]));
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

    /// The orientation of integer points, exactly: `i128` holds the cross
    /// product of any coordinates below 2⁶².
    pub(crate) fn grid_sign(p: (i64, i64), q: (i64, i64), r: (i64, i64)) -> i8 {
        let d = |a: i64, b: i64| i128::from(b) - i128::from(a);
        let cross = d(p.0, q.0) * d(p.1, r.1) - d(p.1, q.1) * d(p.0, r.0);
        cross.signum() as i8
    }

    /// Grid point `k · 2⁻ᵐ`, exact for |k| < 2⁵³ and a normal result.
    fn on_grid((x, y): (i64, i64), m: i32) -> Point {
        assert!(
            x.abs() < 1 << 53 && y.abs() < 1 << 53,
            "({x}, {y}) is not exact"
        );
        let unit = 2f64.powi(-m);
        Point::new(x as f64 * unit, y as f64 * unit)
    }

    #[test]
    fn orientation_is_exact_on_dyadic_grids() {
        // Small integer triples on grids from 2⁰ down to 2⁻⁶⁰, every other
        // one on a 7 × 7 lattice, where collinear triples are common; the
        // sign must not depend on the grid.
        let mut rng = Lcg(0x0D1AD);
        let mut signs = [0usize; 3];
        for round in 0..20_000 {
            let m = round % 61;
            let span = if round % 2 == 0 { 7 } else { 41 };
            let mut k = || i64::from(rng.next() % span) - i64::from(span / 2);
            let (p, q, r) = ((k(), k()), (k(), k()), (k(), k()));
            let want = grid_sign(p, q, r);
            let (fp, fq, fr) = (on_grid(p, m), on_grid(q, m), on_grid(r, m));
            assert_eq!(
                orientation(&fp, &fq, &fr),
                want,
                "{p:?} {q:?} {r:?} at 2^-{m}"
            );
            signs[(want + 1) as usize] += 1;
        }
        assert!(
            signs.iter().all(|&c| c > 1_000),
            "every sign exercised: {signs:?}"
        );
    }

    #[test]
    fn near_degenerate_triples_take_the_exact_fallback() {
        // Collinear triples in the float binade at 1e-5 (ulp 2⁻⁶⁹) and the
        // one near 1e7 (ulp 2⁻²⁹), spanning up to 2⁵⁰ ulps along a nearly
        // diagonal direction, with the third point moved by at most one ulp
        // per axis. The filter cannot certify a zero, nor a sign whose
        // determinant is below its error bound (a move along the line), so
        // both must reach the fallback and come back exact.
        let mut rng = Lcg(0xFA11);
        for (m, base) in [(69, 1e-5), (29, 1e7)] {
            let binade = 1i64 << 52;
            let (mut fallback, mut signed_fallback) = (0, 0);
            for _ in 0..20_000 {
                let mut pick = |n: u32| i64::from(rng.next() % n);
                let a = 1 + pick(1 << 20);
                let d = match pick(4) {
                    0 => (a, a + pick(5) - 2),
                    1 => (-a, -a - pick(5) + 2),
                    2 => (a, -a - pick(5) + 2),
                    _ => (-a, a + pick(5) - 2),
                };
                let mut scale = || (1 + pick(1 << 30)) * if pick(2) == 0 { 1 } else { -1 };
                let (s1, s2) = (scale(), scale());
                let (e0, e1) = (pick(3) - 1, pick(3) - 1);
                let mid = binade + binade / 2;
                let p = (mid + (pick(1 << 30) << 18), mid - (pick(1 << 30) << 18));
                let q = (p.0 + s1 * d.0, p.1 + s1 * d.1);
                let r = (p.0 + s2 * d.0 + e0, p.1 + s2 * d.1 + e1);
                let want = grid_sign(p, q, r);
                let (fp, fq, fr) = (on_grid(p, m), on_grid(q, m), on_grid(r, m));
                assert_eq!(
                    orientation(&fp, &fq, &fr),
                    want,
                    "{p:?} {q:?} {r:?} at 2^-{m}"
                );
                if orientation_filter(&fp, &fq, &fr).is_none() {
                    fallback += 1;
                    signed_fallback += usize::from(want != 0);
                }
            }
            assert!(
                fallback > 2_000 && signed_fallback > 1_000,
                "fallback taken at {base}: {fallback} times, {signed_fallback} with a sign"
            );
        }
    }
}
