//! Quantized geometry and the margin-governed refinement predicate.
//!
//! The paper's cost model prices every geometry fetch at `v` bytes per
//! record, so smaller records are directly fewer I/Os. This module stores
//! polygon/polyline vertices quantized to a 16-bit fixed-point grid cell
//! per axis, delta-encoded against the MBR anchor (`mbr.lo`), together
//! with a per-record conservative error bound ε_q — the measured maximum
//! Euclidean displacement any vertex suffers under quantization.
//!
//! [`margin_eval`] is a three-valued refinement predicate over two
//! quantized geometries: it answers [`MarginVerdict::Hit`] or
//! [`MarginVerdict::Miss`] only when the conservative and aggressive
//! bounds (exact-geometry predicate evaluated at quantized coordinates
//! ± ε_q) agree, and [`MarginVerdict::MustDecode`] otherwise, so a
//! definite verdict is *provably* identical to evaluating
//! [`ThetaOp::eval`] on the exact geometries — the soundness arguments
//! are spelled out per rule below. No join executor consults it: every
//! join refines exact geometries, and v2 frames are stored only as
//! paged-tree node records.
//!
//! Soundness inventory (`A`, `B` are the exact geometries; `ma`, `mb`
//! their exact MBRs, which v2 records store losslessly; `e = ε_a + ε_b`;
//! `cd` the minimum distance between the dequantized boundary chains):
//!
//! 1. Points and rectangles are stored losslessly, so pairs of them are
//!    evaluated with the exact θ directly.
//! 2. `d(A, B) ∈ [ma.min_distance(mb), ma.max_distance(mb)]` and the
//!    centerpoint of any geometry lies inside its MBR, giving interval
//!    rules for every distance-flavoured operator and for the strict
//!    centerpoint inequalities of `DirectionOf`.
//! 3. The true boundary chain lies within Hausdorff distance ε_q of the
//!    dequantized chain (each chain point is a convex combination of
//!    vertices displaced by at most ε_q), so
//!    `d(∂A, ∂B) ∈ [cd − e, cd + e]`. Since `∂A ⊆ A`,
//!    `d(A, B) ≤ d(∂A, ∂B) ≤ cd + e` — a Hit rule. For the Miss
//!    direction `d(A, B) = d(∂A, ∂B)` needs the regions (not just the
//!    chains) disjoint: disjoint boundaries allow overlap only by full
//!    containment, which forces MBR containment — so `cd − e > t` is a
//!    Miss only under the no-MBR-containment guard (or when neither
//!    operand has a 2-D interior).
//! 4. Anything not decided by 1–3 is `MustDecode` — always correct,
//!    merely slower.

use crate::geometry::{Bounded, Geometry};
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::theta::{Direction, ThetaOp};
use crate::EPSILON;

/// Grid resolution per axis: cells are `u16`, anchored at `mbr.lo`.
const GRID: f64 = u16::MAX as f64;

/// Shape discriminant of a [`QGeometry`]. Points and rectangles are
/// represented losslessly (by their MBR alone); polygons and polylines
/// carry a dequantized vertex chain and a nonzero error bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QKind {
    Point,
    Rect,
    Polygon,
    Polyline,
}

/// Verdict of the margin test for one candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarginVerdict {
    /// θ certainly holds for the exact geometries.
    Hit,
    /// θ certainly fails for the exact geometries.
    Miss,
    /// The conservative and aggressive bounds disagree: the exact
    /// geometries must be decoded and θ evaluated exactly.
    MustDecode,
}

/// A geometry as reconstructed from a compressed (v2) record: the exact
/// MBR, the dequantized vertices, and the conservative quantization error
/// bound ε_q. Identical whether produced by [`QGeometry::quantize`] or by
/// decoding an encoded v2 record — both run the same dequantization
/// arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct QGeometry {
    mbr: Rect,
    eps: f64,
    kind: QKind,
    /// Dequantized vertex chain; empty for points and rectangles.
    verts: Vec<Point>,
}

impl Bounded for QGeometry {
    #[inline]
    fn mbr(&self) -> Rect {
        self.mbr
    }
}

/// Quantizes `verts` against `mbr`, returning the per-vertex grid cells
/// and the measured error bound ε_q (the maximum Euclidean distance
/// between any vertex and its dequantized image — exact, not estimated,
/// because decoding performs the identical arithmetic).
pub fn quantize_cells(mbr: &Rect, verts: &[Point]) -> (Vec<(u16, u16)>, f64) {
    let sx = mbr.width() / GRID;
    let sy = mbr.height() / GRID;
    let cells: Vec<(u16, u16)> = verts
        .iter()
        .map(|v| {
            let cx = if sx > 0.0 {
                ((v.x - mbr.lo.x) / sx).round().clamp(0.0, GRID) as u16
            } else {
                0
            };
            let cy = if sy > 0.0 {
                ((v.y - mbr.lo.y) / sy).round().clamp(0.0, GRID) as u16
            } else {
                0
            };
            (cx, cy)
        })
        .collect();
    let deq = dequantize(mbr, &cells);
    let eps = verts
        .iter()
        .zip(deq.iter())
        .map(|(v, d)| v.distance(d))
        .fold(0.0, f64::max);
    (cells, eps)
}

/// Reconstructs vertex coordinates from grid cells: `lo + cell · scale`
/// per axis. A degenerate axis (zero extent) decodes exactly to the
/// anchor coordinate.
pub fn dequantize(mbr: &Rect, cells: &[(u16, u16)]) -> Vec<Point> {
    let sx = mbr.width() / GRID;
    let sy = mbr.height() / GRID;
    cells
        .iter()
        .map(|&(cx, cy)| Point::new(mbr.lo.x + cx as f64 * sx, mbr.lo.y + cy as f64 * sy))
        .collect()
}

impl QGeometry {
    /// Quantizes a geometry. Points and rectangles are lossless
    /// (`ε_q = 0`); polygons and polylines get the measured bound from
    /// [`quantize_cells`].
    pub fn quantize(g: &Geometry) -> QGeometry {
        match g {
            Geometry::Point(p) => QGeometry {
                mbr: Rect::from_point(*p),
                eps: 0.0,
                kind: QKind::Point,
                verts: Vec::new(),
            },
            Geometry::Rect(r) => QGeometry {
                mbr: *r,
                eps: 0.0,
                kind: QKind::Rect,
                verts: Vec::new(),
            },
            Geometry::Polygon(p) => {
                let mbr = p.mbr();
                let (cells, eps) = quantize_cells(&mbr, p.vertices());
                QGeometry {
                    mbr,
                    eps,
                    kind: QKind::Polygon,
                    verts: dequantize(&mbr, &cells),
                }
            }
            Geometry::Polyline(l) => {
                let mbr = l.mbr();
                let (cells, eps) = quantize_cells(&mbr, l.vertices());
                QGeometry {
                    mbr,
                    eps,
                    kind: QKind::Polyline,
                    verts: dequantize(&mbr, &cells),
                }
            }
        }
    }

    /// Reassembles a quantized geometry from codec parts. `verts` must be
    /// the dequantized chain for polygons/polylines and empty otherwise.
    pub fn from_parts(kind: QKind, mbr: Rect, eps: f64, verts: Vec<Point>) -> QGeometry {
        QGeometry {
            mbr,
            eps,
            kind,
            verts,
        }
    }

    /// The exact minimum bounding rectangle (stored losslessly).
    #[inline]
    pub fn rect(&self) -> Rect {
        self.mbr
    }

    /// Conservative quantization error bound ε_q.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Shape discriminant.
    #[inline]
    pub fn kind(&self) -> QKind {
        self.kind
    }

    /// Dequantized vertices (empty for points and rectangles).
    #[inline]
    pub fn verts(&self) -> &[Point] {
        &self.verts
    }

    /// True for shapes stored without loss (points and rectangles).
    #[inline]
    fn is_exact_shape(&self) -> bool {
        matches!(self.kind, QKind::Point | QKind::Rect)
    }

    /// True for shapes with empty 2-D interior (points and polylines):
    /// their filled region *is* their chain.
    #[inline]
    fn is_thin(&self) -> bool {
        matches!(self.kind, QKind::Point | QKind::Polyline)
    }

    /// Reconstructs the exact geometry for lossless shapes.
    ///
    /// # Panics
    ///
    /// Panics if called on a quantized polygon/polyline.
    fn exact_geometry(&self) -> Geometry {
        match self.kind {
            QKind::Point => Geometry::Point(self.mbr.lo),
            QKind::Rect => Geometry::Rect(self.mbr),
            _ => panic!("exact_geometry on a lossy shape"),
        }
    }

    /// The boundary chain as segments: the MBR edges for rectangles, a
    /// degenerate segment for points, the closed ring for polygons, the
    /// open chain for polylines.
    fn chain(&self) -> Vec<Segment> {
        match self.kind {
            QKind::Point => vec![Segment::new(self.mbr.lo, self.mbr.lo)],
            QKind::Rect => self.mbr.edges().to_vec(),
            QKind::Polygon => {
                let n = self.verts.len();
                (0..n)
                    .map(|i| Segment::new(self.verts[i], self.verts[(i + 1) % n]))
                    .collect()
            }
            QKind::Polyline => {
                if self.verts.len() < 2 {
                    return vec![Segment::new(self.verts[0], self.verts[0])];
                }
                self.verts
                    .windows(2)
                    .map(|w| Segment::new(w[0], w[1]))
                    .collect()
            }
        }
    }
}

/// Minimum distance between the dequantized boundary chains.
fn chain_distance(a: &QGeometry, b: &QGeometry) -> f64 {
    let ca = a.chain();
    let cb = b.chain();
    let mut best = f64::INFINITY;
    for s in &ca {
        for t in &cb {
            best = best.min(s.distance_to_segment(t));
            if best == 0.0 {
                return 0.0;
            }
        }
    }
    best
}

/// True if either MBR contains the other — the configurations in which
/// disjoint boundaries do *not* imply disjoint filled regions.
#[inline]
fn containment_possible(ma: &Rect, mb: &Rect) -> bool {
    ma.contains_rect(mb) || mb.contains_rect(ma)
}

/// Whether the chain-separation Miss rule applies: either neither operand
/// has a 2-D interior (region = chain), or full containment is ruled out
/// by the exact MBRs.
#[inline]
fn separation_sound(a: &QGeometry, b: &QGeometry) -> bool {
    (a.is_thin() && b.is_thin()) || !containment_possible(&a.mbr, &b.mbr)
}

/// Margin rules shared by every `distance ≤ t` flavoured operator.
fn distance_margin(a: &QGeometry, b: &QGeometry, t: f64) -> MarginVerdict {
    let (ma, mb) = (&a.mbr, &b.mbr);
    // d(A, B) ≥ min_distance(ma, mb); also rejects negative thresholds.
    if ma.min_distance(mb) > t {
        return MarginVerdict::Miss;
    }
    // d(A, B) ≤ max_distance(ma, mb): any point of A is in ma, etc.
    if ma.max_distance(mb) <= t {
        return MarginVerdict::Hit;
    }
    let e = a.eps() + b.eps();
    let cd = chain_distance(a, b);
    // d(A, B) ≤ d(∂A, ∂B) ≤ cd + e.
    if cd + e <= t {
        return MarginVerdict::Hit;
    }
    // cd − e > t ≥ 0 ⟹ true chains disjoint; under the guard the filled
    // regions are then disjoint too and d(A, B) = d(∂A, ∂B) ≥ cd − e.
    if separation_sound(a, b) && cd - e > t {
        return MarginVerdict::Miss;
    }
    MarginVerdict::MustDecode
}

/// Three-valued margin for one strict centerpoint comparison: `Some(true)`
/// when the MBR intervals prove it, `Some(false)` when they refute it,
/// `None` when the centerpoints could fall either way.
fn axis_margin(lo_a: f64, hi_a: f64, lo_b: f64, hi_b: f64) -> Option<bool> {
    if lo_a > hi_b {
        Some(true) // center_a ≥ lo_a > hi_b ≥ center_b, strictly
    } else if hi_a <= lo_b {
        Some(false) // center_a ≤ hi_a ≤ lo_b ≤ center_b: not strict
    } else {
        None
    }
}

fn direction_margin(dir: Direction, ma: &Rect, mb: &Rect) -> MarginVerdict {
    let north = axis_margin(ma.lo.y, ma.hi.y, mb.lo.y, mb.hi.y);
    let south = axis_margin(mb.lo.y, mb.hi.y, ma.lo.y, ma.hi.y);
    let east = axis_margin(ma.lo.x, ma.hi.x, mb.lo.x, mb.hi.x);
    let west = axis_margin(mb.lo.x, mb.hi.x, ma.lo.x, ma.hi.x);
    let conj = |p: Option<bool>, q: Option<bool>| match (p, q) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    };
    let v = match dir {
        Direction::North => north,
        Direction::South => south,
        Direction::East => east,
        Direction::West => west,
        Direction::NorthWest => conj(north, west),
        Direction::NorthEast => conj(north, east),
        Direction::SouthWest => conj(south, west),
        Direction::SouthEast => conj(south, east),
    };
    match v {
        Some(true) => MarginVerdict::Hit,
        Some(false) => MarginVerdict::Miss,
        None => MarginVerdict::MustDecode,
    }
}

/// Margin for `a includes b` over quantized operands (stage-1 lossless
/// pairs never reach here for both operands simultaneously).
fn includes_margin(a: &QGeometry, b: &QGeometry) -> MarginVerdict {
    // B ⊆ A implies mbr(B) ⊆ mbr(A); MBRs are exact.
    if !a.mbr.contains_rect(&b.mbr) {
        return MarginVerdict::Miss;
    }
    match (a.kind, b.kind) {
        // A point includes only a point (that pair is lossless, stage 1).
        (QKind::Point, _) => MarginVerdict::Miss,
        // A 1-D chain can never include a 2-D region.
        (QKind::Polyline, QKind::Rect) | (QKind::Polyline, QKind::Polygon) => MarginVerdict::Miss,
        // Rect ⊇ X is decided entirely by X's exact MBR (convexity) and
        // that containment just held above.
        (QKind::Rect, QKind::Polygon) | (QKind::Rect, QKind::Polyline) => MarginVerdict::Hit,
        _ => MarginVerdict::MustDecode,
    }
}

/// Evaluates the three-valued margin predicate for `op` on two quantized
/// geometries. A `Hit`/`Miss` verdict is guaranteed to match
/// `op.eval(&A, &B)` on the exact geometries; `MustDecode` makes no claim.
pub fn margin_eval(op: &ThetaOp, a: &QGeometry, b: &QGeometry) -> MarginVerdict {
    // Stage 1: both operands stored losslessly — evaluate θ exactly.
    if a.is_exact_shape() && b.is_exact_shape() {
        return if op.eval(&a.exact_geometry(), &b.exact_geometry()) {
            MarginVerdict::Hit
        } else {
            MarginVerdict::Miss
        };
    }
    let (ma, mb) = (&a.mbr, &b.mbr);
    match op {
        ThetaOp::WithinCenterDistance(d) => {
            // Centerpoints lie inside their MBRs (centroid of a polygon is
            // in its convex hull; an arc midpoint is on the chain), so the
            // center distance lies in [min_distance, max_distance]. The
            // centroid itself is NOT ε_q-stable under vertex perturbation,
            // so no chain-level tightening is attempted.
            if ma.max_distance(mb) <= *d {
                MarginVerdict::Hit
            } else if ma.min_distance(mb) > *d {
                MarginVerdict::Miss
            } else {
                MarginVerdict::MustDecode
            }
        }
        ThetaOp::WithinDistance(d) => distance_margin(a, b, *d),
        ThetaOp::ReachableWithin { minutes, speed } => distance_margin(a, b, minutes * speed),
        ThetaOp::Overlaps => {
            if !ma.intersects(mb) {
                return MarginVerdict::Miss;
            }
            let e = a.eps() + b.eps();
            if separation_sound(a, b) && chain_distance(a, b) - e > 0.0 {
                return MarginVerdict::Miss;
            }
            MarginVerdict::MustDecode
        }
        ThetaOp::Includes => includes_margin(a, b),
        ThetaOp::ContainedIn => includes_margin(b, a),
        ThetaOp::DirectionOf(dir) => direction_margin(*dir, ma, mb),
        ThetaOp::Adjacent => {
            // adjacent ⟺ d(A, B) ≤ EPSILON ∧ interiors disjoint.
            if ma.min_distance(mb) > EPSILON {
                return MarginVerdict::Miss;
            }
            let e = a.eps() + b.eps();
            let cd = chain_distance(a, b);
            if separation_sound(a, b) && cd - e > EPSILON {
                return MarginVerdict::Miss;
            }
            // When neither operand has a 2-D interior the interior clause
            // is vacuous and adjacency degenerates to the distance test.
            if a.is_thin() && b.is_thin() && cd + e <= EPSILON {
                return MarginVerdict::Hit;
            }
            MarginVerdict::MustDecode
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polygon::Polygon;
    use crate::polyline::Polyline;

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

    fn chain(pts: &[(f64, f64)]) -> Geometry {
        Geometry::Polyline(
            Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap(),
        )
    }

    #[test]
    fn quantize_preserves_mbr_and_bounds_error() {
        let g = Geometry::Polygon(Polygon::regular(Point::new(5.0, 5.0), 3.0, 9));
        let q = QGeometry::quantize(&g);
        assert_eq!(q.rect(), g.mbr());
        assert_eq!(q.kind(), QKind::Polygon);
        let exact = match &g {
            Geometry::Polygon(p) => p.vertices(),
            _ => unreachable!(),
        };
        for (v, d) in exact.iter().zip(q.verts()) {
            assert!(v.distance(d) <= q.eps() + 1e-15, "vertex beyond eps");
        }
        // 16-bit cells over a 6-unit extent: error well under 1e-3.
        assert!(q.eps() < 1e-3);
    }

    #[test]
    fn points_and_rects_are_lossless() {
        let p = Geometry::Point(Point::new(1.25, -3.5));
        let r = Geometry::Rect(Rect::from_bounds(0.0, 0.0, 2.0, 3.0));
        assert_eq!(QGeometry::quantize(&p).eps(), 0.0);
        assert_eq!(QGeometry::quantize(&r).eps(), 0.0);
        // Stage 1 reproduces the exact θ on such pairs.
        let (qp, qr) = (QGeometry::quantize(&p), QGeometry::quantize(&r));
        for op in [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(0.5),
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
        ] {
            let want = if op.eval(&p, &r) {
                MarginVerdict::Hit
            } else {
                MarginVerdict::Miss
            };
            assert_eq!(margin_eval(&op, &qp, &qr), want, "{op:?}");
        }
    }

    #[test]
    fn degenerate_axis_decodes_exactly() {
        // Horizontal polyline: zero y-extent → y quantization is exact.
        let g = chain(&[(0.0, 2.0), (5.0, 2.0), (9.0, 2.0)]);
        let q = QGeometry::quantize(&g);
        for v in q.verts() {
            assert_eq!(v.y, 2.0);
        }
    }

    #[test]
    fn distance_margin_three_ways() {
        let a = QGeometry::quantize(&square(0.0, 0.0, 1.0));
        let b = QGeometry::quantize(&square(5.0, 0.0, 1.0)); // gap 4
        assert_eq!(
            margin_eval(&ThetaOp::WithinDistance(10.0), &a, &b),
            MarginVerdict::Hit
        );
        assert_eq!(
            margin_eval(&ThetaOp::WithinDistance(1.0), &a, &b),
            MarginVerdict::Miss
        );
        // Threshold right at the gap: MBR bounds bracket it, the chain
        // bound decides (hit: cd + e ≤ 4.001 given tiny eps).
        assert_eq!(
            margin_eval(&ThetaOp::WithinDistance(4.001), &a, &b),
            MarginVerdict::Hit
        );
    }

    #[test]
    fn negative_threshold_is_always_miss() {
        let a = QGeometry::quantize(&square(0.0, 0.0, 1.0));
        assert_eq!(
            margin_eval(&ThetaOp::WithinDistance(-1.0), &a, &a),
            MarginVerdict::Miss
        );
    }

    #[test]
    fn nested_polygons_must_decode_for_distance_zero() {
        // b sits strictly inside a: chains are far apart but d(A,B) = 0.
        // The containment guard must block the chain Miss rule.
        let a = QGeometry::quantize(&square(0.0, 0.0, 10.0));
        let b = QGeometry::quantize(&square(4.0, 4.0, 1.0));
        let v = margin_eval(&ThetaOp::WithinDistance(0.5), &a, &b);
        assert_eq!(v, MarginVerdict::MustDecode);
    }

    #[test]
    fn direction_margin_decides_separated_mbrs() {
        let a = QGeometry::quantize(&square(0.0, 10.0, 1.0));
        let b = QGeometry::quantize(&square(5.0, 0.0, 1.0));
        let nw = ThetaOp::DirectionOf(Direction::NorthWest);
        assert_eq!(margin_eval(&nw, &a, &b), MarginVerdict::Hit);
        assert_eq!(margin_eval(&nw, &b, &a), MarginVerdict::Miss);
    }

    #[test]
    fn includes_margin_rules() {
        let big = QGeometry::quantize(&Geometry::Rect(Rect::from_bounds(0.0, 0.0, 10.0, 10.0)));
        let poly = QGeometry::quantize(&square(2.0, 2.0, 1.0));
        let line = QGeometry::quantize(&chain(&[(1.0, 1.0), (3.0, 3.0)]));
        // Rect ⊇ polygon decided by the exact MBR.
        assert_eq!(
            margin_eval(&ThetaOp::Includes, &big, &poly),
            MarginVerdict::Hit
        );
        assert_eq!(
            margin_eval(&ThetaOp::ContainedIn, &poly, &big),
            MarginVerdict::Hit
        );
        // A chain never includes a region.
        assert_eq!(
            margin_eval(&ThetaOp::Includes, &line, &poly),
            MarginVerdict::Miss
        );
        // MBR non-containment refutes includes outright.
        let far = QGeometry::quantize(&square(50.0, 50.0, 1.0));
        assert_eq!(
            margin_eval(&ThetaOp::Includes, &big, &far),
            MarginVerdict::Miss
        );
    }

    #[test]
    fn verdicts_agree_with_exact_eval() {
        // Dense cross-check: every definite verdict must match θ on the
        // exact geometries, across shapes and operators.
        let geoms = [
            Geometry::Point(Point::new(2.0, 2.0)),
            Geometry::Rect(Rect::from_bounds(0.0, 0.0, 3.0, 3.0)),
            square(1.0, 1.0, 2.5),
            square(7.0, 7.0, 2.0),
            Geometry::Polygon(Polygon::regular(Point::new(4.0, 4.0), 2.0, 7)),
            chain(&[(0.0, 0.0), (2.0, 3.0), (5.0, 1.0)]),
            chain(&[(8.0, 0.0), (8.0, 9.0)]),
        ];
        let ops = [
            ThetaOp::WithinCenterDistance(3.0),
            ThetaOp::WithinDistance(2.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::DirectionOf(Direction::NorthEast),
            ThetaOp::ReachableWithin {
                minutes: 4.0,
                speed: 0.75,
            },
            ThetaOp::Adjacent,
        ];
        let qs: Vec<QGeometry> = geoms.iter().map(QGeometry::quantize).collect();
        for op in &ops {
            for (ga, qa) in geoms.iter().zip(&qs) {
                for (gb, qb) in geoms.iter().zip(&qs) {
                    let exact = op.eval(ga, gb);
                    match margin_eval(op, qa, qb) {
                        MarginVerdict::Hit => {
                            assert!(exact, "false Hit: {op:?} on {ga:?} vs {gb:?}")
                        }
                        MarginVerdict::Miss => {
                            assert!(!exact, "false Miss: {op:?} on {ga:?} vs {gb:?}")
                        }
                        MarginVerdict::MustDecode => {}
                    }
                }
            }
        }
    }
}
