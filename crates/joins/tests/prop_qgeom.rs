//! Properties of the compressed-geometry (v2) subsystem:
//!
//! 1. Every geometry kind round-trips through `encode_qrecord` /
//!    `try_decode_qrecord` to exactly the in-memory quantization
//!    ([`QGeometry::quantize`]), with the exact MBR preserved and every
//!    original vertex within the record's own error bound ε_q —
//!    including degenerate chains (identical vertices, axis-aligned
//!    slivers) where a zero-extent axis must decode exactly.
//! 2. Joins over compressed operands are **byte-identical** to the
//!    exact path across all eight θ-operators and the Θ-filtered
//!    executors. There is one refine path: sweep and partition over
//!    relations from `StoredRelation::build_compressed` match the exact
//!    runs in every `ExecStats` counter, reads included. The tree join
//!    over a quantized [`TreeRelation`] charges `theta_evals`
//!    identically — its node codec may only move `physical_reads`.
//! 3. Per-phase deltas still sum to the run totals (the `seal`
//!    invariant) on compressed executor runs.

use proptest::prelude::*;
use proptest::Strategy as _;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::codec::{encode_qrecord, encoded_qlen, try_decode_qrecord};
use sj_geom::{Bounded, Direction, Geometry, Point, Polygon, Polyline, QGeometry, Rect, ThetaOp};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::partition_join;
use sj_joins::sweep::sweep_join;
use sj_joins::tree_join::tree_join;
use sj_joins::{JoinOperands, JoinRequest, StoredRelation, Strategy, TraceSink, TreeRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const WORLD: f64 = 128.0;

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 96)
}

fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

/// All eight θ-operators of the paper's Table 1.
const ALL_THETAS: [ThetaOp; 8] = [
    ThetaOp::Overlaps,
    ThetaOp::Includes,
    ThetaOp::ContainedIn,
    ThetaOp::WithinDistance(6.0),
    ThetaOp::WithinCenterDistance(10.0),
    ThetaOp::Adjacent,
    ThetaOp::ReachableWithin {
        minutes: 4.0,
        speed: 2.0,
    },
    ThetaOp::DirectionOf(Direction::NorthWest),
];

/// Every geometry kind, sized to stay inside the world box. Polygons are
/// regular k-gons (guaranteed simple); polylines are arbitrary chains,
/// including near-degenerate ones when the coordinate ranges collapse.
fn arb_geom() -> impl proptest::Strategy<Value = Geometry> {
    let point = (0.0..WORLD, 0.0..WORLD).prop_map(|(x, y)| Geometry::Point(Point::new(x, y)));
    let rect = (
        0.0..WORLD - 9.0,
        0.0..WORLD - 9.0,
        0.001..8.0f64,
        0.001..8.0f64,
    )
        .prop_map(|(x, y, w, h)| Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h)));
    let polygon = (8.0..WORLD - 8.0, 8.0..WORLD - 8.0, 0.05..6.0f64, 3usize..12)
        .prop_map(|(x, y, r, k)| Geometry::Polygon(Polygon::regular(Point::new(x, y), r, k)));
    let polyline = prop::collection::vec((0.0..WORLD, 0.0..WORLD), 2..8).prop_map(|pts| {
        let verts = pts.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        Geometry::Polyline(Polyline::new(verts).expect("two or more vertices"))
    });
    prop_oneof![point, rect, polygon, polyline]
}

fn arb_tuples(id0: u64) -> impl proptest::Strategy<Value = Vec<(u64, Geometry)>> {
    prop::collection::vec(arb_geom(), 1..24).prop_map(move |gs| {
        gs.into_iter()
            .enumerate()
            .map(|(i, g)| (id0 + i as u64, g))
            .collect()
    })
}

/// Round-trip one geometry through the v2 codec and check the ε_q
/// contract. Returns the decoded record for further inspection.
fn roundtrip(id: u64, g: &Geometry) -> QGeometry {
    let frame = encode_qrecord(id, g, encoded_qlen(g));
    let (got_id, q) = try_decode_qrecord(&frame).expect("own encoding decodes");
    assert_eq!(got_id, id);
    assert_eq!(q, QGeometry::quantize(g), "decode ≠ in-memory quantization");
    assert_eq!(q.rect(), g.mbr(), "the exact MBR must be stored losslessly");
    assert!(q.eps().is_finite() && q.eps() >= 0.0);
    // ε_q is conservative: every original vertex sits within ε_q of its
    // dequantized image (with a hair of slack for the fold itself).
    let originals: &[Point] = match g {
        Geometry::Polygon(p) => p.vertices(),
        Geometry::Polyline(l) => l.vertices(),
        _ => &[],
    };
    for (v, d) in originals.iter().zip(q.verts()) {
        assert!(
            v.distance(d) <= q.eps() + 1e-12,
            "vertex {v:?} strays {} > ε_q {}",
            v.distance(d),
            q.eps()
        );
    }
    // The bound is also *tight enough to be useful*: at most half a grid
    // diagonal. (u16 grid → scale = extent / 65535 per axis.)
    let diag = (q.rect().width().powi(2) + q.rect().height().powi(2)).sqrt();
    assert!(
        q.eps() <= diag / 65535.0 + 1e-12,
        "ε_q {} exceeds one grid diagonal {}",
        q.eps(),
        diag / 65535.0
    );
    q
}

#[test]
fn degenerate_chains_roundtrip_exactly() {
    // Two identical vertices: both axes have zero extent, so decoding
    // must reproduce the anchor exactly and ε_q must be zero.
    let twin = Geometry::Polyline(
        Polyline::new(vec![Point::new(41.5, 7.25), Point::new(41.5, 7.25)]).unwrap(),
    );
    let q = roundtrip(3, &twin);
    assert_eq!(q.eps(), 0.0, "zero-extent chain must be lossless");
    assert_eq!(q.verts(), &[Point::new(41.5, 7.25), Point::new(41.5, 7.25)]);

    // Axis-aligned sliver: one degenerate axis decodes exactly, the
    // other still quantizes.
    let sliver = Geometry::Polyline(
        Polyline::new(vec![
            Point::new(10.0, 3.0),
            Point::new(10.0, 90.0),
            Point::new(10.0, 17.0),
        ])
        .unwrap(),
    );
    let q = roundtrip(4, &sliver);
    for v in q.verts() {
        assert_eq!(v.x, 10.0, "degenerate x-axis must decode exactly");
    }

    // A long, thin polygon sliver (simple, barely nonzero area).
    let thin = Geometry::Polygon(
        Polygon::new(vec![
            Point::new(1.0, 1.0),
            Point::new(100.0, 1.001),
            Point::new(100.0, 1.002),
        ])
        .unwrap(),
    );
    roundtrip(5, &thin);

    // Points and rectangles ride v1 tags inside v2 files: lossless.
    let q = roundtrip(6, &Geometry::Point(Point::new(0.125, 99.875)));
    assert_eq!(q.eps(), 0.0);
    let q = roundtrip(
        7,
        &Geometry::Rect(Rect::from_bounds(3.5, 2.25, 88.125, 90.0)),
    );
    assert_eq!(q.eps(), 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qrecords_roundtrip_within_eps(g in arb_geom(), id in 0u64..1_000_000) {
        roundtrip(id, &g);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Properties 2 and 3: compressed operands answer every θ-operator
    /// byte-identically on every Θ-filtered executor; sweep and
    /// partition do the exact runs' work, counter for counter.
    #[test]
    fn compressed_joins_are_byte_identical(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..8,
    ) {
        let theta = ALL_THETAS[theta_pick];
        let world = Rect::from_bounds(0.0, 0.0, WORLD, WORLD);
        let mut p = pool();

        let re = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let se = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let qr = StoredRelation::quant_record_size_for(&r_tuples);
        let qs = StoredRelation::quant_record_size_for(&s_tuples);
        let rc = StoredRelation::build_compressed(&mut p, &r_tuples, 300, qr, Layout::Clustered);
        let sc = StoredRelation::build_compressed(&mut p, &s_tuples, 300, qs, Layout::Clustered);

        let r_rt = RTree::bulk_load(RTreeConfig::with_fanout(5), r_tuples.clone());
        let s_rt = RTree::bulk_load(RTreeConfig::with_fanout(4), s_tuples.clone());
        let te_r = TreeRelation::new(&mut p, r_rt.tree().clone(), 300, Layout::Clustered);
        let te_s = TreeRelation::new(&mut p, s_rt.tree().clone(), 300, Layout::Clustered);
        let tc_r = TreeRelation::new_compressed(&mut p, r_rt.tree().clone(), 0, Layout::Clustered);
        let tc_s = TreeRelation::new_compressed(&mut p, s_rt.tree().clone(), 0, Layout::Clustered);
        prop_assert!(tc_r.is_compressed() && tc_s.is_compressed());

        p.clear();
        p.reset_stats();
        let reference = sorted(nested_loop_join(&mut p, &re, &se, theta, &mut TraceSink::Null).unwrap().pairs);

        // Sweep and partition: one refine path, so the compressed runs
        // are the exact runs — same pairs in the same order, and every
        // counter equal, reads and the always-zero margin counters
        // included.
        p.clear();
        let exact = sweep_join(&mut p, &re, &se, theta, &mut TraceSink::Null).unwrap();
        p.clear();
        let comp = sweep_join(&mut p, &rc, &sc, theta, &mut TraceSink::Null).unwrap();
        prop_assert_eq!(&exact.pairs, &comp.pairs, "sweep diverges under {:?}", theta);
        prop_assert_eq!(sorted(comp.pairs.clone()), reference.clone());
        prop_assert_eq!(exact.stats, comp.stats, "sweep work differs under {:?}", theta);

        p.clear();
        let pe = partition_join(&mut p, &re, &se, theta, &mut TraceSink::Null).unwrap();
        p.clear();
        let pc = partition_join(&mut p, &rc, &sc, theta, &mut TraceSink::Null).unwrap();
        prop_assert_eq!(&pe.pairs, &pc.pairs, "partition diverges under {:?}", theta);
        prop_assert_eq!(pe.stats, pc.stats, "partition work differs under {:?}", theta);

        // Tree join over quantized node pages: θ-evals run on the
        // in-memory generalization tree, so the record codec may only
        // shrink I/O — never perturb matches or the θ-charge.
        p.clear();
        let je = tree_join(&mut p, &te_r, &te_s, theta, &mut TraceSink::Null).unwrap();
        p.clear();
        let jc = tree_join(&mut p, &tc_r, &tc_s, theta, &mut TraceSink::Null).unwrap();
        prop_assert_eq!(&je.pairs, &jc.pairs, "tree join diverges under {:?}", theta);
        prop_assert_eq!(je.stats.theta_evals, jc.stats.theta_evals);

        // Property 3 (seal invariant on compressed runs): executor-surface
        // runs over compressed operands still sum phase deltas exactly.
        let ops = JoinOperands::flat(&rc, &sc, world).with_trees(&tc_r, &tc_s);
        for strat in [Strategy::Sweep, Strategy::Partition, Strategy::Tree] {
            let mut exec = strat.executor(&ops).expect("operands present");
            p.clear();
            p.reset_stats();
            let run = exec.execute(&JoinRequest::new(theta), &mut p);
            prop_assert_eq!(
                run.phases.total(), run.stats,
                "phase sums diverge for compressed {} under {:?}", strat.name(), theta
            );
            prop_assert_eq!(sorted(run.pairs.clone()), reference.clone());
        }
    }
}
