//! The read path's work, pinned: one seeded dataset per geometry class,
//! one SELECT and the sweep / partition / tree joins, each on a fresh
//! cold `fork_view(32)` as the service runs them. A change below the
//! executors (how a view is forked, how record bytes are lent, how the
//! page map hashes) may move cycles, never one of these.
//!
//! The numbers are what the commit *before* the read path stopped
//! copying produced, with one deliberate exception: the sweep and
//! partition rows of the points × rects dataset moved when refinement
//! began rebuilding points and rectangles from the MBR scan instead of
//! reading them again (`[2249, 1385, …]` → `[1200, 400, …]` and
//! `[2286, 1409, …]` → `[1200, 400, …]`: only the scans' reads remain).

use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Point, Polygon, Rect, ThetaOp};
use sj_joins::sweep::sweep_join;
use sj_joins::tree_join::{tree_join, tree_select, TraversalOrder};
use sj_joins::{partition_join, ExecStats, StoredRelation, TraceSink, TreeRelation};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

/// SplitMix64, so the data never moves with the workspace's `rand` shim.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

const WORLD: f64 = 200.0;

type Tuples = Vec<(u64, Geometry)>;

fn points_and_rects() -> (Tuples, Tuples) {
    let mut rng = Rng(0xC0FFEE);
    let r = (0..900u64)
        .map(|id| {
            let p = Point::new(rng.range(0.0, WORLD), rng.range(0.0, WORLD));
            (id, Geometry::Point(p))
        })
        .collect();
    let s = (0..300u64)
        .map(|i| {
            let (x, y) = (rng.range(0.0, WORLD - 12.0), rng.range(0.0, WORLD - 12.0));
            let (w, h) = (rng.range(0.5, 12.0), rng.range(0.5, 12.0));
            let rect = Rect::from_bounds(x, y, x + w, y + h);
            (10_000 + i, Geometry::Rect(rect))
        })
        .collect();
    (r, s)
}

fn polygons() -> (Tuples, Tuples) {
    let mut rng = Rng(0x9017);
    let mut side = |n: u64, id0: u64| -> Tuples {
        (0..n)
            .map(|i| {
                let c = Point::new(rng.range(10.0, WORLD - 10.0), rng.range(10.0, WORLD - 10.0));
                let sides = [8, 12, 16][(rng.next() % 3) as usize];
                let poly = Polygon::regular(c, rng.range(2.0, 9.0), sides);
                (id0 + i, Geometry::Polygon(poly))
            })
            .collect()
    };
    (side(360, 0), side(120, 10_000))
}

/// `[logical_reads, physical_reads, filter_evals, theta_evals,
/// decoded_exact]` of one run.
fn counters(s: &ExecStats) -> [u64; 5] {
    [
        s.logical_reads,
        s.physical_reads,
        s.filter_evals,
        s.theta_evals,
        s.decoded_exact,
    ]
}

/// Runs the SELECT and the three joins, each on its own cold 32-frame
/// view of the pool the relations were built on.
fn run_all(
    r: &[(u64, Geometry)],
    s: &[(u64, Geometry)],
    theta: ThetaOp,
    compressed: bool,
) -> [[u64; 5]; 4] {
    let mut pool = BufferPool::new(Disk::new(DiskConfig::paper()), 64);
    let layout = Layout::Clustered;
    let (r_rel, s_rel, r_tree, s_tree);
    let (rt, st) = (
        RTree::bulk_load(RTreeConfig::with_fanout(8), r.to_vec()),
        RTree::bulk_load(RTreeConfig::with_fanout(8), s.to_vec()),
    );
    if compressed {
        let (qr, qs) = (
            StoredRelation::quant_record_size_for(r),
            StoredRelation::quant_record_size_for(s),
        );
        r_rel = StoredRelation::build_compressed(&mut pool, r, 480, qr, layout);
        s_rel = StoredRelation::build_compressed(&mut pool, s, 480, qs, layout);
        r_tree = TreeRelation::new_compressed(&mut pool, rt.shared_tree().clone(), 0, layout);
        s_tree = TreeRelation::new_compressed(&mut pool, st.shared_tree().clone(), 0, layout);
    } else {
        r_rel = StoredRelation::build(&mut pool, r, 480, layout);
        s_rel = StoredRelation::build(&mut pool, s, 480, layout);
        r_tree = TreeRelation::new(&mut pool, rt.shared_tree().clone(), 480, layout);
        s_tree = TreeRelation::new(&mut pool, st.shared_tree().clone(), 480, layout);
    }

    let probe = Geometry::Rect(Rect::from_bounds(60.0, 60.0, 110.0, 100.0));
    let order = TraversalOrder::BreadthFirst;
    let select = tree_select(
        &mut pool.fork_view(32),
        &r_tree,
        &probe,
        ThetaOp::Overlaps,
        order,
    )
    .unwrap();
    assert!(!select.matches.is_empty());

    let null = &mut TraceSink::Null;
    let sweep = sweep_join(&mut pool.fork_view(32), &r_rel, &s_rel, theta, null).unwrap();
    let part = partition_join(&mut pool.fork_view(32), &r_rel, &s_rel, theta, null).unwrap();
    let tree = tree_join(&mut pool.fork_view(32), &r_tree, &s_tree, theta, null).unwrap();
    let sorted = |mut v: Vec<(u64, u64)>| {
        v.sort_unstable();
        v
    };
    let want = sorted(sweep.pairs);
    assert!(!want.is_empty());
    assert_eq!(sorted(part.pairs), want);
    assert_eq!(sorted(tree.pairs), want);
    [
        counters(&select.stats),
        counters(&sweep.stats),
        counters(&part.stats),
        counters(&tree.stats),
    ]
}

#[test]
fn points_by_rects_counters_are_pinned() {
    let (r, s) = points_and_rects();
    let got = run_all(&r, &s, ThetaOp::WithinDistance(5.0), false);
    let want = [
        [98, 35, 98, 39, 0],
        [1200, 400, 22144, 1642, 0],
        [1200, 400, 12055, 1642, 0],
        [9251, 751, 18223, 1642, 0],
    ];
    assert_eq!(got, want);
}

#[test]
fn exact_polygon_counters_are_pinned() {
    let (r, s) = polygons();
    let got = run_all(&r, &s, ThetaOp::Overlaps, false);
    let want = [
        [103, 37, 103, 32, 0],
        [878, 492, 5142, 644, 0],
        [901, 506, 3170, 644, 0],
        [2848, 214, 5531, 644, 0],
    ];
    assert_eq!(got, want);
}

#[test]
fn compressed_polygon_counters_are_pinned() {
    let (r, s) = polygons();
    let got = run_all(&r, &s, ThetaOp::Overlaps, true);
    let want = [
        [103, 12, 103, 32, 0],
        [1240, 738, 5142, 644, 482],
        [1284, 762, 3170, 644, 482],
        [2848, 43, 5531, 644, 0],
    ];
    assert_eq!(got, want);
}
