//! The strategy-equivalence matrix: every join of this crate must return
//! exactly the nested-loop reference result on arbitrary workloads that
//! mix points, rectangles, polygons and polylines on both sides, under
//! all eight θ. The z-order joins' arm lives with them, in `sj-zorder`'s
//! tests.

use proptest::prelude::*;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Direction, Geometry, Point, Polygon, Polyline, Rect, ThetaOp};
use sj_joins::grid::{grid_join, GridConfig};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::sweep::sweep_join;
use sj_joins::tree_join::tree_join;
use sj_joins::{
    partition_join, JoinIndex, JoinOperands, JoinRequest, StoredRelation, TraceSink, TreeRelation,
};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const WORLD: f64 = 128.0;

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 64)
}

fn arb_geom() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        (0.0..WORLD, 0.0..WORLD).prop_map(|(x, y)| Geometry::Point(Point::new(x, y))),
        (0.0..WORLD - 9.0, 0.0..WORLD - 9.0, 0.1..8.0f64, 0.1..8.0f64)
            .prop_map(|(x, y, w, h)| Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))),
        (4.0..WORLD - 4.0, 4.0..WORLD - 4.0, 0.5..4.0f64, 3usize..9).prop_map(|(x, y, r, n)| {
            Geometry::Polygon(Polygon::regular(Point::new(x, y), r, n))
        }),
        (
            0.0..WORLD - 8.0,
            0.0..WORLD - 8.0,
            prop::collection::vec((0.0..8.0f64, 0.0..8.0f64), 2..5),
        )
            .prop_map(|(x, y, offsets)| {
                let chain = offsets
                    .into_iter()
                    .map(|(dx, dy)| Point::new(x + dx, y + dy));
                Geometry::Polyline(Polyline::new(chain.collect()).unwrap())
            }),
    ]
}

fn arb_tuples(id0: u64) -> impl Strategy<Value = Vec<(u64, Geometry)>> {
    prop::collection::vec(arb_geom(), 1..40).prop_map(move |gs| {
        gs.into_iter()
            .enumerate()
            .map(|(i, g)| (id0 + i as u64, g))
            .collect()
    })
}

fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_strategies_agree(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..8,
        layout_seed in any::<u64>(),
    ) {
        let theta = [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(6.0),
            ThetaOp::Includes,
            ThetaOp::WithinCenterDistance(10.0),
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::ReachableWithin { minutes: 2.0, speed: 3.0 },
            ThetaOp::DirectionOf(Direction::NorthEast),
        ][theta_pick];

        let mut p = pool();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(
            &mut p,
            &s_tuples,
            300,
            Layout::Unclustered { seed: layout_seed },
        );

        let reference = sorted(nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);

        // Sweep and partition: a point or rectangle refined from its MBR
        // scan entry, a polygon or polyline fetched.
        let got = sorted(sweep_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);
        prop_assert_eq!(&got, &reference, "sweep join diverges for {:?}", theta);
        let partition = partition_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        let got = sorted(partition.pairs);
        prop_assert_eq!(&got, &reference, "partition join diverges for {:?}", theta);

        // Strategy II (both layouts) over bulk-loaded R-trees.
        for layout in [Layout::Clustered, Layout::Unclustered { seed: layout_seed }] {
            let tr = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(5), r_tuples.clone()).tree().clone(),
                300,
                layout,
            );
            let ts = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(4), s_tuples.clone()).tree().clone(),
                300,
                layout,
            );
            let got = sorted(tree_join(&mut p, &tr, &ts, theta, &mut TraceSink::Null).unwrap().pairs);
            prop_assert_eq!(&got, &reference, "tree join ({:?}) diverges for {:?}", layout, theta);
        }

        // Strategy III: built by the partition join, so its build does
        // exactly that join's θ-work; it answers in key order.
        let (idx, build) = JoinIndex::try_build(&mut p, &r, &s, theta, 8).unwrap();
        prop_assert_eq!(
            build.theta_evals,
            partition.stats.theta_evals,
            "join-index build θ-work for {:?}",
            theta
        );
        let got = idx.join(&mut p, &r, &s, &mut TraceSink::Null).unwrap().pairs;
        prop_assert_eq!(&got, &reference, "join index diverges for {:?}", theta);

        // Local join indices at two anchor levels.
        for level in [1usize, 2] {
            let tr = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(5), r_tuples.clone()).tree().clone(),
                300,
                Layout::Clustered,
            );
            let ts = TreeRelation::new(
                &mut p,
                RTree::bulk_load(RTreeConfig::with_fanout(5), s_tuples.clone()).tree().clone(),
                300,
                Layout::Clustered,
            );
            let (idx, _) = sj_joins::LocalJoinIndex::try_build(&mut p, &tr, &ts, theta, level, 16).unwrap();
            let got = idx.join(&mut p, &mut TraceSink::Null).unwrap().pairs;
            prop_assert_eq!(&got, &reference, "local join index (L={}) diverges for {:?}", level, theta);
        }

        // Grid-file join (every θ with a bounded filter region).
        if theta.filter_radius().is_some() {
            let cfg = GridConfig {
                world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
                nx: 8,
                ny: 8,
            };
            let got = sorted(grid_join(&mut p, &r, &s, cfg, theta, &mut TraceSink::Null).unwrap().pairs);
            prop_assert_eq!(&got, &reference, "grid join diverges for {:?}", theta);
        }
    }

    /// Join-index maintenance keeps the index equal to a fresh rebuild.
    #[test]
    fn incremental_maintenance_equals_rebuild(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        extra in arb_geom(),
    ) {
        let theta = ThetaOp::WithinDistance(8.0);
        let mut p = pool();
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);

        // Incremental: build on R, then insert one more R tuple.
        let r_small = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let (mut idx, _) = JoinIndex::try_build(&mut p, &r_small, &s, theta, 8).unwrap();
        let new_id = 5_000u64;
        idx.maintain_insert_r(&mut p, new_id, &extra, &s).unwrap();

        // Rebuild from scratch on R ∪ {new}.
        let mut r_all_tuples = r_tuples.clone();
        r_all_tuples.push((new_id, extra.clone()));
        let r_all = StoredRelation::build(&mut p, &r_all_tuples, 300, Layout::Clustered);
        let (idx_fresh, _) = JoinIndex::try_build(&mut p, &r_all, &s, theta, 8).unwrap();

        let a = sorted(idx.join(&mut p, &r_all, &s, &mut TraceSink::Null).unwrap().pairs);
        let b = sorted(idx_fresh.join(&mut p, &r_all, &s, &mut TraceSink::Null).unwrap().pairs);
        prop_assert_eq!(a, b);
    }
}

/// Two triangles whose MBRs are 0.4 apart and whose facing edges are
/// nearly collinear: `(0,0)–(1,0)` and `(1.4,0)–(2.4,2e-9)`. No θ may see
/// them touch, so every strategy — the nested loop without a filter, the
/// others behind Θ — returns the same pairs under all eight operators.
#[test]
fn all_strategies_agree_on_nearly_collinear_triangles() {
    use sj_joins::Strategy;
    let tri = |id: u64, pts: [(f64, f64); 3]| {
        let ring = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        vec![(id, Geometry::Polygon(Polygon::new(ring).unwrap()))]
    };
    let r_tuples = tri(1, [(0.0, 0.0), (1.0, 0.0), (0.5, -1.0)]);
    let s_tuples = tri(2, [(1.4, 0.0), (2.4, 2e-9), (1.9, 1.0)]);
    let mut p = pool();
    let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
    let tree = |p: &mut BufferPool, tuples: Vec<(u64, Geometry)>| {
        let rtree = RTree::bulk_load(RTreeConfig::with_fanout(4), tuples);
        TreeRelation::new(p, rtree.tree().clone(), 300, Layout::Clustered)
    };
    let (tr, ts) = (tree(&mut p, r_tuples), tree(&mut p, s_tuples));
    let ops =
        JoinOperands::flat(&r, &s, Rect::from_bounds(0.0, -1.0, 3.0, 1.0)).with_trees(&tr, &ts);
    for theta in [
        ThetaOp::WithinCenterDistance(0.1),
        ThetaOp::WithinDistance(0.1),
        ThetaOp::Overlaps,
        ThetaOp::Includes,
        ThetaOp::ContainedIn,
        ThetaOp::DirectionOf(Direction::West),
        ThetaOp::ReachableWithin {
            minutes: 0.1,
            speed: 1.0,
        },
        ThetaOp::Adjacent,
    ] {
        let mut run = |strategy: Strategy| {
            let mut exec = strategy.executor(&ops).unwrap();
            sorted(exec.execute(&JoinRequest::new(theta), &mut p).pairs)
        };
        let want = run(Strategy::NestedLoop);
        for strategy in [
            Strategy::Sweep,
            Strategy::Tree,
            Strategy::JoinIndex,
            Strategy::Partition,
        ] {
            assert_eq!(run(strategy), want, "{strategy:?} under {theta:?}");
        }
        let west = theta == ThetaOp::DirectionOf(Direction::West);
        assert_eq!(want.len(), usize::from(west), "{theta:?}: {want:?}");
    }
}
