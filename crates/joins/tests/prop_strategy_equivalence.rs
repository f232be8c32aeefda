//! The strategy-equivalence matrix: every join of this crate must return
//! exactly the nested-loop reference result on arbitrary workloads. The
//! z-order joins' arm lives with them, in `sj-zorder`'s tests.

use proptest::prelude::*;
use sj_gentree::rtree::{RTree, RTreeConfig};
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::grid::{grid_join, GridConfig};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::tree_join::tree_join;
use sj_joins::{JoinIndex, StoredRelation, TraceSink, TreeRelation};
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
        theta_pick in 0usize..4,
        layout_seed in any::<u64>(),
    ) {
        let theta = [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(6.0),
            ThetaOp::Includes,
            ThetaOp::WithinCenterDistance(10.0),
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

        // Strategy III.
        let (idx, _) = JoinIndex::try_build(&mut p, &r, &s, theta, 8).unwrap();
        let got = sorted(idx.join(&mut p, &r, &s, &mut TraceSink::Null).unwrap().pairs);
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

        // Grid-file join (supports all four operators above).
        let cfg = GridConfig {
            world: Rect::from_bounds(0.0, 0.0, WORLD, WORLD),
            nx: 8,
            ny: 8,
        };
        let got = sorted(grid_join(&mut p, &r, &s, cfg, theta, &mut TraceSink::Null).unwrap().pairs);
        prop_assert_eq!(&got, &reference, "grid join diverges for {:?}", theta);
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
