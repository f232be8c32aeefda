//! Property tests for the hierarchical algorithms: on random R-trees and
//! cartographic hierarchies, SELECT and JOIN must return exactly the
//! nested-loop reference results, and R-tree maintenance must preserve all
//! structural invariants.

use proptest::prelude::*;
use sj_gentree::join::{join_exhaustive, join_flat};
use sj_gentree::rtree::{RTree, RTreeConfig, SplitStrategy};
use sj_gentree::select::{select_dfs_flat, select_exhaustive, select_flat};
use sj_geom::{Direction, Geometry, Point, Rect, ThetaOp};

fn arb_geom() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Geometry::Point(Point::new(x, y))),
        (0.0..95.0f64, 0.0..95.0f64, 0.1..5.0f64, 0.1..5.0f64)
            .prop_map(|(x, y, w, h)| Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))),
    ]
}

fn arb_theta() -> impl Strategy<Value = ThetaOp> {
    prop_oneof![
        (0.1..30.0f64).prop_map(ThetaOp::WithinDistance),
        (0.1..30.0f64).prop_map(ThetaOp::WithinCenterDistance),
        Just(ThetaOp::Overlaps),
        Just(ThetaOp::Includes),
        Just(ThetaOp::ContainedIn),
        Just(ThetaOp::DirectionOf(Direction::NorthWest)),
        Just(ThetaOp::DirectionOf(Direction::East)),
    ]
}

fn arb_config() -> impl Strategy<Value = RTreeConfig> {
    (
        3usize..10,
        prop_oneof![
            Just(SplitStrategy::Linear),
            Just(SplitStrategy::Quadratic),
            Just(SplitStrategy::RStar)
        ],
    )
        .prop_map(|(max, split)| RTreeConfig {
            max_entries: max,
            min_entries: (max / 2).max(1),
            split,
        })
}

fn sorted_ids(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn sorted_pairs(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_select_equals_exhaustive(
        config in arb_config(),
        geoms in prop::collection::vec(arb_geom(), 1..120),
        probe in arb_geom(),
        theta in arb_theta(),
    ) {
        let mut rt = RTree::new(config);
        for (i, g) in geoms.into_iter().enumerate() {
            rt.insert(i as u64, g);
        }
        rt.check_invariants();
        let bfs = sorted_ids(select_flat(rt.tree(), None, &probe, theta, |_| {}).matches);
        let dfs = sorted_ids(select_dfs_flat(rt.tree(), &probe, theta, |_| {}).matches);
        let reference = sorted_ids(select_exhaustive(rt.tree(), &probe, theta).matches);
        prop_assert_eq!(&bfs, &reference, "BFS SELECT diverges for {:?}", theta);
        prop_assert_eq!(&dfs, &reference, "DFS SELECT diverges for {:?}", theta);
    }

    #[test]
    fn rtree_join_equals_exhaustive(
        config_r in arb_config(),
        config_s in arb_config(),
        geoms_r in prop::collection::vec(arb_geom(), 1..60),
        geoms_s in prop::collection::vec(arb_geom(), 1..60),
        theta in arb_theta(),
    ) {
        let mut tr = RTree::new(config_r);
        for (i, g) in geoms_r.into_iter().enumerate() {
            tr.insert(i as u64, g);
        }
        let mut ts = RTree::new(config_s);
        for (i, g) in geoms_s.into_iter().enumerate() {
            ts.insert(1000 + i as u64, g);
        }
        let reference = sorted_pairs(join_exhaustive(tr.tree(), ts.tree(), theta).pairs);
        let sync = sorted_pairs(join_flat(tr.tree(), ts.tree(), theta, |_| {}, |_| {}).pairs);
        prop_assert_eq!(&sync, &reference, "level-sync JOIN diverges for {:?}", theta);
    }

    #[test]
    fn rtree_survives_mixed_insert_delete(
        config in arb_config(),
        ops in prop::collection::vec((any::<bool>(), 0u64..80, arb_geom()), 1..150),
    ) {
        let mut rt = RTree::new(config);
        let mut live = std::collections::HashSet::new();
        for (is_insert, id, g) in ops {
            if is_insert {
                if !live.contains(&id) {
                    rt.insert(id, g);
                    live.insert(id);
                }
            } else {
                let removed = rt.remove(id);
                prop_assert_eq!(removed, live.remove(&id));
            }
            rt.check_invariants();
            prop_assert_eq!(rt.len(), live.len());
        }
        // Everything still findable.
        for &id in &live {
            prop_assert!(rt.get(id).is_some());
        }
    }

    #[test]
    fn bulk_load_equals_incremental_semantics(
        geoms in prop::collection::vec(arb_geom(), 1..150),
        probe in arb_geom(),
    ) {
        let entries: Vec<(u64, Geometry)> =
            geoms.into_iter().enumerate().map(|(i, g)| (i as u64, g)).collect();
        let bulk = RTree::bulk_load(RTreeConfig::with_fanout(6), entries.clone());
        bulk.check_invariants();
        let mut incr = RTree::new(RTreeConfig::with_fanout(6));
        for (id, g) in entries {
            incr.insert(id, g);
        }
        let theta = ThetaOp::WithinDistance(15.0);
        let a = sorted_ids(select_flat(bulk.tree(), None, &probe, theta, |_| {}).matches);
        let b = sorted_ids(select_flat(incr.tree(), None, &probe, theta, |_| {}).matches);
        prop_assert_eq!(a, b);
    }

    /// JOIN never emits duplicates, for any operator and any data.
    #[test]
    fn join_emits_no_duplicates(
        geoms_r in prop::collection::vec(arb_geom(), 1..40),
        geoms_s in prop::collection::vec(arb_geom(), 1..40),
        theta in arb_theta(),
    ) {
        let mut tr = RTree::new(RTreeConfig::with_fanout(4));
        for (i, g) in geoms_r.into_iter().enumerate() {
            tr.insert(i as u64, g);
        }
        let mut ts = RTree::new(RTreeConfig::with_fanout(4));
        for (i, g) in geoms_s.into_iter().enumerate() {
            ts.insert(i as u64, g);
        }
        let pairs = join_flat(tr.tree(), ts.tree(), theta, |_| {}, |_| {}).pairs;
        let mut dedup = pairs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), pairs.len());
    }
}
