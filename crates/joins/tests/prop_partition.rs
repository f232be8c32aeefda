//! The partition join must return exactly the nested-loop reference
//! match set on arbitrary rectangle workloads — including workloads
//! engineered to produce candidate pairs spanning many tiles (the
//! reference-point deduplication case).

use proptest::prelude::*;
use sj_geom::{Direction, Geometry, Rect, ThetaOp};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::{partition_join, StoredRelation, TraceSink};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const WORLD: f64 = 128.0;

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 64)
}

/// Rectangles with extents from degenerate (points) to a large fraction
/// of the world, so candidate pairs routinely straddle tile borders.
fn arb_rect() -> impl Strategy<Value = Geometry> {
    (0.0..WORLD, 0.0..WORLD, 0.0..60.0f64, 0.0..60.0f64).prop_map(|(x, y, w, h)| {
        Geometry::Rect(Rect::from_bounds(
            x,
            y,
            (x + w).min(WORLD),
            (y + h).min(WORLD),
        ))
    })
}

fn arb_tuples(id0: u64) -> impl Strategy<Value = Vec<(u64, Geometry)>> {
    prop::collection::vec(arb_rect(), 1..50).prop_map(move |gs| {
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partition_join_equals_nested_loop(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..8,
    ) {
        // All bounded-filter operators run the sweep-backed tile path;
        // Adjacent and ReachableWithin were added when the plane-sweep
        // kernel landed so its ε-gap rule is exercised at ε = EPSILON
        // and ε = minutes·speed too. The directional operator has no
        // bounded filter region and is served by the nested loop itself.
        let theta = [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(9.0),
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::WithinCenterDistance(14.0),
            ThetaOp::Adjacent,
            ThetaOp::ReachableWithin { minutes: 4.0, speed: 2.0 },
            ThetaOp::DirectionOf(Direction::NorthWest),
        ][theta_pick];

        let mut p = pool();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let reference = sorted(nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);

        let run = partition_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        // No duplicates: the reference-point rule must refine each
        // candidate pair in exactly one tile.
        let raw_len = run.pairs.len();
        let mut got = sorted(run.pairs);
        got.dedup();
        prop_assert_eq!(raw_len, got.len(), "duplicates for {:?}", theta);
        prop_assert_eq!(&got, &reference, "diverges for {:?}", theta);
    }
}
