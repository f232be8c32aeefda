//! The parallel partition join must return exactly the nested-loop
//! reference match set on arbitrary rectangle workloads, at every thread
//! count — including workloads engineered to produce candidate pairs
//! spanning many tiles (the reference-point deduplication case).

use proptest::prelude::*;
use sj_geom::{Geometry, Rect, ThetaOp};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::parallel::{partition_join, Parallelism};
use sj_joins::{StoredRelation, TraceSink};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const WORLD: f64 = 128.0;
const THREADS: [usize; 4] = [1, 2, 3, 8];

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
    fn parallel_join_equals_nested_loop(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..7,
    ) {
        // All bounded-filter operators run the sweep-backed tile path;
        // Adjacent and ReachableWithin were added when the plane-sweep
        // kernel landed so its ε-gap rule is exercised at ε = EPSILON
        // and ε = minutes·speed too.
        let theta = [
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(9.0),
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::WithinCenterDistance(14.0),
            ThetaOp::Adjacent,
            ThetaOp::ReachableWithin { minutes: 4.0, speed: 2.0 },
        ][theta_pick];

        let mut p = pool();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let reference = sorted(nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);

        let seq = partition_join(&mut p, &r, &s, theta, Parallelism::sequential(), &mut TraceSink::Null).unwrap();
        for threads in THREADS {
            let run = partition_join(&mut p, &r, &s, theta, Parallelism::with_threads(threads), &mut TraceSink::Null).unwrap();
            // No duplicates: the reference-point rule must refine each
            // candidate pair in exactly one tile.
            let raw_len = run.pairs.len();
            let got = sorted(run.pairs);
            prop_assert_eq!(raw_len, got.len(), "duplicates at {} threads for {:?}", threads, theta);
            prop_assert_eq!(&got, &reference, "{} threads diverge for {:?}", threads, theta);
            // Comparison accounting is thread-invariant.
            prop_assert_eq!(run.stats.filter_evals, seq.stats.filter_evals);
            prop_assert_eq!(run.stats.theta_evals, seq.stats.theta_evals);
        }
    }
}
