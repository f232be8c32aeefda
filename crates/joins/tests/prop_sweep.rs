//! Plane-sweep invariants:
//!
//! 1. the forward-scan kernel emits **exactly** the candidate set a
//!    quadratic Θ-filter loop produces, for every bounded-filter
//!    θ-operator, on arbitrary rectangle workloads, and so does
//!    `theta_candidates` for every θ-operator, directional included;
//! 2. the sequential [`sweep_join`] executor returns exactly the
//!    nested-loop reference match set for **every** θ-operator
//!    (directional operators exercise the fallback path);
//! 3. the sweep never examines more pairs than the quadratic filter
//!    (`comparisons ≤ |R|·|S|`).

use proptest::prelude::*;
use sj_geom::sweep::{
    sweep_candidates, sweep_candidates_with, theta_candidates, Kernel, SweepItem,
};
use sj_geom::{Direction, Geometry, Rect, ThetaOp};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::sweep::sweep_join;
use sj_joins::{StoredRelation, TraceSink};
use sj_storage::{BufferPool, Disk, DiskConfig, Layout};

const WORLD: f64 = 128.0;

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 64)
}

/// Rectangles from degenerate (points) to a large fraction of the world.
fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..WORLD, 0.0..WORLD, 0.0..60.0f64, 0.0..60.0f64)
        .prop_map(|(x, y, w, h)| Rect::from_bounds(x, y, (x + w).min(WORLD), (y + h).min(WORLD)))
}

fn arb_rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(arb_rect(), 0..60)
}

/// A coarse-lattice bound: a multiple of 4 in `[-8, 8]`, with zero drawn
/// as `-0.0` or `+0.0`.
fn arb_lattice_bound() -> impl Strategy<Value = f64> {
    (-2i32..=2, any::<bool>()).prop_map(|(k, negative_zero)| {
        if k == 0 && negative_zero {
            -0.0
        } else {
            f64::from(k) * 4.0
        }
    })
}

/// Rectangles on the coarse lattice: equal `lo.x` values repeat within
/// and across sides, and signed zeros meet on every bound.
fn arb_lattice_rect() -> impl Strategy<Value = Rect> {
    let b = arb_lattice_bound;
    (b(), b(), b(), b()).prop_map(|(x0, x1, y0, y1)| {
        let (lo_x, hi_x) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        let (lo_y, hi_y) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        Rect::from_bounds(lo_x, lo_y, hi_x, hi_y)
    })
}

/// One side of a kernel test: the random soup or the tie-heavy lattice.
fn arb_side() -> impl Strategy<Value = Vec<Rect>> {
    prop_oneof![
        arb_rects(),
        prop::collection::vec(arb_lattice_rect(), 0..60)
    ]
}

fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    v
}

/// Checks one kernel's emission against the quadratic filter's sorted
/// candidates `want`: no duplicates, the same set, and at most
/// `|L|·|R|` pairs examined.
fn check_candidates(
    mut got: Vec<(u32, u32)>,
    examined: u64,
    want: &[(u32, u32)],
    all_pairs: usize,
    theta: ThetaOp,
) -> Result<(), TestCaseError> {
    let raw_len = got.len();
    got.sort_unstable();
    got.dedup();
    prop_assert_eq!(
        raw_len,
        got.len(),
        "kernel emitted duplicates for {:?}",
        theta
    );
    prop_assert_eq!(&got[..], want, "candidate sets diverge for {:?}", theta);
    prop_assert!(
        examined <= all_pairs as u64,
        "kernel examined more pairs than quadratic: {} > {}",
        examined,
        all_pairs
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `theta_candidates` (every θ) and, for a bounded filter region,
    /// `sweep_candidates` over ε-expanded left items emit exactly the
    /// quadratic Θ-filter's candidates.
    #[test]
    fn kernel_candidates_equal_quadratic_filter(
        l in arb_side(),
        r in arb_side(),
        theta_pick in 0usize..ALL_OPS.len(),
    ) {
        let theta = ALL_OPS[theta_pick];
        let all_pairs = l.len() * r.len();

        let mut want: Vec<(u32, u32)> = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if theta.filter(a, b) {
                    want.push((i as u32, j as u32));
                }
            }
        }
        want.sort_unstable();

        let mut got: Vec<(u32, u32)> = Vec::new();
        let examined = theta_candidates(&l, &r, theta, &mut |a, b| got.push((a, b)));
        check_candidates(got, examined, &want, all_pairs, theta)?;

        let Some(eps) = theta.filter_radius() else {
            return Ok(());
        };
        let left: Vec<SweepItem> = l
            .iter()
            .enumerate()
            .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
            .collect();
        let right: Vec<SweepItem> = r
            .iter()
            .enumerate()
            .map(|(j, m)| SweepItem::new(j as u32, *m))
            .collect();
        let mut got: Vec<(u32, u32)> = Vec::new();
        let comparisons =
            sweep_candidates(&left, &right, theta, &mut |a, b| got.push((a, b)));
        check_candidates(got, comparisons, &want, all_pairs, theta)?;
    }
}

fn arb_tuples(id0: u64) -> impl Strategy<Value = Vec<(u64, Geometry)>> {
    prop::collection::vec(arb_rect(), 1..50).prop_map(move |gs| {
        gs.into_iter()
            .enumerate()
            .map(|(i, g)| (id0 + i as u64, Geometry::Rect(g)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sweep_join_equals_nested_loop(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..8,
    ) {
        let theta = [
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::WithinDistance(9.0),
            ThetaOp::WithinCenterDistance(14.0),
            ThetaOp::ReachableWithin { minutes: 4.0, speed: 2.0 },
            // Directional: exercises the nested-loop fallback.
            ThetaOp::DirectionOf(Direction::NorthWest),
        ][theta_pick];

        let mut p = pool();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let reference = sorted(nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);

        let run = sweep_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        let raw_len = run.pairs.len();
        let got = sorted(run.pairs);
        prop_assert_eq!(raw_len, got.len(), "duplicates for {:?}", theta);
        prop_assert_eq!(&got, &reference, "sweep join diverges for {:?}", theta);
        // The sweep may not do more filter work than the quadratic filter.
        prop_assert!(
            run.stats.filter_evals <= (r_tuples.len() * s_tuples.len()) as u64,
            "filter_evals {} exceeds |R|·|S| {}",
            run.stats.filter_evals,
            r_tuples.len() * s_tuples.len()
        );
    }
}

/// Every θ-operator, including the directional one (which exercises the
/// batched kernel's scalar fallback — [`ThetaOp::mask_filter`] is `None`
/// — and `theta_candidates`' all-pairs branch) and an infinite radius:
/// its sweep rectangles have `±∞` bounds.
const ALL_OPS: [ThetaOp; 9] = [
    ThetaOp::Overlaps,
    ThetaOp::Includes,
    ThetaOp::ContainedIn,
    ThetaOp::Adjacent,
    ThetaOp::WithinDistance(9.0),
    ThetaOp::WithinDistance(f64::INFINITY),
    ThetaOp::WithinCenterDistance(14.0),
    ThetaOp::ReachableWithin {
        minutes: 4.0,
        speed: 2.0,
    },
    ThetaOp::DirectionOf(Direction::NorthWest),
];

/// Runs one pinned kernel end to end, returning the **raw** emission
/// sequence (order-sensitive, duplicates included) and the comparison
/// count.
fn run_kernel(l: &[Rect], r: &[Rect], theta: ThetaOp, kernel: Kernel) -> (Vec<(u32, u32)>, u64) {
    let eps = theta.filter_radius().unwrap_or(0.0);
    let left: Vec<SweepItem> = l
        .iter()
        .enumerate()
        .map(|(i, m)| SweepItem::expanded(i as u32, *m, eps))
        .collect();
    let right: Vec<SweepItem> = r
        .iter()
        .enumerate()
        .map(|(j, m)| SweepItem::new(j as u32, *m))
        .collect();
    let mut got: Vec<(u32, u32)> = Vec::new();
    let cmp = sweep_candidates_with(&left, &right, theta, kernel, &mut |a, b| got.push((a, b)));
    (got, cmp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched SoA kernel is **byte-identical** to the scalar kernel:
    /// same emission sequence (order included) and same comparison count
    /// for every θ-operator on arbitrary workloads — ragged chunk tails,
    /// empty sides, and the directional fallback included.
    #[test]
    fn batched_kernel_emission_sequence_equals_scalar(
        l in arb_side(),
        r in arb_side(),
        theta_pick in 0usize..ALL_OPS.len(),
    ) {
        let theta = ALL_OPS[theta_pick];
        let scalar = run_kernel(&l, &r, theta, Kernel::Scalar);
        let batched = run_kernel(&l, &r, theta, Kernel::Batched);
        prop_assert_eq!(batched, scalar, "kernels diverge for {:?}", theta);
    }
}
