//! The z-order joins of §2.2 — Orenstein's sort-merge and the z-value
//! index — against `sj-joins`' nested-loop reference, over the overlap
//! family they answer:
//!
//! 1. both return exactly the reference match set on arbitrary workloads;
//! 2. their per-phase deltas sum exactly to the run totals, and a
//!    Vec-traced run equals an untraced one;
//! 3. with deterministic fault injection armed they are fail-stop: an
//!    `Ok` run is the fault-free result, an `Err` a typed error.

use proptest::prelude::*;
use sj_geom::{Geometry, Point, Rect, ThetaOp};
use sj_joins::nested_loop::nested_loop_join;
use sj_joins::{JoinRun, StoredRelation, TraceSink};
use sj_storage::{BufferPool, Disk, DiskConfig, FaultConfig, FaultInjector, Layout};
use sj_zorder::sort_merge::zorder_overlap_join;
use sj_zorder::{ZGrid, ZIndex};

const WORLD: f64 = 128.0;

/// The operators whose Θ-filter is MBR overlap.
const OVERLAP_FAMILY: [ThetaOp; 3] = [ThetaOp::Overlaps, ThetaOp::Includes, ThetaOp::ContainedIn];

fn pool() -> BufferPool {
    BufferPool::new(Disk::new(DiskConfig::paper()), 64)
}

fn grid() -> ZGrid {
    ZGrid::new(Rect::from_bounds(0.0, 0.0, WORLD, WORLD), 5)
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

/// The sort-merge join, or the z-value index built on `r` and probed
/// with `s`, on `pool` — the index build runs on it too, so a fault
/// there aborts the run like any other read.
fn run_join(
    index: bool,
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, sj_storage::StorageError> {
    if index {
        ZIndex::try_build(pool, r, grid(), 16)?.join(pool, r, s, theta, trace)
    } else {
        zorder_overlap_join(pool, r, s, &grid(), theta, trace)
    }
}

fn label(index: bool) -> &'static str {
    if index {
        "z-index join"
    } else {
        "z-order sort-merge"
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn zorder_joins_agree_trace_and_phase_sum(
        r_tuples in arb_tuples(0),
        s_tuples in arb_tuples(10_000),
        theta_pick in 0usize..3,
        layout_seed in any::<u64>(),
    ) {
        let theta = OVERLAP_FAMILY[theta_pick];
        let mut p = pool();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(
            &mut p,
            &s_tuples,
            300,
            Layout::Unclustered { seed: layout_seed },
        );
        let reference = sorted(nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap().pairs);

        for index in [false, true] {
            p.clear();
            p.reset_stats();
            let run = run_join(index, &mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
            prop_assert_eq!(
                sorted(run.pairs.clone()), reference.clone(),
                "{} diverges for {:?}", label(index), theta
            );
            prop_assert_eq!(run.phases.total(), run.stats, "{} phase sums diverge", label(index));

            p.clear();
            p.reset_stats();
            let mut sink = TraceSink::vec();
            let traced = run_join(index, &mut p, &r, &s, theta, &mut sink).unwrap();
            prop_assert_eq!(&run.pairs, &traced.pairs, "{} trace perturbed pairs", label(index));
            prop_assert_eq!(run.stats, traced.stats, "{} trace perturbed stats", label(index));
            prop_assert_eq!(run.phases, traced.phases, "{} trace perturbed phases", label(index));
            prop_assert!(!sink.events().is_empty(), "{} emitted no spans", label(index));
        }
    }
}

#[test]
fn zorder_joins_are_fail_stop_under_injected_faults() {
    let lattice = |id0: u64| -> Vec<(u64, Geometry)> {
        let at = |i: u64| ((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0);
        let cell = |(x, y): (f64, f64)| Rect::from_bounds(x, y, x + 6.0, y + 6.0);
        (0..25)
            .map(|i| (id0 + i, Geometry::Rect(cell(at(i)))))
            .collect()
    };
    let mut p = BufferPool::new(Disk::new(DiskConfig::paper()), 128);
    let r = StoredRelation::build(&mut p, &lattice(0), 300, Layout::Clustered);
    let s = StoredRelation::build(&mut p, &lattice(500), 300, Layout::Clustered);
    let (mut faulted, mut survived, mut combo) = (0u64, 0u64, 0u64);
    for theta in OVERLAP_FAMILY {
        for index in [false, true] {
            let want = sorted(
                run_join(index, &mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            for rate in [0.02, 0.08] {
                for seed in [1u64, 2, 3] {
                    combo += 1;
                    p.set_fault_injector(Some(FaultInjector::new(FaultConfig::uniform(
                        seed.wrapping_add(combo.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                        rate,
                    ))));
                    // Evict everything so the run performs physical reads.
                    p.clear();
                    match run_join(index, &mut p, &r, &s, theta, &mut TraceSink::Null) {
                        Ok(run) => {
                            survived += 1;
                            assert_eq!(sorted(run.pairs), want, "{} under {theta:?}", label(index));
                        }
                        Err(e) => {
                            faulted += 1;
                            assert!(!e.kind().is_empty(), "errors must be typed, got {e:?}");
                        }
                    }
                    p.set_fault_injector(None);
                }
            }
        }
    }
    assert!(faulted > 0, "injection rates must actually abort some runs");
    assert!(survived > 0, "low rates must let some runs complete");
}
