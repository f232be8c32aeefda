//! Sequential plane-sweep join: the forward-scan filter of
//! [`sj_geom::sweep`] applied to whole stored relations.
//!
//! [`sweep_join`] is strategy I's drop-in replacement for the filter
//! step: one MBR-extraction scan per relation, one `O(n log n + k)`
//! forward scan instead of the `O(n·m)` all-pairs Θ-filter, and a
//! refinement that reads only the polygons and polylines it needs. It
//! has the same signature and returns exactly the same match set as
//! [`nested_loop_join`](crate::nested_loop::nested_loop_join) for every
//! θ-operator (property-tested), so the cost-model and bench layers can
//! compare strategy I against the sweep directly. Directional predicates
//! have unbounded Θ-filter regions ([`ThetaOp::filter_radius`] is
//! `None`) and fall back to the nested loop.

use sj_geom::sweep::{sweep_candidates, SweepItem};
use sj_geom::ThetaOp;
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::nested_loop::nested_loop_join;
use crate::refine::{emit_decode_span, MarginRefiner};
use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun};

/// Plane-sweep spatial join `R ⋈_θ S`.
///
/// `filter_evals` counts forward-scan comparisons (pairs whose
/// x-intervals were examined), `theta_evals` exact refinements — the
/// same units as the quadratic executors, so comparison counts are
/// directly comparable.
///
/// MBR-extraction scans are the `partition` phase, forward-scan
/// comparisons the `filter` phase, exact θ-tests plus their lazy
/// polygon and polyline fetches the `refine` phase. (Filter and refine
/// interleave during the sweep; the sweep's wall clock is charged to
/// `filter`, its counters split exactly.)
///
/// Fail-stop: the first storage fault aborts the run with a typed error.
/// A fault during the interleaved refine phase stops further fetches and
/// discards the whole outcome (never a partial match set).
pub fn sweep_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let Some(eps) = theta.filter_radius() else {
        // Unbounded (directional) filter region: no sweep interval
        // covers it; serve the operator with strategy I.
        return nested_loop_join(pool, r, s, theta, trace);
    };
    let mut timer = PhaseTimer::for_sink(trace);
    let mut run = JoinRun::default();
    let mut partition = ExecStats::default();
    let mut refine = ExecStats::default();
    partition.passes = 1;

    // One scan per relation to extract MBRs. A point or rectangle is
    // refined from its scan entry; a polygon or polyline is re-fetched
    // lazily during refinement (the filter/refine I/O split).
    timer.enter(Phase::Partition);
    let window = pool.stats();
    let r_mbrs = r.try_scan_mbrs(pool)?;
    let s_mbrs = s.try_scan_mbrs(pool)?;

    let mut sweep_r: Vec<SweepItem> = r_mbrs
        .iter()
        .enumerate()
        .map(|(i, e)| SweepItem::expanded(i as u32, e.mbr, eps))
        .collect();
    let mut sweep_s: Vec<SweepItem> = s_mbrs
        .iter()
        .enumerate()
        .map(|(j, e)| SweepItem::new(j as u32, e.mbr))
        .collect();
    partition.add_io(pool.stats().since(&window));

    timer.enter(Phase::Filter);
    let window = pool.stats();
    // Shared refinement engine: the exact path on uncompressed
    // relations, the margin-governed path (quantized sidecar reads,
    // decode-on-demand) when both sides are compressed.
    let mut refiner = MarginRefiner::new(r, s, &r_mbrs, &s_mbrs);
    // Capture the first fault raised inside the sweep callback; once set,
    // no further geometry fetches are attempted and the outcome is
    // discarded below.
    let mut first_err: Option<StorageError> = None;
    let comparisons = sweep_candidates(&mut sweep_r, &mut sweep_s, theta, &mut |i, j| {
        if first_err.is_some() {
            return;
        }
        match refiner.refine(pool, &theta, i, j, &mut refine) {
            Ok(true) => run
                .pairs
                .push((r_mbrs[i as usize].id, s_mbrs[j as usize].id)),
            Ok(false) => {}
            Err(e) => first_err = Some(e),
        }
    });
    refine.add_io(pool.stats().since(&window));
    emit_decode_span(trace, &refine);
    timer.stop();
    if let Some(e) = first_err {
        return Err(e);
    }

    run.phases.record(Phase::Partition, partition);
    run.phases.record(
        Phase::Filter,
        ExecStats {
            filter_evals: comparisons,
            ..Default::default()
        },
    );
    run.phases.record(Phase::Refine, refine);
    run.seal("sweep", &timer, trace);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Direction, Geometry, Point, Rect};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), frames)
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    /// Deterministic mixed point/rect workload spread over the world.
    fn mixed_rel(pool: &mut BufferPool, n: usize, id0: u64, salt: u64) -> StoredRelation {
        let tuples: Vec<(u64, Geometry)> = (0..n)
            .map(|i| {
                let k = (i as u64).wrapping_mul(2654435761).wrapping_add(salt);
                let x = (k % 1000) as f64;
                let y = (k / 1000 % 1000) as f64;
                let g = if i % 3 == 0 {
                    Geometry::Point(Point::new(x, y))
                } else {
                    let w = (k % 23) as f64;
                    let h = (k % 17) as f64;
                    Geometry::Rect(Rect::from_bounds(x, y, x + w, y + h))
                };
                (id0 + i as u64, g)
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    #[test]
    fn sweep_join_matches_nested_loop_across_operators() {
        let mut p = pool(64);
        let r = mixed_rel(&mut p, 130, 0, 5);
        let s = mixed_rel(&mut p, 110, 10_000, 77);
        for theta in [
            ThetaOp::WithinDistance(25.0),
            ThetaOp::WithinCenterDistance(40.0),
            ThetaOp::Overlaps,
            ThetaOp::Includes,
            ThetaOp::ContainedIn,
            ThetaOp::Adjacent,
            ThetaOp::ReachableWithin {
                minutes: 10.0,
                speed: 3.0,
            },
            ThetaOp::DirectionOf(Direction::SouthEast),
        ] {
            let want = sorted(
                nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            let got = sorted(
                sweep_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            assert_eq!(got, want, "theta {theta:?}");
        }
    }

    #[test]
    fn sweep_beats_nested_loop_comparisons_on_spread_data() {
        let mut p = pool(64);
        let r = mixed_rel(&mut p, 200, 0, 5);
        let s = mixed_rel(&mut p, 200, 10_000, 77);
        let theta = ThetaOp::Overlaps;
        let nl = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        let sw = sweep_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        assert_eq!(sorted(nl.pairs), sorted(sw.pairs));
        assert!(
            sw.stats.comparisons() < nl.stats.comparisons() / 4,
            "sweep {} vs nested {}",
            sw.stats.comparisons(),
            nl.stats.comparisons()
        );
    }

    #[test]
    fn refinement_io_is_lazy() {
        // Disjoint clusters far apart: the sweep should refine nothing
        // and touch only the MBR-extraction scans.
        let mut p = pool(64);
        let left: Vec<(u64, Geometry)> = (0..40)
            .map(|i| (i, Geometry::Point(Point::new(i as f64, 0.0))))
            .collect();
        let right: Vec<(u64, Geometry)> = (0..40)
            .map(|i| {
                (
                    1_000 + i,
                    Geometry::Point(Point::new(10_000.0 + i as f64, 0.0)),
                )
            })
            .collect();
        let r = StoredRelation::build(&mut p, &left, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &right, 300, Layout::Clustered);
        let run = sweep_join(
            &mut p,
            &r,
            &s,
            ThetaOp::WithinDistance(5.0),
            &mut TraceSink::Null,
        )
        .unwrap();
        assert!(run.pairs.is_empty());
        assert_eq!(run.stats.theta_evals, 0);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut p = pool(16);
        let empty = StoredRelation::build(&mut p, &[], 300, Layout::Clustered);
        let r = mixed_rel(&mut p, 10, 0, 1);
        assert!(
            sweep_join(&mut p, &empty, &r, ThetaOp::Overlaps, &mut TraceSink::Null)
                .unwrap()
                .pairs
                .is_empty()
        );
        assert!(
            sweep_join(&mut p, &r, &empty, ThetaOp::Overlaps, &mut TraceSink::Null)
                .unwrap()
                .pairs
                .is_empty()
        );
    }
}
