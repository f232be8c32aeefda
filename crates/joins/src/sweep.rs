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
//!
//! A partition join over a single tile *is* the plane sweep, so this
//! module holds no loop of its own: it runs the partition module's
//! filter-and-refine loop with one tile per axis.

use sj_geom::ThetaOp;
use sj_obs::TraceSink;
use sj_storage::{BufferPool, StorageError};

use crate::partition::filter_and_refine;
use crate::relation::StoredRelation;
use crate::stats::JoinRun;

/// Plane-sweep spatial join `R ⋈_θ S`: the filter-and-refine loop of
/// [`partition_join`](crate::partition::partition_join) over one tile.
///
/// `filter_evals` counts forward-scan comparisons (pairs whose
/// x-intervals were examined), `theta_evals` exact refinements — the
/// same units as the quadratic executors, so comparison counts are
/// directly comparable.
///
/// The MBR scans are the `partition` phase. Building the sweep items and
/// the sweep itself are the `filter` phase's wall clock and its
/// comparisons; exact θ-tests plus their lazy polygon and polyline
/// fetches are counted to the `refine` phase (filter and refine
/// interleave during the sweep). When the sink is live, the one tile
/// also emits a `sweep/tile:0` span.
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
    filter_and_refine(pool, r, s, theta, 1, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::nested_loop_join;
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
