//! Grid-partitioned spatial join — the index-supported baseline the paper
//! credits to Rotem (\[Rote91\]) over the grid file (\[Niev84\]) of §2.2.
//!
//! Both relations are hashed into the cells of a uniform grid; candidate
//! pairs are the co-resident tuples of each cell (deduplicated, since
//! extended objects span several cells), refined with the exact θ.
//! Distance operators are handled by expanding the `R`-side cell
//! assignment by the distance bound, so every matching pair shares at
//! least one cell.

use std::collections::HashSet;

use sj_geom::{Bounded, Rect, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun};

/// Grid geometry for [`grid_join`].
#[derive(Debug, Clone, Copy)]
pub struct GridConfig {
    /// World rectangle covered by the grid.
    pub world: Rect,
    /// Cells along x.
    pub nx: u32,
    /// Cells along y.
    pub ny: u32,
}

impl GridConfig {
    /// Cells spanned by `mbr`, after clamping it into the world.
    ///
    /// Out-of-world extents clamp to the border cells (the same
    /// saturating convention as `partition::TileGrid`) instead of being
    /// dropped: a silent drop is benign when the world genuinely bounds
    /// the data, but becomes a wrong answer the moment this executor
    /// serves one shard of a larger federation whose world estimate is
    /// stale. Strays are counted in the `grid/outside_world` span.
    fn cell_span(&self, mbr: &Rect) -> (u32, u32, u32, u32) {
        let w = self.world.width() / self.nx as f64;
        let h = self.world.height() / self.ny as f64;
        let lo_x = mbr.lo.x.clamp(self.world.lo.x, self.world.hi.x);
        let lo_y = mbr.lo.y.clamp(self.world.lo.y, self.world.hi.y);
        let hi_x = mbr.hi.x.clamp(self.world.lo.x, self.world.hi.x);
        let hi_y = mbr.hi.y.clamp(self.world.lo.y, self.world.hi.y);
        let cx0 =
            (((lo_x - self.world.lo.x) / w).floor() as i64).clamp(0, (self.nx - 1) as i64) as u32;
        let cy0 =
            (((lo_y - self.world.lo.y) / h).floor() as i64).clamp(0, (self.ny - 1) as i64) as u32;
        let cx1 =
            (((hi_x - self.world.lo.x) / w).floor() as i64).clamp(0, (self.nx - 1) as i64) as u32;
        let cy1 =
            (((hi_y - self.world.lo.y) / h).floor() as i64).clamp(0, (self.ny - 1) as i64) as u32;
        (cx0, cy0, cx1, cy1)
    }

    /// True when any part of `mbr` lies outside the world rectangle —
    /// the object still participates in the join (clamped to border
    /// cells) but is counted in the `grid/outside_world` span.
    fn outside_world(&self, mbr: &Rect) -> bool {
        !(self.world.contains_point(&mbr.lo) && self.world.contains_point(&mbr.hi))
    }
}

/// Grid-partitioned join `R ⋈_θ S`.
///
/// The scans plus cell bucketing are the `partition` phase, cell-probing
/// the `filter` phase (cell co-residency needs no per-pair comparisons,
/// so it carries only wall-clock time), exact θ-tests the `refine`
/// phase. Objects whose MBR extends beyond the configured world are
/// clamped to border cells rather than dropped, so the result stays
/// exact; when there are any, a `grid/outside_world` span reports the
/// per-side counts — a non-zero count tells the caller its world
/// estimate is stale and should be re-derived from the relations' true
/// MBR union.
///
/// Fail-stop: the first storage fault aborts the run with a typed error.
///
/// # Panics
///
/// Panics for directional θ-operators (no [`ThetaOp::filter_radius`]),
/// whose qualifying region is a half-plane and cannot be localized to
/// grid cells — an unsupported operator is a logic error, not a storage
/// fault.
pub fn grid_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    config: GridConfig,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let Some(slack) = theta.filter_radius() else {
        panic!("grid join cannot support {theta:?}: unbounded filter region"); // PANIC-OK: see # Panics
    };
    let mut timer = PhaseTimer::for_sink(trace);
    timer.enter(Phase::Partition);
    let window = pool.stats();
    let mut run = JoinRun::default();
    let (mut r_outside, mut s_outside) = (0u64, 0u64);
    let mut partition = ExecStats {
        passes: 1,
        ..Default::default()
    };

    let r_rows = r.try_scan(pool)?;
    let s_rows = s.try_scan(pool)?;

    // Bucket S by cell; out-of-world objects clamp to border cells.
    let cells = (config.nx as usize) * (config.ny as usize);
    let mut s_cells: Vec<Vec<usize>> = vec![Vec::new(); cells];
    for (idx, (_, g)) in s_rows.iter().enumerate() {
        let mbr = g.mbr();
        if config.outside_world(&mbr) {
            s_outside += 1;
        }
        let (x0, y0, x1, y1) = config.cell_span(&mbr);
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                s_cells[(cy * config.nx + cx) as usize].push(idx);
            }
        }
    }

    partition.add_io(pool.stats().since(&window));
    run.phases.record(Phase::Partition, partition);

    // Probe with R, expanding by the filter slack so distance matches
    // land in a shared cell. Strays are counted on the raw MBR — the
    // slack expansion legitimately pokes past the world near borders.
    timer.enter(Phase::Filter);
    let mut candidates: HashSet<(usize, usize)> = HashSet::new();
    for (r_idx, (_, g)) in r_rows.iter().enumerate() {
        let mbr = g.mbr();
        if config.outside_world(&mbr) {
            r_outside += 1;
        }
        let (x0, y0, x1, y1) = config.cell_span(&mbr.expand(slack));
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                for &s_idx in &s_cells[(cy * config.nx + cx) as usize] {
                    candidates.insert((r_idx, s_idx));
                }
            }
        }
    }

    timer.enter(Phase::Refine);
    let mut refine = ExecStats::default();
    let mut pairs: Vec<(usize, usize)> = candidates.into_iter().collect();
    pairs.sort_unstable();
    for (ri, si) in pairs {
        refine.theta_evals += 1;
        let (r_id, r_geom) = &r_rows[ri];
        let (s_id, s_geom) = &s_rows[si];
        if theta.eval(r_geom, s_geom) {
            run.pairs.push((*r_id, *s_id));
        }
    }
    timer.stop();
    run.phases.record(Phase::Refine, refine);
    run.seal("grid", &timer, trace);
    if r_outside + s_outside > 0 {
        trace.emit(
            "grid/outside_world",
            0,
            &[("r_outside", r_outside), ("s_outside", s_outside)],
        );
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nested_loop::nested_loop_join;
    use sj_geom::{Geometry, Point};
    use sj_storage::{Disk, DiskConfig, Layout};

    fn pool() -> BufferPool {
        BufferPool::new(Disk::new(DiskConfig::paper()), 64)
    }

    fn cfg() -> GridConfig {
        GridConfig {
            world: Rect::from_bounds(0.0, 0.0, 100.0, 100.0),
            nx: 10,
            ny: 10,
        }
    }

    fn points_rel(pool: &mut BufferPool, n: usize, step: f64, id0: u64) -> StoredRelation {
        let tuples: Vec<(u64, Geometry)> = (0..n * n)
            .map(|i| {
                (
                    id0 + i as u64,
                    Geometry::Point(Point::new(
                        (i % n) as f64 * step + 0.5,
                        (i / n) as f64 * step + 0.5,
                    )),
                )
            })
            .collect();
        StoredRelation::build(pool, &tuples, 300, Layout::Clustered)
    }

    #[test]
    fn overlap_and_distance_match_nested_loop() {
        let mut p = pool();
        let r = points_rel(&mut p, 8, 12.0, 0);
        let s = points_rel(&mut p, 8, 12.0, 1000);
        for theta in [
            ThetaOp::WithinDistance(12.5),
            ThetaOp::WithinDistance(0.1),
            ThetaOp::Overlaps,
            ThetaOp::WithinDistance(-1.0),
            ThetaOp::WithinCenterDistance(-1.0),
        ] {
            let mut got = grid_join(&mut p, &r, &s, cfg(), theta, &mut TraceSink::Null)
                .unwrap()
                .pairs;
            got.sort_unstable();
            let mut want = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                .unwrap()
                .pairs;
            want.sort_unstable();
            assert_eq!(got, want, "{theta:?}");
            // A negative bound matches nothing; the cell expansion clamps
            // to 0 instead of shrinking the probe.
            if matches!(
                theta,
                ThetaOp::WithinDistance(d) | ThetaOp::WithinCenterDistance(d) if d < 0.0
            ) {
                assert!(got.is_empty(), "{theta:?}");
            }
        }
    }

    #[test]
    fn rect_objects_spanning_cells() {
        let mut p = pool();
        let r = StoredRelation::build(
            &mut p,
            &[
                (0, Geometry::Rect(Rect::from_bounds(5.0, 5.0, 45.0, 15.0))),
                (1, Geometry::Rect(Rect::from_bounds(60.0, 60.0, 61.0, 61.0))),
            ],
            300,
            Layout::Clustered,
        );
        let s = StoredRelation::build(
            &mut p,
            &[
                (
                    100,
                    Geometry::Rect(Rect::from_bounds(40.0, 10.0, 50.0, 20.0)),
                ),
                (
                    101,
                    Geometry::Rect(Rect::from_bounds(90.0, 90.0, 95.0, 95.0)),
                ),
            ],
            300,
            Layout::Clustered,
        );
        let run = grid_join(
            &mut p,
            &r,
            &s,
            cfg(),
            ThetaOp::Overlaps,
            &mut TraceSink::Null,
        )
        .unwrap();
        assert_eq!(run.pairs, vec![(0, 100)]);
        // Each candidate pair is θ-tested exactly once despite sharing
        // several cells.
        assert!(run.stats.theta_evals <= 4);
    }

    #[test]
    fn fewer_theta_evals_than_nested_loop() {
        let mut p = pool();
        let r = points_rel(&mut p, 8, 12.0, 0);
        let s = points_rel(&mut p, 8, 12.0, 1000);
        let theta = ThetaOp::WithinDistance(1.0);
        let g = grid_join(&mut p, &r, &s, cfg(), theta, &mut TraceSink::Null).unwrap();
        let nl = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        assert!(
            g.stats.theta_evals * 4 < nl.stats.theta_evals,
            "grid should prune most pairs: {} vs {}",
            g.stats.theta_evals,
            nl.stats.theta_evals
        );
    }

    #[test]
    #[should_panic(expected = "unbounded")]
    fn directional_theta_rejected() {
        let mut p = pool();
        let r = points_rel(&mut p, 2, 10.0, 0);
        let s = points_rel(&mut p, 2, 10.0, 100);
        let _ = grid_join(
            &mut p,
            &r,
            &s,
            cfg(),
            ThetaOp::DirectionOf(sj_geom::Direction::NorthWest),
            &mut TraceSink::Null,
        )
        .unwrap();
    }

    /// Regression (sharding bugfix sweep): objects outside the
    /// configured world used to be silently dropped — benign when the
    /// world truly bounds the data, a wrong answer once the world is a
    /// stale estimate. They are now clamped to border cells, the join
    /// stays exact against nested loop, and the strays are reported in
    /// the `grid/outside_world` span.
    #[test]
    fn objects_outside_world_are_clamped_not_dropped() {
        let mut p = pool();
        // Both tuples live entirely outside the 100×100 world and
        // overlap each other; the old intersection-based bucketing
        // dropped both and returned no pairs.
        let r = StoredRelation::build(
            &mut p,
            &[
                (
                    0,
                    Geometry::Rect(Rect::from_bounds(150.0, 150.0, 160.0, 160.0)),
                ),
                (1, Geometry::Point(Point::new(50.0, 50.0))),
            ],
            300,
            Layout::Clustered,
        );
        let s = StoredRelation::build(
            &mut p,
            &[
                (
                    100,
                    Geometry::Rect(Rect::from_bounds(155.0, 155.0, 165.0, 165.0)),
                ),
                (101, Geometry::Point(Point::new(-20.0, 50.0))),
                (102, Geometry::Point(Point::new(50.0, 50.0))),
            ],
            300,
            Layout::Clustered,
        );
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(10.0)] {
            let mut sink = TraceSink::vec();
            let run = grid_join(&mut p, &r, &s, cfg(), theta, &mut sink).unwrap();
            let mut got = run.pairs;
            got.sort_unstable();
            let mut want = nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                .unwrap()
                .pairs;
            want.sort_unstable();
            assert_eq!(got, want, "{theta:?}");
            assert!(
                got.contains(&(0, 100)),
                "out-of-world overlap must be found ({theta:?})"
            );
            let strays = sink
                .events()
                .iter()
                .find(|e| e.span == "grid/outside_world")
                .expect("strays must be traced");
            assert_eq!(
                strays.counters,
                vec![("r_outside", 1), ("s_outside", 2)],
                "{theta:?}"
            );
        }
    }

    /// Fully in-world data reports a zero stray count.
    #[test]
    fn outside_world_count_is_zero_for_in_world_data() {
        let mut p = pool();
        let r = points_rel(&mut p, 4, 10.0, 0);
        let s = points_rel(&mut p, 4, 10.0, 1000);
        let mut sink = TraceSink::vec();
        grid_join(&mut p, &r, &s, cfg(), ThetaOp::Overlaps, &mut sink).unwrap();
        assert!(sink.events().iter().all(|e| e.span != "grid/outside_world"));
    }
}
