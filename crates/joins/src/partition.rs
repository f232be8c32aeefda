//! The one filter-and-refine loop of the plane-sweep and partition joins.
//!
//! [`partition_join`] is a PBSM-style partition join: it grid-partitions
//! both relations' MBRs into tiles, runs Θ-filter + θ-refine per tile, and
//! deduplicates pairs that share several tiles with the *reference-point
//! rule*: a candidate pair is refined only in the tile containing the
//! lower-left corner of the intersection of its (expanded) MBRs. The
//! per-tile Θ-filter is a forward-scan plane sweep ([`sj_geom::sweep`])
//! rather than an all-pairs loop, so tile filter cost is `O(n log n + k)`
//! in the tile size. [`sweep_join`](crate::sweep::sweep_join) is the same
//! loop over a single tile, which owns every pair: no grid and no
//! reference-point rule.
//!
//! The tile decomposition — and with it `filter_evals` (sweep
//! comparisons) and `theta_evals` — is a function of the data alone.
//! Tiles run one after another on the calling thread against the
//! caller's own pool, so the run is one I/O stream, directly comparable
//! with the other executors and with the §4 cost model. A second core is
//! spent one layer up, by the shard router's in-process tile shards.

use std::time::Instant;

use sj_geom::sweep::{sweep_candidates, SweepItem};
use sj_geom::{Point, Rect, ThetaOp};
use sj_obs::{Phase, PhaseTimer, TraceSink};
use sj_storage::{BufferPool, StorageError};

use crate::nested_loop::nested_loop_join;
use crate::refine::Refiner;
use crate::relation::StoredRelation;
use crate::stats::{ExecStats, JoinRun};

/// A uniform grid over the data's bounding box. Tile membership is
/// computed with the monotone maps [`TileGrid::tile_x_of`] /
/// [`TileGrid::tile_y_of`] applied to rectangle corners, so a rectangle's
/// tile range and any interior point's tile are always consistent — the
/// property the reference-point rule relies on (no floating-point
/// boundary disagreements).
///
/// The boundary convention is **half-open with a saturating last tile**:
/// tile `k` along an axis covers `[origin + k·w, origin + (k+1)·w)`, so a
/// coordinate exactly on the edge shared by tiles `k-1` and `k` belongs
/// to `k` — except the world's max edge, which saturates into the last
/// tile (and so do coordinates beyond the world, in either direction).
/// Every coordinate therefore maps to exactly one tile; a reference
/// point landing exactly on a shared tile edge is owned by exactly one
/// tile in both the partition join and the sharded execution path. Pinned
/// by `tile_boundary_convention_is_half_open` below.
///
/// `pub` because the shard router (`sj-shard`) reuses the same grid and
/// the same convention for its tile-shard decomposition — the two layers
/// must agree on ownership or boundary pairs get duplicated or lost.
#[derive(Debug, Clone, Copy)]
pub struct TileGrid {
    origin: Point,
    tile_w: f64,
    tile_h: f64,
    tiles_x: usize,
    tiles_y: usize,
}

impl TileGrid {
    /// Grid of `tiles_x × tiles_y` tiles covering `world`.
    pub fn new(world: Rect, tiles_x: usize, tiles_y: usize) -> Self {
        let tile_w = (world.hi.x - world.lo.x) / tiles_x as f64;
        let tile_h = (world.hi.y - world.lo.y) / tiles_y as f64;
        TileGrid {
            origin: world.lo,
            tile_w,
            tile_h,
            tiles_x,
            tiles_y,
        }
    }

    /// Total number of tiles.
    pub fn len(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// True for a degenerate zero-tile grid (never produced by `new`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tiles along x.
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Tiles along y.
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// Column of `x` under the half-open convention (see type docs).
    pub fn tile_x_of(&self, x: f64) -> usize {
        if self.tile_w <= 0.0 {
            return 0;
        }
        let t = ((x - self.origin.x) / self.tile_w).floor();
        // `as usize` saturates negatives and NaN to 0.
        (t as usize).min(self.tiles_x - 1)
    }

    /// Row of `y` under the half-open convention (see type docs).
    pub fn tile_y_of(&self, y: f64) -> usize {
        if self.tile_h <= 0.0 {
            return 0;
        }
        let t = ((y - self.origin.y) / self.tile_h).floor();
        (t as usize).min(self.tiles_y - 1)
    }

    /// The unique tile owning `p` (row-major index).
    pub fn tile_of_point(&self, p: Point) -> usize {
        self.tile_y_of(p.y) * self.tiles_x + self.tile_x_of(p.x)
    }

    /// The closed rectangle of tile `t` (row-major). Adjacent tiles share
    /// their edges; ownership of shared edges follows the half-open maps
    /// above, not this rectangle.
    pub fn tile_rect(&self, t: usize) -> Rect {
        assert!(t < self.len(), "tile index {t} out of range");
        let tx = (t % self.tiles_x) as f64;
        let ty = (t / self.tiles_x) as f64;
        Rect::from_bounds(
            self.origin.x + tx * self.tile_w,
            self.origin.y + ty * self.tile_h,
            self.origin.x + (tx + 1.0) * self.tile_w,
            self.origin.y + (ty + 1.0) * self.tile_h,
        )
    }

    /// Indices of every tile the rectangle overlaps.
    pub fn tiles_overlapping(&self, r: &Rect) -> impl Iterator<Item = usize> + '_ {
        let x0 = self.tile_x_of(r.lo.x);
        let x1 = self.tile_x_of(r.hi.x);
        let y0 = self.tile_y_of(r.lo.y);
        let y1 = self.tile_y_of(r.hi.y);
        (y0..=y1).flat_map(move |y| (x0..=x1).map(move |x| y * self.tiles_x + x))
    }

    /// For every tile, the positions of the rectangles overlapping it, in
    /// position order.
    fn tile_lists(&self, rects: impl Iterator<Item = Rect>) -> Vec<Vec<u32>> {
        let mut tiles = vec![Vec::new(); self.len()];
        for (i, rect) in rects.enumerate() {
            for t in self.tiles_overlapping(&rect) {
                tiles[t].push(i as u32);
            }
        }
        tiles
    }
}

/// Tiles per axis, scaled to the input size so that tiles hold on the
/// order of five hundred tuples on average — deep enough per-tile runs
/// for the batched SoA sweep to walk multi-chunk scans and amortize its
/// chunk builds, while a tile's SoA working set stays cache-resident.
/// Depends only on the data, so comparison totals do too.
///
/// Clamped to `[2, 64]`: tiny inputs (including zero tuples) still get a
/// 2×2 grid rather than a degenerate 1-tile or n×1 decomposition, and
/// huge inputs stop at 64×64 tiles. The clamp bounds the *count* only —
/// a skewed dataset can still concentrate every tuple in one tile, which
/// this static heuristic cannot see. Occupancy-driven skew handling is
/// deliberately NOT done here: the shard router (`sj-shard`) recursively
/// quad-splits overfull tiles from observed occupancy instead, keeping
/// this function a pure, data-size-only map (pinned by
/// `tiles_per_axis_is_clamped_and_monotone`).
pub fn tiles_per_axis(total_tuples: usize) -> usize {
    ((total_tuples as f64 / 512.0).sqrt().ceil() as usize).clamp(2, 64)
}

/// PBSM-style partition join `R ⋈_θ S`: the filter-and-refine loop
/// over `tiles_per_axis(|R| + |S|)²` tiles.
///
/// Returns exactly the match set of [`nested_loop_join`] (as a set; pair
/// order follows tile order) for every `theta`. Directional predicates
/// have unbounded Θ-filter regions ([`ThetaOp::filter_radius`] is `None`)
/// that no tile localizes, and are served by the nested loop itself.
///
/// The MBR scans and tile decomposition are the `partition` phase; the
/// per-tile Θ-filter sweeps are the `filter` phase; exact θ-tests plus
/// lazy polygon and polyline fetches are the `refine` phase. When the
/// sink is live, each tile additionally emits a `partition_join/tile:<t>`
/// span, in tile order.
///
/// Fail-stop: the first storage fault aborts the run with a typed error.
pub fn partition_join(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let axis = tiles_per_axis(r.len() + s.len());
    filter_and_refine(pool, r, s, theta, axis, trace)
}

/// The one filter-and-refine loop: `tiles_per_axis²` tiles, each swept,
/// refined and accounted in one pass, in tile order.
///
/// One tile is the plane sweep ([`sweep_join`](crate::sweep::sweep_join),
/// spans `sweep/…`): it owns every position and every pair, so it builds
/// no grid and applies no reference-point rule. More tiles are the
/// partition join ([`partition_join`], spans `partition_join/…`).
///
/// The MBR scans and the tiling are the `partition` phase. The tile loop's
/// wall clock is the `filter` phase, which gets the sweep comparisons;
/// the θ-tests and the polygon and polyline fetches they trigger are
/// counted to `refine` (filter and refine interleave inside each sweep).
/// With a live sink every tile that holds both sides emits
/// `<executor>/tile:<t>`; with [`TraceSink::Null`] no clock is read.
///
/// Fail-stop: the first storage fault stops further fetches and discards
/// the whole outcome (never a partial match set).
pub(crate) fn filter_and_refine(
    pool: &mut BufferPool,
    r: &StoredRelation,
    s: &StoredRelation,
    theta: ThetaOp,
    tiles_per_axis: usize,
    trace: &mut TraceSink,
) -> Result<JoinRun, StorageError> {
    let Some(eps) = theta.filter_radius() else {
        // Unbounded (directional) filter region: no sweep interval or
        // tile covers it; serve the operator with strategy I.
        return nested_loop_join(pool, r, s, theta, trace);
    };
    let mut timer = PhaseTimer::for_sink(trace);
    let mut run = JoinRun::default();
    let mut partition = ExecStats {
        passes: 1,
        ..Default::default()
    };

    // One scan per relation to extract MBRs. These stay in executor
    // memory for the filter and refine every point and rectangle; a
    // polygon or polyline is re-fetched lazily during refinement (the
    // filter/refine I/O split).
    timer.enter(Phase::Partition);
    let window = pool.stats();
    let r_mbrs = r.try_scan_mbrs(pool)?;
    let s_mbrs = s.try_scan_mbrs(pool)?;

    // Tile decomposition with multi-assignment: each tile lists the
    // positions whose MBR overlaps it, R-side MBRs expanded by the filter
    // radius so every Θ-qualifying pair shares at least one tile.
    let (executor, grid, r_tiles, s_tiles) = if tiles_per_axis == 1 {
        let all = |n: usize| vec![(0..n as u32).collect::<Vec<u32>>()];
        ("sweep", None, all(r_mbrs.len()), all(s_mbrs.len()))
    } else {
        let world = r_mbrs
            .iter()
            .chain(&s_mbrs)
            .map(|e| e.mbr)
            .reduce(|a, b| a.union(&b))
            // No MBR on either side: any grid tiles nothing.
            .unwrap_or(Rect::from_point(Point::new(0.0, 0.0)));
        let grid = TileGrid::new(world, tiles_per_axis, tiles_per_axis);
        let r_tiles = grid.tile_lists(r_mbrs.iter().map(|e| e.mbr.expand(eps)));
        let s_tiles = grid.tile_lists(s_mbrs.iter().map(|e| e.mbr));
        ("partition_join", Some(grid), r_tiles, s_tiles)
    };
    partition.add_io(pool.stats().since(&window));
    run.phases.record(Phase::Partition, partition);

    timer.enter(Phase::Filter);
    let window = pool.stats();
    let mut filter = ExecStats::default();
    let mut refine = ExecStats::default();
    for (t, (r_list, s_list)) in r_tiles.iter().zip(&s_tiles).enumerate() {
        if r_list.is_empty() || s_list.is_empty() {
            continue;
        }
        let t0 = timer.is_enabled().then(Instant::now);
        let (pairs_before, evals_before) = (run.pairs.len(), refine.theta_evals);
        // The Θ-filter is a forward-scan plane sweep over the tile's
        // lists, keyed by relation position; `filter_evals` counts its
        // comparisons, a pure function of the tile contents.
        let mut sweep_r: Vec<SweepItem> = r_list
            .iter()
            .map(|&i| SweepItem::expanded(i, r_mbrs[i as usize].mbr, eps))
            .collect();
        let mut sweep_s: Vec<SweepItem> = s_list
            .iter()
            .map(|&j| SweepItem::new(j, s_mbrs[j as usize].mbr))
            .collect();
        // Per-tile refinement engine: a polygon or polyline is read at
        // most once per tile it is refined in; boxes are never read.
        let mut refiner = Refiner::new(r, s, &r_mbrs, &s_mbrs);
        // Capture the first fault raised inside the sweep callback; once
        // set, no further geometry fetches are attempted and the outcome
        // is discarded below.
        let mut first_err: Option<StorageError> = None;
        let comparisons = sweep_candidates(&mut sweep_r, &mut sweep_s, theta, &mut |i, j| {
            if first_err.is_some() {
                return;
            }
            let (r_entry, s_entry) = (&r_mbrs[i as usize], &s_mbrs[j as usize]);
            // Reference-point rule: of all tiles this candidate pair
            // shares, only the one containing the lower-left corner of
            // the expanded-MBR intersection refines it. The intersection
            // is non-empty whenever the filter passes (Euclidean
            // min-distance ≤ eps bounds both axis gaps by eps); if
            // floating-point rounding ever disagrees, the pair cannot be
            // a true match either, so skipping it is sound.
            if let Some(grid) = &grid {
                let inter = r_entry.mbr.expand(eps).intersection(&s_entry.mbr);
                if inter.map(|x| grid.tile_of_point(x.lo)) != Some(t) {
                    return;
                }
            }
            match refiner.refine(pool, &theta, i, j, &mut refine) {
                Ok(true) => run.pairs.push((r_entry.id, s_entry.id)),
                Ok(false) => {}
                Err(e) => first_err = Some(e),
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        filter.filter_evals += comparisons;
        if let Some(t0) = t0 {
            trace.emit(
                &format!("{executor}/tile:{t}"),
                t0.elapsed().as_micros() as u64,
                &[
                    ("filter_evals", comparisons),
                    ("theta_evals", refine.theta_evals - evals_before),
                    ("pairs", (run.pairs.len() - pairs_before) as u64),
                ],
            );
        }
    }
    refine.add_io(pool.stats().since(&window));
    timer.stop();
    run.phases.record(Phase::Filter, filter);
    run.phases.record(Phase::Refine, refine);
    run.seal(executor, &timer, trace);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::{Direction, Geometry};
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
    fn partition_join_matches_nested_loop_across_operators() {
        let mut p = pool(64);
        let r = mixed_rel(&mut p, 120, 0, 7);
        let s = mixed_rel(&mut p, 140, 10_000, 99);
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
            ThetaOp::DirectionOf(Direction::NorthWest),
        ] {
            let want = sorted(
                nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            let got = sorted(
                partition_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            assert_eq!(got, want, "theta {theta:?}");
        }
    }

    #[test]
    fn reference_point_rule_handles_tile_border_duplicates() {
        // Large rectangles spanning many tiles joined against each other:
        // every candidate pair shares many tiles and must be reported
        // exactly once.
        let mut p = pool(64);
        let r_tuples: Vec<(u64, Geometry)> = (0..40)
            .map(|i| {
                let x = (i % 8) as f64 * 120.0;
                let y = (i / 8) as f64 * 190.0;
                (
                    i as u64,
                    Geometry::Rect(Rect::from_bounds(x, y, x + 400.0, y + 350.0)),
                )
            })
            .collect();
        let s_tuples: Vec<(u64, Geometry)> = (0..40)
            .map(|i| {
                let x = (i % 5) as f64 * 170.0 + 60.0;
                let y = (i / 5) as f64 * 110.0 + 45.0;
                (
                    1_000 + i as u64,
                    Geometry::Rect(Rect::from_bounds(x, y, x + 380.0, y + 300.0)),
                )
            })
            .collect();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        let theta = ThetaOp::Overlaps;
        let want = sorted(
            nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                .unwrap()
                .pairs,
        );
        let run = partition_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
        let mut got = run.pairs.clone();
        let n_raw = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), n_raw, "duplicate pairs emitted");
        assert_eq!(got, want);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut p = pool(16);
        let empty = StoredRelation::build(&mut p, &[], 300, Layout::Clustered);
        let r = mixed_rel(&mut p, 10, 0, 1);
        assert!(
            partition_join(&mut p, &empty, &r, ThetaOp::Overlaps, &mut TraceSink::Null)
                .unwrap()
                .pairs
                .is_empty()
        );
        assert!(
            partition_join(&mut p, &r, &empty, ThetaOp::Overlaps, &mut TraceSink::Null)
                .unwrap()
                .pairs
                .is_empty()
        );
    }

    #[test]
    fn tile_grid_maps_are_consistent_on_borders() {
        let grid = TileGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10, 10);
        // A rect ending exactly on a tile border and a point on that
        // border must agree about which tile the border belongs to.
        let r = Rect::from_bounds(5.0, 5.0, 30.0, 30.0);
        let tiles: Vec<usize> = grid.tiles_overlapping(&r).collect();
        assert!(tiles.contains(&grid.tile_of_point(Point::new(30.0, 30.0))));
        assert!(tiles.contains(&grid.tile_of_point(Point::new(5.0, 5.0))));
        // Degenerate world: everything maps to tile 0.
        let flat = TileGrid::new(Rect::from_bounds(3.0, 4.0, 3.0, 4.0), 4, 4);
        assert_eq!(flat.tile_of_point(Point::new(3.0, 4.0)), 0);
        assert_eq!(
            flat.tiles_overlapping(&Rect::from_bounds(3.0, 4.0, 3.0, 4.0))
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    /// Satellite audit: the boundary convention is half-open — a
    /// coordinate exactly on the edge shared by tiles k-1 and k belongs
    /// to tile k, except the world's max edge which saturates into the
    /// last tile. This is the convention the reference-point rule and the
    /// shard router both rely on for single-ownership of boundary pairs.
    #[test]
    fn tile_boundary_convention_is_half_open() {
        let grid = TileGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10, 10);
        // Interior shared edge x = 30 belongs to the higher tile (3).
        assert_eq!(grid.tile_x_of(30.0), 3);
        assert_eq!(grid.tile_x_of(30.0 - 1e-9), 2);
        assert_eq!(grid.tile_y_of(70.0), 7);
        assert_eq!(grid.tile_y_of(70.0 - 1e-9), 6);
        // The world's min edge opens the first tile.
        assert_eq!(grid.tile_x_of(0.0), 0);
        // The world's max edge has no higher tile: it saturates into the
        // last one instead of falling off the grid.
        assert_eq!(grid.tile_x_of(100.0), 9);
        assert_eq!(grid.tile_y_of(100.0), 9);
        // Out-of-world coordinates clamp to the border tiles.
        assert_eq!(grid.tile_x_of(-5.0), 0);
        assert_eq!(grid.tile_x_of(250.0), 9);
        assert_eq!(grid.tile_y_of(f64::NAN), 0);
    }

    /// A reference point landing exactly on a shared tile edge (or
    /// corner) is owned by exactly one tile, and that tile is always in
    /// the overlap range of any rect containing the point — so exactly
    /// one tile/shard emits the pair.
    #[test]
    fn boundary_reference_point_has_exactly_one_owner() {
        let grid = TileGrid::new(Rect::from_bounds(0.0, 0.0, 100.0, 100.0), 10, 10);
        for p in [
            Point::new(30.0, 50.0),   // on a vertical shared edge
            Point::new(50.0, 30.0),   // on a horizontal shared edge
            Point::new(30.0, 30.0),   // on a shared corner
            Point::new(0.0, 0.0),     // world min corner
            Point::new(100.0, 100.0), // world max corner
            Point::new(100.0, 40.0),  // world max edge, interior row
        ] {
            let owner = grid.tile_of_point(p);
            // Every tile whose closed rect contains p must include the
            // owner in its overlap set; counting owners across the whole
            // grid via tile_of_point yields exactly one by construction,
            // so instead verify consistency: any rect touching p covers
            // the owner tile.
            let probe = Rect::from_bounds(p.x, p.y, p.x, p.y);
            let covering: Vec<usize> = grid.tiles_overlapping(&probe).collect();
            assert_eq!(covering, vec![owner], "point {p:?}");
        }
    }

    /// Reference points engineered to land exactly on shared tile edges:
    /// the partition join must still match nested loop with no duplicates.
    /// With 16 tuples total, `tiles_per_axis` clamps to 2, so the grid
    /// lines of the union world [0,100]² sit at x = 50 / y = 50; the S
    /// rects start exactly there, putting each intersection's lo corner
    /// (the reference point) exactly on a shared edge or corner.
    #[test]
    fn partition_join_exact_on_boundary_reference_points() {
        let mut p = pool(64);
        let r_rects = [
            (0.0, 0.0, 50.0, 50.0), // the four quadrants pin the world to [0,100]²
            (50.0, 0.0, 100.0, 50.0),
            (0.0, 50.0, 50.0, 100.0),
            (50.0, 50.0, 100.0, 100.0),
            (25.0, 25.0, 50.0, 50.0), // hi corner exactly on the grid cross
            (0.0, 25.0, 50.0, 75.0),
            (25.0, 50.0, 75.0, 100.0),
            (50.0, 25.0, 100.0, 75.0),
        ];
        let s_rects = [
            (50.0, 50.0, 60.0, 60.0), // lo corner exactly on the grid cross
            (50.0, 0.0, 60.0, 10.0),
            (0.0, 50.0, 10.0, 60.0),
            (50.0, 25.0, 100.0, 75.0),
            (25.0, 50.0, 75.0, 100.0),
            (50.0, 50.0, 100.0, 100.0),
            (40.0, 50.0, 60.0, 70.0),
            (50.0, 40.0, 70.0, 60.0),
        ];
        let r_tuples: Vec<(u64, Geometry)> = r_rects
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| (i as u64, Geometry::Rect(Rect::from_bounds(a, b, c, d))))
            .collect();
        let s_tuples: Vec<(u64, Geometry)> = s_rects
            .iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| {
                (
                    1_000 + i as u64,
                    Geometry::Rect(Rect::from_bounds(a, b, c, d)),
                )
            })
            .collect();
        let r = StoredRelation::build(&mut p, &r_tuples, 300, Layout::Clustered);
        let s = StoredRelation::build(&mut p, &s_tuples, 300, Layout::Clustered);
        for theta in [ThetaOp::Overlaps, ThetaOp::WithinDistance(5.0)] {
            let want = sorted(
                nested_loop_join(&mut p, &r, &s, theta, &mut TraceSink::Null)
                    .unwrap()
                    .pairs,
            );
            let run = partition_join(&mut p, &r, &s, theta, &mut TraceSink::Null).unwrap();
            let mut got = run.pairs.clone();
            let n_raw = got.len();
            got.sort_unstable();
            got.dedup();
            assert_eq!(got.len(), n_raw, "boundary pair emitted twice ({theta:?})");
            assert_eq!(got, want, "theta {theta:?}");
        }
    }

    /// Satellite fix: `tiles_per_axis` is clamped so tiny inputs never
    /// degenerate to a single tile and huge inputs stop at 64 per axis.
    #[test]
    fn tiles_per_axis_is_clamped_and_monotone() {
        assert_eq!(tiles_per_axis(0), 2);
        assert_eq!(tiles_per_axis(1), 2);
        assert_eq!(tiles_per_axis(511), 2);
        assert_eq!(tiles_per_axis(usize::MAX / 2), 64);
        let mut prev = 0;
        for n in [0, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000] {
            let t = tiles_per_axis(n);
            assert!((2..=64).contains(&t), "tiles_per_axis({n}) = {t}");
            assert!(t >= prev, "tiles_per_axis not monotone at {n}");
            prev = t;
        }
    }
}
