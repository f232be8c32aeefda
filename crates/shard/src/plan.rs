//! The shard plan: which leaf rectangle each shard owns.
//!
//! The base decomposition reuses [`TileGrid`] — the same grid (and the
//! same half-open boundary convention) the intra-process PBSM join uses,
//! so tile ownership means the same thing at both scales. On top of the
//! base grid, tiles whose occupancy exceeds a threshold are recursively
//! quad-split: skew handling is driven by *observed* occupancy at plan
//! build time, not by the static `tiles_per_axis` heuristic (which is
//! size-only and cannot see an all-in-one-corner dataset).

use sj_geom::Rect;
use sj_joins::TileGrid;

/// Geometry of the shard decomposition.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlanConfig {
    /// Target shard count; the base grid is the smallest `a × b` grid
    /// with `a·b ≥ shards` and near-square aspect (1 → 1×1, 2 → 2×1,
    /// 4 → 2×2). Skew splitting can push the final leaf count higher.
    pub shards: usize,
    /// Quad-split a tile when its assigned tuple count exceeds this.
    pub split_threshold: usize,
    /// Bound on recursive splitting (identical coincident tuples can
    /// never be separated spatially, so recursion must terminate).
    pub max_split_depth: usize,
}

impl Default for ShardPlanConfig {
    fn default() -> Self {
        ShardPlanConfig {
            shards: 4,
            split_threshold: 8 * 1024,
            max_split_depth: 4,
        }
    }
}

/// Clamps a rectangle into `world`, coordinate-wise. Clamping is
/// monotone, so two intersecting rectangles still intersect after
/// clamping — the property that keeps out-of-world objects exactly
/// joinable from the border shards they land in.
pub fn clamp(world: &Rect, r: &Rect) -> Rect {
    Rect::from_bounds(
        r.lo.x.clamp(world.lo.x, world.hi.x),
        r.lo.y.clamp(world.lo.y, world.hi.y),
        r.hi.x.clamp(world.lo.x, world.hi.x),
        r.hi.y.clamp(world.lo.y, world.hi.y),
    )
}

/// The leaf rectangles of the shard decomposition. Leaves tile the
/// world: every world point lies in at least one leaf (closed
/// rectangles share edges), and [`clamp`] maps any rectangle — including
/// out-of-world ones — into the world so that routing and slice
/// assignment agree about border objects.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    world: Rect,
    leaves: Vec<Rect>,
    base_tiles: usize,
}

impl ShardPlan {
    /// Builds the plan over `world` (the union of both relations'
    /// MBRs). `occupancy` reports how many tuples a candidate leaf
    /// would be assigned; it drives the recursive skew split.
    pub fn build(
        world: Rect,
        config: &ShardPlanConfig,
        occupancy: &dyn Fn(&Rect) -> usize,
    ) -> ShardPlan {
        let shards = config.shards.max(1);
        let tiles_x = (shards as f64).sqrt().ceil() as usize;
        let tiles_y = shards.div_ceil(tiles_x);
        let grid = TileGrid::new(world, tiles_x, tiles_y);
        let base_tiles = grid.len();
        let mut leaves = Vec::with_capacity(base_tiles);
        let mut work: Vec<(Rect, usize)> =
            (0..base_tiles).map(|t| (grid.tile_rect(t), 0)).collect();
        while let Some((rect, depth)) = work.pop() {
            // A degenerate rect cannot be subdivided; coincident tuples
            // stay together regardless of depth.
            let splittable = rect.width() > 0.0 && rect.height() > 0.0;
            if splittable
                && depth < config.max_split_depth
                && occupancy(&rect) > config.split_threshold
            {
                let c = rect.center();
                work.push((Rect::from_bounds(rect.lo.x, rect.lo.y, c.x, c.y), depth + 1));
                work.push((Rect::from_bounds(c.x, rect.lo.y, rect.hi.x, c.y), depth + 1));
                work.push((Rect::from_bounds(rect.lo.x, c.y, c.x, rect.hi.y), depth + 1));
                work.push((Rect::from_bounds(c.x, c.y, rect.hi.x, rect.hi.y), depth + 1));
            } else {
                leaves.push(rect);
            }
        }
        // Row-major-ish canonical order so shard indices are stable
        // across rebuilds of the same plan.
        leaves.sort_by(|a, b| {
            (a.lo.y, a.lo.x, a.hi.y, a.hi.x)
                .partial_cmp(&(b.lo.y, b.lo.x, b.hi.y, b.hi.x))
                .expect("finite leaf bounds") // PANIC-OK: leaves subdivide a finite world
        });
        ShardPlan {
            world,
            leaves,
            base_tiles,
        }
    }

    /// The world rectangle the leaves tile.
    pub fn world(&self) -> Rect {
        self.world
    }

    /// The leaf rectangle owned by each shard, indexed by shard id.
    pub fn leaves(&self) -> &[Rect] {
        &self.leaves
    }

    /// Number of shards (leaves).
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// A plan always has at least one leaf.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Leaves created by skew splitting beyond the base grid.
    pub fn splits(&self) -> usize {
        self.leaves.len().saturating_sub(self.base_tiles)
    }

    /// Shards whose leaf intersects the (clamped) rectangle. Never
    /// empty: every rectangle clamps into the world, which the leaves
    /// cover.
    pub fn shards_overlapping(&self, r: &Rect) -> Vec<usize> {
        let c = clamp(&self.world, r);
        self.leaves
            .iter()
            .enumerate()
            .filter(|(_, leaf)| leaf.intersects(&c))
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geom::Point;

    fn world() -> Rect {
        Rect::from_bounds(0.0, 0.0, 100.0, 100.0)
    }

    #[test]
    fn base_grid_matches_requested_shard_count() {
        for (shards, want) in [(1, 1), (2, 2), (4, 4), (3, 4)] {
            let cfg = ShardPlanConfig {
                shards,
                ..Default::default()
            };
            let plan = ShardPlan::build(world(), &cfg, &|_| 0);
            assert_eq!(plan.len(), want, "shards={shards}");
            assert_eq!(plan.splits(), 0);
        }
    }

    #[test]
    fn leaves_cover_the_world() {
        let cfg = ShardPlanConfig {
            shards: 4,
            ..Default::default()
        };
        let plan = ShardPlan::build(world(), &cfg, &|_| 0);
        // Probe a dense lattice including the max edges.
        for i in 0..=20 {
            for j in 0..=20 {
                let p = Point::new(i as f64 * 5.0, j as f64 * 5.0);
                let probe = Rect::from_bounds(p.x, p.y, p.x, p.y);
                assert!(
                    !plan.shards_overlapping(&probe).is_empty(),
                    "uncovered point {p:?}"
                );
            }
        }
    }

    #[test]
    fn out_of_world_rects_route_to_border_shards() {
        let cfg = ShardPlanConfig {
            shards: 4,
            ..Default::default()
        };
        let plan = ShardPlan::build(world(), &cfg, &|_| 0);
        let far = Rect::from_bounds(500.0, 500.0, 510.0, 510.0);
        let targets = plan.shards_overlapping(&far);
        assert!(!targets.is_empty(), "out-of-world must still route");
        // Clamps to the world's max corner → the top-right leaf.
        let corner = plan.shards_overlapping(&Rect::from_bounds(100.0, 100.0, 100.0, 100.0));
        assert_eq!(targets, corner);
    }

    /// Satellite regression: a pathological all-in-one-corner dataset.
    /// The static base grid concentrates everything in one tile; the
    /// occupancy-driven recursive quad-split must break that tile up.
    #[test]
    fn skew_split_breaks_up_a_corner_hotspot() {
        // 10k synthetic tuples, all inside [0,10]² of a [0,100]² world.
        let tuples: Vec<Rect> = (0..10_000)
            .map(|i| {
                let x = (i % 100) as f64 * 0.1;
                let y = (i / 100) as f64 * 0.1;
                Rect::from_bounds(x, y, x, y)
            })
            .collect();
        let occupancy = |leaf: &Rect| tuples.iter().filter(|t| t.intersects(leaf)).count();
        let cfg = ShardPlanConfig {
            shards: 4,
            split_threshold: 2_000,
            max_split_depth: 6,
        };
        let plan = ShardPlan::build(world(), &cfg, &occupancy);
        assert!(plan.splits() > 0, "hotspot tile must be quad-split");
        assert!(plan.len() > 4);
        let max_leaf = plan.leaves().iter().map(occupancy).max().unwrap();
        assert!(
            max_leaf <= cfg.split_threshold,
            "after splitting, no leaf should exceed the threshold (max {max_leaf})"
        );
        // Coverage still holds for the hotspot corner.
        assert!(!plan
            .shards_overlapping(&Rect::from_bounds(0.0, 0.0, 10.0, 10.0))
            .is_empty());
    }

    #[test]
    fn split_depth_is_bounded_for_coincident_tuples() {
        // Every tuple at the same point: occupancy can never drop below
        // the total, so only max_split_depth stops the recursion.
        let occupancy = |leaf: &Rect| {
            if leaf.intersects(&Rect::from_bounds(1.0, 1.0, 1.0, 1.0)) {
                1_000_000
            } else {
                0
            }
        };
        let cfg = ShardPlanConfig {
            shards: 1,
            split_threshold: 10,
            max_split_depth: 3,
        };
        let plan = ShardPlan::build(world(), &cfg, &occupancy);
        // Depth-3 quad splitting of a single base tile along the
        // hotspot path: bounded, not runaway.
        assert!(plan.len() <= 1 + 3 * 4 * cfg.max_split_depth);
    }

    #[test]
    fn degenerate_world_yields_single_effective_region() {
        let flat = Rect::from_bounds(5.0, 5.0, 5.0, 5.0);
        let cfg = ShardPlanConfig {
            shards: 4,
            split_threshold: 1,
            max_split_depth: 8,
        };
        // Occupancy huge everywhere, but a degenerate rect cannot split.
        let plan = ShardPlan::build(flat, &cfg, &|_| 1_000_000);
        assert!(!plan.is_empty());
        let targets = plan.shards_overlapping(&Rect::from_bounds(0.0, 0.0, 9.0, 9.0));
        assert!(!targets.is_empty());
    }
}
