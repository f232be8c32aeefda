//! The four workloads: their data, their service configuration and
//! their op schedule, all a function of `--seed` alone.
//!
//! Cluster centres sit on a fixed ring lattice and only jitter with the
//! seed, and every mutation keeps the data's distribution stationary
//! (uniform relations are re-drawn uniformly; regional commits move
//! tuples inside their region). So a different seed gives different
//! tuples but the same amount of work, and a longer run sees the same
//! data shape as a shorter one.

use std::collections::VecDeque;

use sj_geom::{Bounded, Geometry, Point, Polygon, Rect, ThetaOp};
use sj_joins::Strategy;
use sj_service::{ServiceConfig, Side, WriteBatch};
use sj_shard::ShardConfig;

use crate::rng::Rng;

/// Side length of the square data domain.
pub const WORLD: f64 = 1000.0;
/// Router halo: every join radius used here is below it, so joins
/// scatter across the tile shards instead of the whole-world fallback.
const HALO: f64 = 40.0;
/// Cycles run and discarded before timing starts.
pub const WARMUP_CYCLES: usize = 3;
/// Cycles the check pass replays against the single-node reference: the
/// second one's reads follow the first one's commit on every workload.
pub const CHECK_CYCLES: usize = 2;
/// The three strategies every cycle joins with, in cycle order.
pub const STRATEGIES: [Strategy; 3] = [Strategy::Sweep, Strategy::Partition, Strategy::Tree];

const S_ID0: u64 = 1_000_000;
const INSERT_ID0: u64 = 2_000_000;
const PROBE_ID0: u64 = 3_000_000;
const CLUSTERS: usize = 8;
const SIGMA: f64 = 40.0;
const UPSERT_WINDOW: usize = 4_096;
/// Corner regions `serve_mixed` commits into, one per cycle in rotation.
const REGION_SIDE: f64 = 100.0;

pub fn world_rect() -> Rect {
    Rect::from_bounds(0.0, 0.0, WORLD, WORLD)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// R points, S rectangles: refinement is trivial.
    Mbr,
    /// Regular polygons on both sides: exact refinement dominates.
    Poly,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `[3 joins, selects over the whole S-derived probe pool, 1 commit
    /// of 16 R upserts over a rotating id window]`.
    JoinHeavy,
    /// `[1 commit of 64 regional mutations, 3 joins, selects from a
    /// 256-probe hot set]` — writes beside cached reads.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub mix: Mix,
    pub r_n: usize,
    pub s_n: usize,
    pub theta: ThetaOp,
    pub compress: bool,
    pub cache_capacity: usize,
    pub selects_per_cycle: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "join_mbr",
        shape: Shape::Mbr,
        mix: Mix::JoinHeavy,
        r_n: MBR_R,
        s_n: MBR_S,
        theta: ThetaOp::WithinDistance(5.0),
        compress: false,
        cache_capacity: 0,
        selects_per_cycle: 32,
    },
    Workload {
        name: "join_poly",
        shape: Shape::Poly,
        mix: Mix::JoinHeavy,
        r_n: POLY_R,
        s_n: POLY_S,
        theta: ThetaOp::Overlaps,
        compress: false,
        cache_capacity: 0,
        selects_per_cycle: 32,
    },
    Workload {
        name: "join_poly_q",
        shape: Shape::Poly,
        mix: Mix::JoinHeavy,
        r_n: POLY_R,
        s_n: POLY_S,
        theta: ThetaOp::Overlaps,
        compress: true,
        cache_capacity: 0,
        selects_per_cycle: 32,
    },
    Workload {
        name: "serve_mixed",
        shape: Shape::Mbr,
        mix: Mix::Serve,
        r_n: MBR_R,
        s_n: MBR_S,
        theta: ThetaOp::WithinDistance(5.0),
        compress: false,
        cache_capacity: 512,
        selects_per_cycle: 256,
    },
];

// Sized so that a cycle takes 0.15–0.25 s on the 2-core box: every
// join metric then has well over 80 samples of 10 ms or more in a
// 30-second window, and 92 runs fit the driver's time cap.
const MBR_R: usize = 36_000;
const MBR_S: usize = 12_000;
const POLY_R: usize = 9_000;
const POLY_S: usize = 3_000;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The per-shard (and mirror) service configuration: one worker per
    /// service, so two shards use the box's two cores and no more.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            workers: 1,
            queue_depth: 64,
            cache_capacity: self.cache_capacity,
            record_size: match self.shape {
                Shape::Mbr => 300,
                Shape::Poly => 480,
            },
            compress_geometry: self.compress,
            quant_record_size: 220,
            ..ServiceConfig::default()
        }
    }

    pub fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: 2,
            halo: HALO,
            // No tile ever holds more than everything: no skew splits,
            // so worker threads stay at the shard count.
            split_threshold: self.r_n + self.s_n,
            max_split_depth: 4,
            service: self.service_config(),
        }
    }
}

/// Both relations as the router and the mirror service receive them.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub r: Vec<(u64, Geometry)>,
    pub s: Vec<(u64, Geometry)>,
}

impl Dataset {
    pub fn generate(w: &Workload, seed: u64) -> Dataset {
        let mut rng = Rng::new(seed, 1);
        let r = (0..w.r_n)
            .map(|i| (i as u64, uniform_geometry(w.shape, &mut rng)))
            .collect();
        let centres = cluster_centres(&mut rng);
        let s = (0..w.s_n)
            .map(|i| {
                let c = centres[rng.below(CLUSTERS)];
                let at = Point::new(c.x + SIGMA * rng.gauss(), c.y + SIGMA * rng.gauss());
                let g = match w.shape {
                    Shape::Mbr => rect_at(at, &mut rng),
                    Shape::Poly => polygon_at(at, &mut rng),
                };
                (S_ID0 + i as u64, g)
            })
            .collect();
        Dataset { r, s }
    }
}

/// Eight centres on the 3×3 lattice minus its middle cell, each
/// jittered by at most ±40: every seed has the same cluster overlap,
/// edge clipping and left/right balance across the two shards.
fn cluster_centres(rng: &mut Rng) -> Vec<Point> {
    let cell = WORLD / 3.0;
    let mut out = Vec::with_capacity(CLUSTERS);
    for row in 0..3 {
        for col in 0..3 {
            if row == 1 && col == 1 {
                continue;
            }
            out.push(Point::new(
                (col as f64 + 0.5) * cell + rng.range(-SIGMA, SIGMA),
                (row as f64 + 0.5) * cell + rng.range(-SIGMA, SIGMA),
            ));
        }
    }
    out
}

fn uniform_geometry(shape: Shape, rng: &mut Rng) -> Geometry {
    let at = Point::new(rng.range(0.0, WORLD), rng.range(0.0, WORLD));
    match shape {
        Shape::Mbr => Geometry::Point(at),
        Shape::Poly => polygon_at(at, rng),
    }
}

/// A rectangle with sides up to 12 centred at `at`, kept in the world.
fn rect_at(at: Point, rng: &mut Rng) -> Geometry {
    let (w, h) = (rng.range(0.01, 12.0), rng.range(0.01, 12.0));
    let x0 = (at.x - w / 2.0).clamp(0.0, WORLD - w);
    let y0 = (at.y - h / 2.0).clamp(0.0, WORLD - h);
    Geometry::Rect(Rect::from_bounds(x0, y0, x0 + w, y0 + h))
}

/// A regular polygon, circumradius 4–14, with 8/12/16/24 vertices in
/// shares 9/4/2/1 of 16, kept in the world.
fn polygon_at(at: Point, rng: &mut Rng) -> Geometry {
    let sides = match rng.below(16) {
        0..=8 => 8,
        9..=12 => 12,
        13..=14 => 16,
        _ => 24,
    };
    let radius = rng.range(4.0, 14.0);
    let centre = Point::new(
        at.x.clamp(radius, WORLD - radius),
        at.y.clamp(radius, WORLD - radius),
    );
    Geometry::Polygon(Polygon::regular(centre, radius, sides))
}

/// `n` fresh R-side tuples with ids no schedule uses, drawn like R
/// itself: what the tree-maintenance probe inserts.
pub fn fresh_r_tuples(w: &Workload, seed: u64, n: usize) -> Vec<(u64, Geometry)> {
    let mut rng = Rng::new(seed, 3);
    (0..n)
        .map(|i| (PROBE_ID0 + i as u64, uniform_geometry(w.shape, &mut rng)))
        .collect()
}

/// One operation of the stream.
#[derive(Debug, Clone)]
pub enum Op {
    Join(Strategy),
    Select(Geometry),
    Commit(WriteBatch),
}

/// The op stream of one `(workload, seed)`: cycle `i` is the same ops
/// in every process that constructs the schedule, however many cycles
/// that process goes on to run.
pub struct Schedule {
    w: Workload,
    rng: Rng,
    cycle: usize,
    /// S-rects expanded by 10: the select probes (`Serve` keeps only a
    /// 256-probe hot set of them).
    probes: Vec<Geometry>,
    /// `Serve`: live R ids inside each corner region, oldest first.
    regions: Vec<(Rect, VecDeque<u64>)>,
    next_insert_id: u64,
}

impl Schedule {
    pub fn new(w: &Workload, data: &Dataset, seed: u64) -> Schedule {
        let mut rng = Rng::new(seed, 2);
        let mut probes: Vec<Geometry> = data
            .s
            .iter()
            .map(|(_, g)| Geometry::Rect(g.mbr().expand(10.0)))
            .collect();
        if w.mix == Mix::Serve {
            probes = (0..256)
                .map(|_| probes[rng.below(probes.len())].clone())
                .collect();
        }
        let regions = match w.mix {
            Mix::JoinHeavy => Vec::new(),
            Mix::Serve => {
                let far = WORLD - REGION_SIDE;
                [(0.0, 0.0), (far, 0.0), (0.0, far), (far, far)]
                    .into_iter()
                    .map(|(x, y)| {
                        let rect = Rect::from_bounds(x, y, x + REGION_SIDE, y + REGION_SIDE);
                        let ids = data
                            .r
                            .iter()
                            .filter(|(_, g)| rect.contains_rect(&g.mbr()))
                            .map(|(id, _)| *id)
                            .collect();
                        (rect, ids)
                    })
                    .collect()
            }
        };
        Schedule {
            w: *w,
            rng,
            cycle: 0,
            probes,
            regions,
            next_insert_id: INSERT_ID0,
        }
    }

    /// Index of the cycle `next_cycle` will produce.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    pub fn next_cycle(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(4 + self.w.selects_per_cycle);
        match self.w.mix {
            Mix::JoinHeavy => {
                ops.extend(STRATEGIES.into_iter().map(Op::Join));
                for _ in 0..self.w.selects_per_cycle {
                    let probe = self.probes[self.rng.below(self.probes.len())].clone();
                    ops.push(Op::Select(probe));
                }
                ops.push(Op::Commit(self.window_commit()));
            }
            Mix::Serve => {
                ops.push(Op::Commit(self.regional_commit()));
                ops.extend(STRATEGIES.into_iter().map(Op::Join));
                for _ in 0..self.w.selects_per_cycle {
                    // Squared-uniform skew: low indices are hot.
                    let u = self.rng.unit();
                    let probe = self.probes[(u * u * self.probes.len() as f64) as usize].clone();
                    ops.push(Op::Select(probe));
                }
            }
        }
        self.cycle += 1;
        ops
    }

    /// 16 upserts re-drawing R tuples uniformly, walking a 4 096-id
    /// window so no tuple is rewritten twice in 256 cycles.
    fn window_commit(&mut self) -> WriteBatch {
        let window = UPSERT_WINDOW.min(self.w.r_n);
        let mut batch = WriteBatch::new();
        for j in 0..16 {
            let id = ((self.cycle * 16 + j) % window) as u64;
            batch = batch.upsert(Side::R, id, uniform_geometry(self.w.shape, &mut self.rng));
        }
        batch
    }

    /// 48 upserts, 8 inserts and 8 deletes inside one corner region:
    /// cardinality and the region's density stay constant, and the
    /// touched MBRs stay inside the region, so cache entries elsewhere
    /// survive the commit.
    fn regional_commit(&mut self) -> WriteBatch {
        let k = self.cycle % self.regions.len();
        let (rect, ids) = &mut self.regions[k];
        assert!(ids.len() >= 64, "corner region holds too few tuples");
        let mut batch = WriteBatch::new();
        let deleted: Vec<u64> = ids.drain(..8).collect();
        for id in ids.iter().take(48) {
            let at = Point::new(
                self.rng.range(rect.lo.x, rect.hi.x),
                self.rng.range(rect.lo.y, rect.hi.y),
            );
            batch = batch.upsert(Side::R, *id, Geometry::Point(at));
        }
        ids.rotate_left(48);
        for _ in 0..8 {
            let at = Point::new(
                self.rng.range(rect.lo.x, rect.hi.x),
                self.rng.range(rect.lo.y, rect.hi.y),
            );
            batch = batch.insert(Side::R, self.next_insert_id, Geometry::Point(at));
            ids.push_back(self.next_insert_id);
            self.next_insert_id += 1;
        }
        for id in deleted {
            batch = batch.delete(Side::R, id);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: &Workload) -> Workload {
        Workload {
            r_n: 10_000,
            s_n: 600,
            ..*w
        }
    }

    fn fingerprint(ops: &[Op]) -> String {
        format!("{ops:?}")
    }

    #[test]
    fn schedule_is_identical_across_constructions() {
        for w in &WORKLOADS {
            let w = tiny(w);
            let a_data = Dataset::generate(&w, 42);
            let b_data = Dataset::generate(&w, 42);
            assert_eq!(a_data.r, b_data.r);
            assert_eq!(a_data.s, b_data.s);
            let mut a = Schedule::new(&w, &a_data, 42);
            let mut b = Schedule::new(&w, &b_data, 42);
            for _ in 0..6 {
                assert_eq!(fingerprint(&a.next_cycle()), fingerprint(&b.next_cycle()));
            }
            let mut c = Schedule::new(&w, &a_data, 43);
            assert_ne!(fingerprint(&a.next_cycle()), fingerprint(&c.next_cycle()));
        }
    }

    #[test]
    fn cycles_have_the_declared_shape() {
        for w in &WORKLOADS {
            let w = tiny(w);
            let data = Dataset::generate(&w, 7);
            let mut sched = Schedule::new(&w, &data, 7);
            for _ in 0..5 {
                let ops = sched.next_cycle();
                let joins = ops.iter().filter(|o| matches!(o, Op::Join(_))).count();
                let selects = ops.iter().filter(|o| matches!(o, Op::Select(_))).count();
                let commits: Vec<&WriteBatch> = ops
                    .iter()
                    .filter_map(|o| match o {
                        Op::Commit(b) => Some(b),
                        _ => None,
                    })
                    .collect();
                assert_eq!(joins, 3);
                assert_eq!(selects, w.selects_per_cycle);
                assert_eq!(commits.len(), 1);
                let want = if w.mix == Mix::Serve { 64 } else { 16 };
                assert_eq!(commits[0].len(), want);
            }
        }
    }

    #[test]
    fn data_stays_in_the_world_and_fits_its_records() {
        for w in &WORKLOADS {
            let w = tiny(w);
            let data = Dataset::generate(&w, 3);
            let cfg = w.service_config();
            for (_, g) in data.r.iter().chain(data.s.iter()) {
                assert!(world_rect().contains_rect(&g.mbr()));
                assert!(sj_geom::codec::encoded_len(g) <= cfg.record_size);
                assert!(sj_geom::codec::encoded_qlen(g) <= cfg.quant_record_size);
            }
        }
    }
}
